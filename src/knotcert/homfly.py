"""The two-variable link polynomial of braid closures via the Hecke algebra.

A braid word maps into the Hecke algebra H_n spanned by permutation basis
elements g_w, with generators obeying g_i^2 = z*g_i + 1 (so the inverse is
g_i - z).  In this scaling every product of generators and inverses keeps
integer polynomial coefficients in z.  An element is a dense list with one
slot per permutation (see ``_tables``), and a generator is a table lookup.
The Markov trace tr is computed level by level: each w in S_n either fixes
the last strand or factors uniquely as v * (descending cycle through the
last strand), and peeling that cycle multiplies the coefficient by the
trace parameter c = z/(1 - a^2).  The closure invariant normalizes by
writhe and strand count:

    P(a, z) = a^(e-n+1) * ((1 - a^2)/z)^(n-1) * tr(image of the word)

where e is the exponent sum.  The normalization spends one factor
(1 - a^2)/z per level, so a peeled level contributes c * (1 - a^2)/z = 1
and a level whose last strand closes to a trivial loop contributes
(1 - a^2)/z; the trace counts those levels and expands their factors once,
at the end.  Until then each coefficient is a polynomial in z packed into
one int (see ``_packed_image``).  The result is an exact Laurent polynomial
satisfying the skein relation (1/a) P(L+) - a P(L-) = z P(L0) with
P(unknot) = 1; the right trefoil maps to 2a^2 - a^4 + a^2 z^2.
Specializing a = 1, z^2 = -4 gives the knot determinant, and
(max - min a-exponent)/2 + 1 is the braid index lower bound of Morton,
Franks and Williams.
"""

from __future__ import annotations

from functools import cache
from itertools import repeat
from math import comb, factorial
from operator import add, itemgetter, lshift, sub

from .braid import (_TABLE_STRANDS, BraidWord, _check_integers, _shown, _symmetric_group,
                    exponent_sum)

__all__ = [
    "MAX_TRACE_STRANDS",
    "MAX_TRACE_WORK",
    "LaurentPoly2",
    "homfly",
    "mfw_bound",
    "det_from_homfly",
]

MAX_TRACE_STRANDS = _TABLE_STRANDS
# Bound on n! * letters^2 * bits, which estimates the bit operations that
# build the packed image (see ``_packed_image``).  It admits every word of
# at most 3 strands up to the 2,000-letter input limit, and 444 letters on
# 6 strands.
MAX_TRACE_WORK = 2 ** 36


class LaurentPoly2:
    """The skein polynomial: a Laurent polynomial in a and z with int coefficients.

    ``coeffs`` maps (i, j) exponent pairs to nonzero coefficients, so
    equality is structural equality of the stored terms; ``str`` prints
    them as a^i*z^j.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        for (i, j), c in (coeffs or {}).items():
            _check_integers("exponents and coefficients", i, j, c)
            if c != 0:
                clean[(i, j)] = c
        self.coeffs = clean

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int) and not isinstance(other, bool):
            other = LaurentPoly2({(0, 0): other})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        return self.coeffs == other.coeffs

    def terms(self) -> list[tuple[int, int, int]]:
        """Sorted (i, j, coeff) triples."""
        return [(i, j, self.coeffs[(i, j)]) for (i, j) in sorted(self.coeffs)]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*a^{i}*z^{j}" for i, j, c in self.terms())

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.coeffs!r})"


@cache
def _tables(n: int) -> tuple[tuple, tuple]:
    """Slot tables of S_n: a (swap, descents, ascents) triple per generator, and the peels.

    Slot s holds g_w for w the inverse of u, the s-th permutation of
    ``braid._symmetric_group(n)``; slot n! is a zero sentinel.  Each table is
    an ``itemgetter`` over the n! + 1 slots.  For g = g_{i+1}, swap reads s_i u
    (u[i] and u[i+1] swapped), descents reads u where s_i starts u and the
    sentinel elsewhere, and ascents the reverse.  Peel j reads, in S_(n-1)
    order, the u that hold n - 1 at position j.
    """
    perms, slot, _, left, _, starts = _symmetric_group(n)
    end = len(perms)
    gens = tuple((itemgetter(*left[i], end),
                  itemgetter(*(s if m >> i & 1 else end for s, m in enumerate(starts)), end),
                  itemgetter(*(end if m >> i & 1 else s for s, m in enumerate(starts)), end))
                 for i in range(n - 1))
    peels = tuple(itemgetter(*(slot[v[:j] + (n - 1,) + v[j:]]
                               for v in _symmetric_group(n - 1)[0]), end) for j in range(n))
    return gens, peels


def _times(c, gen: tuple, bits: int, inverse: bool = False) -> list[int]:
    """Right-multiply a dense image c by g = g_{i+1}, or by its inverse g - z.

    In the slot of u, u[x] is the position of x in w, so ws swaps u[i] and
    u[i+1].  g_w * g is g_{ws} at an ascent of w (u[i] < u[i+1]) and
    g_{ws} + z*g_w at a descent; the inverse subtracts z*g_w, which cancels
    the descent term and leaves -z*g_w at an ascent.  Packed, z*c is ``c << bits``.
    """
    swap, descents, ascents = gen
    op, extra = (sub, ascents) if inverse else (add, descents)
    return list(map(op, swap(c), map(lshift, extra(c), repeat(bits))))


def _packed_image(w: BraidWord) -> tuple[list[int], int]:
    """Image of a braid word with each coefficient packed into one int, and the width.

    The image is dense, one coefficient per slot of ``_tables``.  Before the
    trace every coefficient is a polynomial in z with nonnegative exponents; it is
    stored as its value at z = 2^bits (Kronecker packing).
    The width bits = letters + n^2 + 2 is exact here and in ``_trace_terms``.
    Right multiplication by g or g - z sends each term c*g_w to at most two
    terms, of coefficients +-c and +-z*c, so it at most doubles the sum S of
    all |coefficients| of all terms.  S starts at 1, the letters double it at
    most len(letters) times and the n - 1 peels, of at most n - 2 generators
    each, fewer than n^2 times.  So every coefficient stays below
    2^(letters + n^2) < 2^(bits-1): a packed polynomial is 0 only when it is,
    and ``_unpack`` reads its digits back exactly.

    The image has n! slots, each a polynomial of z-degree at most
    len(letters), so each packed coefficient has at most about
    len(letters) * bits bits, and every letter touches each slot once.
    Their product is the work checked against MAX_TRACE_WORK.
    """
    if w.strands > MAX_TRACE_STRANDS:
        raise ValueError(f"Hecke computations are guarded to at most {MAX_TRACE_STRANDS} "
                         f"strands, got {_shown(w.strands)}")
    bits = len(w.letters) + w.strands ** 2 + 2
    work = factorial(w.strands) * len(w.letters) ** 2 * bits
    if work > MAX_TRACE_WORK:
        raise ValueError(
            f"Hecke computations are guarded to n! * letters^2 * bits <= {MAX_TRACE_WORK}; "
            f"a {len(w.letters)}-letter word on {_shown(w.strands)} strands needs {_shown(work)}")
    gens = _tables(w.strands)[0]
    c = [1] + [0] * factorial(w.strands)
    for e in w.letters:
        c = _times(c, gens[abs(e) - 1], bits, inverse=e < 0)
    return c, bits


def _unpack(packed: int, bits: int) -> dict[int, int]:
    """{z-exponent: coefficient} of a packed polynomial, balanced digits base 2^bits."""
    out: dict[int, int] = {}
    half, mask, j = 1 << (bits - 1), (1 << bits) - 1, 0
    while packed:
        c = ((packed + half) & mask) - half
        if c:
            out[j] = c
        packed, j = (packed - c) >> bits, j + 1
    return out


def _trace_terms(image: list[int], n: int, bits: int) -> dict[int, int]:
    """Trace of a packed image as {k: packed coefficient}: vector k sums the terms
    with k unpeeled levels, and the normalized trace sums ((1 - a^2)/z)^k times these."""
    level = {0: image}
    for m in range(n, 1, -1):
        gens, peels = _tables(m - 1)[0], _tables(m)[1]
        summed: dict[int, list[int]] = {}
        for k, c in level.items():
            # w = v . (cycle j -> j+1 -> ... -> m-1 -> j), where j = w[m-1]
            # is where u holds m-1: peel one strand, or count one more
            # unpeeled level when the last strand is fixed.  Peel j reads
            # these terms under the keys of v.
            for j, peel in enumerate(peels):
                v = peel(c)
                for i in range(m - 3, j - 1, -1):
                    v = _times(v, gens[i], bits)
                key = k + (j == m - 1)
                summed[key] = list(map(add, summed[key], v)) if key in summed else v
        level = summed
    return {k: c[0] for k, c in level.items() if c[0]}


def homfly(w: BraidWord) -> LaurentPoly2:
    """Two-variable polynomial of the closure of a braid word."""
    terms, bits = _packed_image(w)
    shift = exponent_sum(w) - w.strands + 1
    coeffs: dict[tuple[int, int], int] = {}
    for k, packed in _trace_terms(terms, w.strands, bits).items():
        for j, c in _unpack(packed, bits).items():
            for m in range(k + 1):  # (1 - a^2)^k z^-k, expanded once
                key = (shift + 2 * m, j - k)
                coeffs[key] = coeffs.get(key, 0) + (-1) ** m * comb(k, m) * c
    return LaurentPoly2(coeffs)


def mfw_bound(p: LaurentPoly2) -> int:
    """Braid index lower bound: half the a-exponent breadth plus one."""
    if not p:
        raise ValueError("the zero polynomial has no breadth")
    exps = [i for (i, _j) in p.coeffs]
    breadth = max(exps) - min(exps)
    if breadth % 2:
        raise ValueError(f"a-breadth of a link polynomial is even, got {_shown(breadth)}")
    return breadth // 2 + 1


def det_from_homfly(p: LaurentPoly2) -> int:
    """Knot determinant from the polynomial: substitute a = 1, z^2 = -4.

    Through a = 1 the polynomial collapses to the Alexander polynomial at
    z = sqrt(t) - 1/sqrt(t), and t = -1 gives z^2 = -4.
    """
    by_z: dict[int, int] = {}
    for _i, j, coeff in p.terms():
        by_z[j] = by_z.get(j, 0) + coeff
    total = 0
    for j, coeff in by_z.items():
        if coeff == 0:
            continue
        if j < 0 or j % 2:
            raise ValueError(
                "determinant specialization needs a knot polynomial "
                f"(even nonnegative z-exponents); found z^{_shown(j)}")
        total += coeff * (-4) ** (j // 2)
    return abs(total)
