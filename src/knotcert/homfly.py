"""The two-variable link polynomial of braid closures via the Hecke algebra.

A braid word maps into the Hecke algebra H_n spanned by permutation basis
elements g_w, with generators obeying g_i^2 = z*g_i + 1 (so the inverse is
g_i - z).  In this scaling every product of generators and inverses keeps
integer polynomial coefficients in z.  The Markov trace tr is computed level
by level: each w in S_n either fixes the last strand or factors uniquely as
v * (descending cycle through the last strand), and peeling that cycle
multiplies the coefficient by the trace parameter c = z/(1 - a^2).  The
closure invariant normalizes by writhe and strand count:

    P(a, z) = a^(e-n+1) * ((1 - a^2)/z)^(n-1) * tr(image of the word)

where e is the exponent sum.  The normalization spends one factor
(1 - a^2)/z per level, so a peeled level contributes c * (1 - a^2)/z = 1
and a level whose last strand closes to a trivial loop contributes
(1 - a^2)/z; the whole computation stays in one ring of Laurent
polynomials in a and z.
The result is an exact Laurent polynomial satisfying the skein relation
(1/a) P(L+) - a P(L-) = z P(L0) with P(unknot) = 1; the right trefoil maps
to 2a^2 - a^4 + a^2 z^2.  Specializing a = 1, z^2 = -4 gives the knot
determinant, and (max - min a-exponent)/2 + 1 is the braid index lower
bound of Morton, Franks and Williams.
"""

from __future__ import annotations

import dataclasses

from .braid import BraidWord, exponent_sum
from .laurent import LaurentPoly2

__all__ = [
    "MAX_TRACE_STRANDS",
    "HeckeElement",
    "hecke_image",
    "homfly",
    "mfw_bound",
    "det_from_homfly",
]

MAX_TRACE_STRANDS = 6

_Z = LaurentPoly2.term(1, 0, 1)
_UNPEELED = LaurentPoly2({(0, -1): 1, (2, -1): -1})  # (1 - a^2)/z


@dataclasses.dataclass(frozen=True)
class HeckeElement:
    """Element of H_n: permutation basis with nonzero polynomial coefficients in z."""

    strands: int
    coeffs: dict[tuple[int, ...], LaurentPoly2]


def _swap_values(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    """One-line tuple of w followed by the transposition of values i, i+1."""
    lst = list(w)
    p, q = lst.index(i), lst.index(i + 1)
    lst[p], lst[q] = lst[q], lst[p]
    return tuple(lst)


def _value_ascent(w: tuple[int, ...], i: int) -> bool:
    """Whether right multiplication by generator i increases word length."""
    return w.index(i) < w.index(i + 1)


def _times_generator(terms: dict, i: int, inverse: bool = False) -> dict:
    """Right-multiply sum c*g_w by g = g_{i+1}, or by its inverse g - z (i is 0-based).

    g_w * g is g_{ws} at an ascent of w and g_{ws} + z*g_w at a descent; the
    inverse subtracts z*g_w, which cancels the descent term and leaves
    -z*g_w at an ascent.  Zero coefficients are dropped.
    """
    extra = -_Z if inverse else _Z
    out: dict = {}
    for w, c in terms.items():
        ws = _swap_values(w, i)
        out[ws] = out[ws] + c if ws in out else c
        if _value_ascent(w, i) == inverse:
            out[w] = out[w] + c * extra if w in out else c * extra
    return {w: c for w, c in out.items() if c}


def hecke_image(w: BraidWord) -> HeckeElement:
    """Image of a braid word in the Hecke algebra."""
    if w.strands > MAX_TRACE_STRANDS:
        raise ValueError(
            f"Hecke computations are guarded to at most {MAX_TRACE_STRANDS} strands, "
            f"got {w.strands}")
    terms = {tuple(range(w.strands)): LaurentPoly2.one()}
    for e in w.letters:
        terms = _times_generator(terms, abs(e) - 1, inverse=e < 0)
    return HeckeElement(w.strands, terms)


def _normalized_trace(elem: HeckeElement) -> LaurentPoly2:
    """((1 - a^2)/z)^(n-1) times the Markov trace of elem, at c = z/(1 - a^2)."""
    level = elem.coeffs
    n = elem.strands
    while n > 1:
        nxt: dict[tuple[int, ...], LaurentPoly2] = {}

        def add(w: tuple[int, ...], p: LaurentPoly2):
            nxt[w] = nxt[w] + p if w in nxt else p

        for w, poly in level.items():
            j = w[n - 1]
            if j == n - 1:
                add(w[: n - 1], poly * _UNPEELED)
                continue
            # w = v . (cycle j -> j+1 -> ... -> n-1 -> j); peel one strand.
            v = [x - 1 if x > j else x for x in w[: n - 1]]
            term: dict[tuple[int, ...], LaurentPoly2] = {tuple(v): poly}
            for i in range(n - 3, j - 1, -1):
                term = _times_generator(term, i)
            for key, val in term.items():
                add(key, val)
        level = nxt
        n -= 1
    return level.get((0,), LaurentPoly2())


def homfly(w: BraidWord) -> LaurentPoly2:
    """Two-variable polynomial of the closure of a braid word."""
    trace = _normalized_trace(hecke_image(w))
    return trace.mul_term(1, exponent_sum(w) - w.strands + 1, 0)


def mfw_bound(p: LaurentPoly2) -> int:
    """Braid index lower bound: half the a-exponent breadth plus one."""
    if not p:
        raise ValueError("the zero polynomial has no breadth")
    exps = p.exponents_first()
    breadth = exps[-1] - exps[0]
    if breadth % 2:
        raise AssertionError(f"a-breadth should be even, got {breadth}")
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
                f"(even nonnegative z-exponents); found z^{j}")
        total += coeff * (-4) ** (j // 2)
    return abs(total)
