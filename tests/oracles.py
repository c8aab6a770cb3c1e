"""Independent cross-check oracles for the test suite.

Computation routes that share no arithmetic with the package:

* torus_sigma: torus knot signatures from the eigenvalue count of the
  Brieskorn form of x^p + y^q + z^2 (the double branched cover of the
  pushed-in fiber surface), each eigenvalue contributing the sign read
  off from i/p + j/q + 1/2 mod 2;
* goeritz_det: determinant recomputed from the PD text alone: faces
  traced on half-edges, checkerboard colored, Goeritz matrix of one
  color class eliminated over the rationals;
* braid_seifert_sigma: signature and determinant of a positive braid
  closure from the symmetrized Seifert form of its fiber surface;
* Poly: a dict-backed Laurent polynomial in a and z with the sums and
  products that the Hecke oracle and the skein tests need (the package's
  LaurentPoly2 only holds a finished result);
* hecke_coeffs, homfly: the Hecke image and skein polynomial with every
  coefficient a Poly (the package packs them into ints);
* normal_form: the Garside normal form with one tuple factor per letter,
  rebuilt by every left weighting (the package enters one list factor per
  same-sign run and swaps it in place beside its inverse);
* reduced_word: a permutation braid's word found by restarting the search
  for the first descent after every swap (the package resumes it at the
  swap).
"""

from __future__ import annotations

from fractions import Fraction


def torus_sigma(p: int, q: int) -> int:
    """Signature of the (p, q) torus knot by the Brieskorn eigenvalue count.

    Cross-checks: reproduces -2 for the trefoil, -8 for (3,5) (the E8
    form), and -(q-1) along the (2, q) family.
    """
    s = 0
    for i in range(1, p):
        for j in range(1, q):
            x = (Fraction(i, p) + Fraction(j, q) + Fraction(1, 2)) % 2
            assert x != 0 and x != 1, (p, q, i, j)
            s += 1 if x < 1 else -1
    return s


# ---------------------------------------------------------------------------
# Brute-force Goeritz determinant from PD text.
#
# Lines "X a b c d s": four arc labels counterclockwise from the incoming
# under-arc, sign s.  Faces are traced on half-edges with the ccw slot
# order as the rotation system; coloring propagates across arcs.


def _parse_pd(text: str) -> list[tuple[list[int], int]]:
    crossings = []
    for line in text.strip().splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "X" or len(parts) != 6:
            raise ValueError(f"bad PD line: {line!r}")
        arcs = [int(p) for p in parts[1:5]]
        crossings.append((arcs, 1 if parts[5] == "+" else -1))
    return crossings


def _faces(crossings: list[tuple[list[int], int]]) -> list[list[tuple[int, int]]]:
    # Half-edge (ci, k): the corner of crossing ci between slots k, k+1.
    # Walking a face: from corner (ci, k), leave along the arc in slot
    # (k + 1), arrive at its other endpoint (cj, l), continue at corner
    # (cj, l).  Every corner lies on exactly one face.
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, (arcs, _) in enumerate(crossings):
        for k, a in enumerate(arcs):
            ends.setdefault(a, []).append((ci, k))
    unvisited = {(ci, k) for ci in range(len(crossings)) for k in range(4)}
    out = []
    while unvisited:
        corner = min(unvisited)
        face = []
        while corner in unvisited:
            unvisited.remove(corner)
            face.append(corner)
            ci, k = corner
            arc = crossings[ci][0][(k + 1) % 4]
            first, second = ends[arc]
            corner = second if first == (ci, (k + 1) % 4) else first
        out.append(face)
    return out


def goeritz_det(pd_text: str) -> int:
    crossings = _parse_pd(pd_text)
    if not crossings:
        return 1
    faces = _faces(crossings)
    corner_face = {c: fi for fi, f in enumerate(faces) for c in f}

    color = {0: 0}
    queue = [0]
    while queue:
        f = queue.pop()
        for ci, k in faces[f]:
            # corners k and k+1 of a crossing are across one strand
            other = corner_face[(ci, (k + 1) % 4)]
            if other not in color:
                color[other] = 1 - color[f]
                queue.append(other)
            elif color[other] == color[f]:
                raise AssertionError("diagram faces are not checkerboard colorable")
    white = sorted(f for f in color if color[f] == 0)
    pos = {f: i for i, f in enumerate(white)}

    g = [[Fraction(0)] * len(white) for _ in white]
    for ci, (arcs, _) in enumerate(crossings):
        # white corners sit on one diagonal; eta says which
        pair = (corner_face[(ci, 0)], corner_face[(ci, 2)])
        if color[pair[0]] == 0:
            eta = 1
        else:
            pair = (corner_face[(ci, 1)], corner_face[(ci, 3)])
            eta = -1
        u, w = pos[pair[0]], pos[pair[1]]
        if u == w:
            continue
        g[u][w] -= eta
        g[w][u] -= eta
        g[u][u] += eta
        g[w][w] += eta
    # delete the row and column of the last white face, take |det|
    m = len(white) - 1
    a = [row[:m] for row in g[:m]]
    det = Fraction(1)
    for k in range(m):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, m) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, m):
            f = a[i][k] / a[k][k]
            for j in range(k, m):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return abs(int(det))


def _braid_loops(letters: tuple[int, ...]) -> list[tuple[int, int, int]]:
    occurrences: dict[int, list[int]] = {}
    for pos, e in enumerate(letters):
        assert e > 0, "Seifert matrix route needs a positive braid word"
        occurrences.setdefault(e, []).append(pos)
    loops = []
    for i in sorted(occurrences):
        ps = occurrences[i]
        for a in range(len(ps) - 1):
            loops.append((i, ps[a], ps[a + 1]))
    return loops


def _symmetric_sig_det(rows: list[list[int]]) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix by exact
    congruence diagonalization (symmetric row+column elimination) in
    Fractions.  Each step pivots on the sparsest row with a nonzero
    diagonal; when every diagonal is zero, a row and its column are added
    to another's first."""
    a = {i: {j: Fraction(v) for j, v in enumerate(row) if v} for i, row in enumerate(rows)}
    signature = 0
    det = Fraction(1)
    while a:
        pivots = [i for i, row in a.items() if i in row]
        if not pivots:
            spot = next(((i, j) for i, row in a.items() for j in row), None)
            if spot is None:
                return signature, 0  # only zero rows remain
            i, j = spot  # i != j, as every diagonal entry is zero
            for c, v in a[j].items():  # row i += row j
                a[i][c] = a[i].get(c, 0) + v
            for row in a.values():  # column i += column j
                if j in row:
                    row[i] = row.get(i, 0) + row[j]
            for row in a.values():
                for c in [c for c, v in row.items() if not v]:
                    del row[c]
            continue
        p = min(pivots, key=lambda i: len(a[i]))
        top = a.pop(p)
        d = top.pop(p)
        signature += 1 if d > 0 else -1
        det *= d
        # The matrix stays symmetric, so row j's entry in column p is
        # top[j]; only the rows and columns top reaches change.
        for j, x in top.items():
            row = a[j]
            del row[p]
            f = x / d
            for c, y in top.items():
                v = row.get(c, 0) - f * y
                if v:
                    row[c] = v
                else:
                    row.pop(c, None)
    assert det.denominator == 1
    return signature, abs(int(det))


def braid_seifert_sigma(letters: tuple[int, ...]) -> tuple[int, int]:
    """Signature and determinant of a positive braid closure via the
    symmetrized Seifert form of the fiber surface.

    Basis loops run between consecutive occurrences of each generator.
    Self-pairing is -2 (positive Hopf band); loops sharing a band pair to
    +1; loops of adjacent generators pair to -1 or +1 when their position
    intervals interleave, the sign depending on which endpoint is inside.
    The convention is pinned by the torus grid: any consistent choice is
    congruent, and this one reproduces torus_sigma on all coprime (p, q)
    with p <= 5, q <= 8 and the determinants of the same closures.
    """
    loops = _braid_loops(tuple(letters))
    m = len(loops)
    s = [[0] * m for _ in range(m)]
    for x in range(m):
        s[x][x] = -2
    for x in range(m):
        i, lo_x, hi_x = loops[x]
        for y in range(x + 1, m):
            j, lo_y, hi_y = loops[y]
            value = 0
            if i == j and lo_y == hi_x:
                value = 1
            elif abs(i - j) == 1:
                inside_lo = lo_x < lo_y < hi_x
                inside_hi = lo_x < hi_y < hi_x
                if inside_lo != inside_hi:
                    value = 1 if inside_lo else -1
            s[x][y] = s[y][x] = value
    return _symmetric_sig_det(s)


# ---------------------------------------------------------------------------
# Hecke oracle: g_i^2 = z*g_i + 1 on the permutation basis, Markov trace
# peeled level by level, every coefficient a Poly in a and z.


class Poly:
    """Laurent polynomial in a and z as {(i, j): coefficient}, zeros dropped.

    Sums, products and equality take any operand with such a ``coeffs``
    dict, so a package LaurentPoly2 mixes in.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], int] | None = None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}

    @classmethod
    def one(cls) -> "Poly":
        return cls({(0, 0): 1})

    @classmethod
    def term(cls, coeff: int, i: int, j: int) -> "Poly":
        return cls({(i, j): coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not hasattr(other, "coeffs"):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    def __neg__(self) -> "Poly":
        return Poly({k: -c for k, c in self.coeffs.items()})

    def __add__(self, other) -> "Poly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-Poly(other.coeffs))

    def __mul__(self, other) -> "Poly":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + c1 * c2
        return Poly(out)

    def mul_term(self, coeff: int, di: int, dj: int) -> "Poly":
        return Poly({(i + di, j + dj): c * coeff for (i, j), c in self.coeffs.items()})


_Z = Poly.term(1, 0, 1)
_UNPEELED = Poly({(0, -1): 1, (2, -1): -1})  # (1 - a^2)/z


def _swap_values(w: tuple[int, ...], i: int) -> tuple[int, ...]:
    lst = list(w)
    p, q = lst.index(i), lst.index(i + 1)
    lst[p], lst[q] = lst[q], lst[p]
    return tuple(lst)


def _times_generator(terms: dict, i: int, inverse: bool = False) -> dict:
    """Right-multiply sum c*g_w by g_{i+1} (i 0-based), or by its inverse g - z."""
    extra = -_Z if inverse else _Z
    out: dict = {}
    for w, c in terms.items():
        ws = _swap_values(w, i)
        out[ws] = out[ws] + c if ws in out else c
        if (w.index(i) < w.index(i + 1)) == inverse:
            out[w] = out[w] + c * extra if w in out else c * extra
    return {w: c for w, c in out.items() if c}


def hecke_coeffs(strands: int, letters) -> dict[tuple[int, ...], Poly]:
    """{permutation: coefficient} of the Hecke image of a braid word."""
    terms = {tuple(range(strands)): Poly.one()}
    for e in letters:
        terms = _times_generator(terms, abs(e) - 1, inverse=e < 0)
    return terms


def _normalized_trace(level: dict, n: int) -> Poly:
    """((1 - a^2)/z)^(n-1) times the Markov trace, at c = z/(1 - a^2)."""
    while n > 1:
        nxt: dict[tuple[int, ...], Poly] = {}

        def add(w: tuple[int, ...], p: Poly):
            nxt[w] = nxt[w] + p if w in nxt else p

        for w, poly in level.items():
            j = w[n - 1]
            if j == n - 1:
                add(w[: n - 1], poly * _UNPEELED)
                continue
            # w = v . (cycle j -> j+1 -> ... -> n-1 -> j); peel one strand.
            v = [x - 1 if x > j else x for x in w[: n - 1]]
            term: dict[tuple[int, ...], Poly] = {tuple(v): poly}
            for i in range(n - 3, j - 1, -1):
                term = _times_generator(term, i)
            for key, val in term.items():
                add(key, val)
        level = nxt
        n -= 1
    return level.get((0,), Poly())


def homfly(strands: int, letters) -> Poly:
    """a^(e-n+1) ((1 - a^2)/z)^(n-1) tr(image), e the exponent sum."""
    writhe = sum(1 if e > 0 else -1 for e in letters)
    trace = _normalized_trace(hecke_coeffs(strands, letters), strands)
    return trace.mul_term(1, writhe - strands + 1, 0)


# ---------------------------------------------------------------------------
# Garside oracle: factors are one-line tuples, and each left weighting
# returns a new pair that the leftward pass compares with the old one.


def _left_weight(a: tuple[int, ...], b: tuple[int, ...]
                 ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    a, b = list(a), list(b)
    where = [0] * len(a)
    for x, v in enumerate(a):
        where[v] = x
    i = 0
    while i < len(b) - 1:
        if b[i] > b[i + 1] and where[i] < where[i + 1]:
            x, y = where[i], where[i + 1]
            a[x], a[y] = i + 1, i
            where[i], where[i + 1] = y, x
            b[i], b[i + 1] = b[i + 1], b[i]
            i = max(i - 1, 0)
        else:
            i += 1
    return tuple(a), tuple(b)


def normal_form(strands: int, letters) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(infimum, factor mappings) of the left-greedy normal form D^inf A_1 ... A_l."""
    n = strands
    if n == 1:
        return 0, ()
    identity = tuple(range(n))
    remaining = sum(1 for e in letters if e < 0)
    infimum = -remaining
    factors: list[tuple[int, ...]] = []
    for e in letters:
        i = abs(e) - 1
        if e < 0:
            remaining -= 1
        if remaining % 2:
            i = n - 2 - i
        s = list(identity)
        s[i], s[i + 1] = i + 1, i
        factors.append(tuple(s) if e > 0 else tuple(reversed(s)))
        k = len(factors) - 1
        while k > 0:
            a, b = _left_weight(factors[k - 1], factors[k])
            if a == factors[k - 1]:
                break
            factors[k - 1], factors[k] = a, b
            k -= 1
        if factors[-1] == identity:
            factors.pop()
    lead = 0
    while lead < len(factors) and factors[lead] == identity[::-1]:
        lead += 1
    return infimum + lead, tuple(factors[lead:])


def reduced_word(mapping: tuple[int, ...]) -> list[int]:
    """0-based generator indices: swap the first descent until none is left."""
    word: list[int] = []
    m = list(mapping)
    while True:
        for i in range(len(m) - 1):
            if m[i] > m[i + 1]:
                word.append(i)
                m[i], m[i + 1] = m[i + 1], m[i]
                break
        else:
            return word
