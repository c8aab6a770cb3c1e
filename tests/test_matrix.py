"""Sparse symmetric elimination against the dense oracle in oracles.py.

_symmetric_sig_det diagonalizes by congruence in Fractions and shares no code
with knotcert._matrix; it returns the absolute value of the determinant.
symmetric_inertia gets the same matrices as sparse rows of their nonzeros,
and is in turn the reference for the closing of the streaming quotient-word
pass, diagram._frontier_inertia, which eliminates with its own Bareiss step.
"""

import pytest

from knotcert._matrix import _exact, symmetric_inertia
from knotcert.diagram import _frontier_inertia

from conftest import logged
from oracles import _symmetric_sig_det


def _random_symmetric(rng, n: int) -> list[list[int]]:
    density = rng.random()
    zero_diagonal = rng.random()
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and rng.random() < zero_diagonal:
                continue
            if rng.random() < density:
                m[i][j] = m[j][i] = rng.randint(-4, 4)
    if n and rng.random() < 0.2:
        # a repeated row and column makes the matrix singular
        k, src = rng.randrange(n), rng.randrange(n)
        for i in range(n):
            m[k][i] = m[i][k] = m[src][i]
        m[k][k] = m[src][src]
    return m


def _rows(m: list[list[int]]) -> dict[int, dict[int, int]]:
    return {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(m)}


def test_matches_dense_oracle(rng):
    for _ in range(1000):
        m = _random_symmetric(rng, rng.randint(0, 9))
        sig, det = symmetric_inertia(_rows(m))
        assert (sig, abs(det)) == _symmetric_sig_det(m), m


def test_hyperbolic_pair_is_a_block_pivot():
    assert symmetric_inertia(_rows([[0, 1], [1, 0]])) == (0, -1)


def test_non_unit_hyperbolic_pair():
    assert symmetric_inertia(_rows([[0, 3], [3, 0]])) == (0, -9)


@pytest.mark.parametrize("m, expected", [
    # the pivot 2 divides both entries below it, so rows 1 and 2 reach
    # the block [[0, 1], [1, 0]] with scale 1
    ([[2, 2, 2],
      [2, 2, 3],
      [2, 3, 2]], (1, -2)),
    # the pivot 4 leaves [[0, 3], [3, 0]] behind: row 1 is doubled, then
    # divided by 6 (scale 1/3), row 2 keeps scale 1, so the block is
    # eliminated from the unequal entries 1 and 3
    ([[4, 2, 4],
      [2, 1, 5],
      [4, 5, 4]], (1, -36)),
])
def test_block_pivot_after_a_non_unit_pivot(m, expected):
    assert symmetric_inertia(_rows(m)) == expected
    assert _symmetric_sig_det(m) == (expected[0], abs(expected[1]))


def test_large_entries_match_dense_oracle(rng):
    # entries far beyond the Goeritz range, some zero diagonals; the sign
    # of a nonzero determinant is (-1) to the number of negative
    # eigenvalues, (n - signature) / 2
    for _ in range(25):
        n = rng.randint(10, 30)
        density, zero_diagonal = rng.random(), rng.random()
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if (i != j or rng.random() >= zero_diagonal) and rng.random() < density:
                    m[i][j] = m[j][i] = rng.randint(-10 ** 6, 10 ** 6)
        sig, det = symmetric_inertia(_rows(m))
        assert type(sig) is int and type(det) is int
        assert (sig, abs(det)) == _symmetric_sig_det(m), m
        assert det == 0 or (det > 0) == ((n - sig) // 2 % 2 == 0), m


def test_fill_raises_degrees():
    # 4I plus the cube graph's adjacency: every row has degree 4, and the
    # first pivot's three neighbours are pairwise apart, so its fill takes
    # each of them to degree 5 while their degree-4 keys are still queued.
    # The adjacency eigenvalues are 3, 1, 1, 1, -1, -1, -1, -3.
    rows = {v: {v: 4, **{v ^ (1 << b): 1 for b in range(3)}} for v in range(8)}
    assert symmetric_inertia(rows) == (8, 7 * 5 ** 3 * 3 ** 3)
    m = [[rows[i].get(j, 0) for j in range(8)] for i in range(8)]
    assert _symmetric_sig_det(m) == (8, 7 * 5 ** 3 * 3 ** 3)


def test_pivot_cancelling_diagonals_forces_block_pivot():
    # the first pivot leaves [[0, 1], [1, 0]] behind, so the queued keys of
    # rows 1 and 2 point at zero diagonals and a 2x2 block must follow
    m = [[1, 1, 1],
         [1, 1, 2],
         [1, 2, 1]]
    assert symmetric_inertia(_rows(m)) == (1, -1)
    assert _symmetric_sig_det(m) == (1, 1)


def test_zero_diagonal_four_by_four():
    m = [[0, 2, 1, 0],
         [2, 0, 0, 3],
         [1, 0, 0, 1],
         [0, 3, 1, 0]]
    # Leibniz expansion gives det 1; trace 0 and det > 0 force two
    # negative eigenvalues, so the signature is 0.
    assert symmetric_inertia(_rows(m)) == (0, 1)
    assert _symmetric_sig_det(m) == (0, 1)


def test_zero_matrix_is_singular():
    assert symmetric_inertia({0: {}, 1: {}, 2: {}}) == (0, 0)


def test_row_cancelled_to_zero_is_singular():
    # rank one: the first pivot leaves a zero row behind
    assert symmetric_inertia(_rows([[1, 1], [1, 1]])) == (1, 0)


@pytest.mark.parametrize("rows", [
    {0: {0: 1, 1: 2}},
    {0: {0: 1, 2: 3}, 1: {1: 1}},
    {1: {0: 0, 1: 1, 2: 5}},
])
def test_rejects_non_square(rows):
    # in sparse rows a matrix is not square when an entry's column has no row
    with pytest.raises(ValueError, match="no row"):
        symmetric_inertia(rows)


def test_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_inertia(_rows([[1, 2], [3, 1]]))


def _without(m: list[list[int]], t: int) -> list[list[int]]:
    return [[v for j, v in enumerate(row) if j != t] for i, row in enumerate(m) if i != t]


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _closing(m: list[list[int]], t: int, scale: int = 1):
    """((sigma(M), det M), (sigma(M'), det M')) for M' = M less row and
    column t, from diagram._frontier_inertia on the frontier scale * M
    with d = scale and sigma = sign(scale): that of the block-diagonal
    matrix [scale] + M once its first pivot is eliminated.  The closing
    gives sigma(M) only through sigma(M') + sign(det M det M'), which is
    all a tail needs; when both determinants are 0 it is None here."""
    sign = _sign(scale)
    f = [[scale * v for v in row] for row in m]
    sig_minor, det_minor, det_m = _frontier_inertia(f, list(range(len(m))), scale, sign, t)
    sig_minor -= sign
    det_m, det_minor = _exact(det_m, scale), _exact(det_minor, scale)
    sig_m = sig_minor + _sign(det_m * det_minor) if det_m or det_minor else None
    return (sig_m, det_m), (sig_minor, det_minor)


def test_frontier_inertia_matches_two_eliminations(rng, monkeypatch):
    """The frontier closing, which eliminates row t last, against plain
    eliminations of M and of M' = M less row and column t: random
    matrices with many zero diagonals (M' often stalls on zero pivots and
    needs a congruence, or is singular), row t's diagonal zero about half
    the time, at frontier scales of both signs."""
    import knotcert.diagram
    merges = []
    monkeypatch.setattr(knotcert.diagram, "_add_slot", logged(merges, knotcert.diagram._add_slot))
    seen = set()
    for _ in range(1500):
        n = rng.randint(1, 9)
        m = _random_symmetric(rng, n)
        t = rng.randrange(n)
        if rng.random() < 0.5:
            m[t][t] = 0
        expected = symmetric_inertia(_rows(m)), symmetric_inertia(_rows(_without(m, t)))
        if expected[0][1] == expected[1][1] == 0:
            expected = (None, 0), expected[1]
        for scale in (1, -3, 2):
            merges.clear()
            assert _closing(m, t, scale) == expected, (m, t, scale)
        if expected[1][1] == 0:
            seen.add("singular M'")
        if merges:
            seen.add("stall")
        if m[t][t] == 0:
            seen.add("zero diagonal at t")
    assert len(seen) == 3, seen


@pytest.mark.parametrize("m, t, expected", [
    # M' = [[0, 1], [1, 0]] stalls: row 1 is added to row 0, whose pivot
    # is then 2; row 2 is left with the Schur value -2 times D = -2, so
    # det M = 2 and sigma(M) = 0 - 1
    ([[0, 1, 1],
      [1, 0, 1],
      [1, 1, 0]], 2, ((-1, 2), (0, -1))),
    # M' = [[1, 1], [1, 1]] is singular; M itself is not
    ([[1, 1, 1],
      [1, 1, 0],
      [1, 0, 0]], 2, ((1, -1), (1, 0))),
    # the one row of M' is zero: M' is singular, det M = -3^2
    ([[0, 3],
      [3, 5]], 1, ((0, -9), (0, 0))),
    # M' is empty: det 1, and M is the Schur value alone
    ([[-4]], 0, ((-1, -4), (0, 1))),
])
def test_frontier_inertia_by_hand(m, t, expected):
    for scale in (1, -3, 2):
        assert _closing(m, t, scale) == expected, scale
    assert (symmetric_inertia(_rows(m)), symmetric_inertia(_rows(_without(m, t)))) == expected
