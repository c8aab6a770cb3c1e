"""Exact sparse elimination for symmetric integer matrices."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

__all__ = ["symmetric_inertia"]


def symmetric_inertia(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix.

    Sparse symmetric LDL^T over the rationals, each row kept as a dict of
    its nonzeros.  Each step pivots on the nonzero diagonal entry whose row
    has the fewest nonzeros, lowest index first (minimum degree).  When
    every remaining diagonal entry is zero, an off-diagonal entry b is
    eliminated with its pair as the 2x2 block [[0, b], [b, 0]], which adds
    nothing to the signature and a factor -b^2 to the determinant.  If only
    zero rows remain the determinant is 0; otherwise it is the exact
    product of the pivots.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    a = {i: {j: Fraction(v) for j, v in enumerate(row) if v} for i, row in enumerate(rows)}
    for i, row in a.items():
        for j, v in row.items():
            if a[j].get(i) != v:
                raise ValueError("matrix is not symmetric")
    sig = 0
    det = Fraction(1)
    while a:
        fewest = min(((len(row), i) for i, row in a.items() if i in row), default=None)
        if fewest is not None:
            p = fewest[1]
            d = a[p][p]
            sig += 1 if d > 0 else -1
            det *= d
            (col,) = _remove(a, (p,))
            _subtract(a, {r: v / d for r, v in col.items()}, col)
            continue
        fewest = min(((len(row), i) for i, row in a.items() if row), default=None)
        if fewest is None:
            return sig, 0
        i = fewest[1]
        j = min(a[i])
        b = a[i][j]
        det *= -b * b
        u, w = _remove(a, (i, j))
        _subtract(a, {r: v / b for r, v in u.items()}, w)
        _subtract(a, {r: v / b for r, v in w.items()}, u)
    if det.denominator != 1:
        raise AssertionError("determinant of an integer matrix is not an integer")
    return sig, int(det)


def _remove(a: dict[int, dict[int, Fraction]],
            block: tuple[int, ...]) -> list[dict[int, Fraction]]:
    """Delete the rows and columns of ``block``; return each removed
    column restricted to the rows that remain."""
    cols = [{r: v for r, v in a.pop(p).items() if r not in block} for p in block]
    for p, col in zip(block, cols):
        for r in col:
            del a[r][p]
    return cols


def _subtract(a: dict[int, dict[int, Fraction]], left: dict[int, Fraction],
              right: dict[int, Fraction]) -> None:
    """Subtract the outer product of ``left`` and ``right`` in place."""
    for r, f in left.items():
        row = a[r]
        for c, g in right.items():
            v = row.get(c, 0) - f * g
            if v:
                row[c] = v
            else:
                del row[c]
