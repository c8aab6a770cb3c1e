"""Exact sparse elimination for symmetric integer matrices."""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Mapping

__all__ = ["symmetric_inertia"]


def symmetric_inertia(rows: Mapping[int, Mapping[int, int]]) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix given as
    sparse rows ``{i: {j: value}}``; an absent entry is zero.

    Sparse symmetric LDL^T over the rationals.  Each step pivots on the
    nonzero diagonal entry whose row has the fewest nonzeros, lowest index
    first (minimum degree), popped from a heap of (degree, index) keys
    that each elimination pushes again only for the rows it touched; a key
    whose row is gone, has a zero diagonal or another degree is skipped.
    When every remaining diagonal entry is zero, an off-diagonal entry b is
    eliminated with its pair as the 2x2 block [[0, b], [b, 0]]: signature
    +0, determinant times -b^2.  If only zero rows remain the determinant
    is 0.  ValueError when an entry's column has no row or the matrix is
    not symmetric.
    """
    a = {i: {j: Fraction(v) for j, v in row.items() if v} for i, row in rows.items()}
    for i, row in a.items():
        for j, v in row.items():
            if j not in a:
                raise ValueError(f"entry ({i}, {j}) lies in a column with no row")
            if a[j].get(i) != v:
                raise ValueError("matrix is not symmetric")
    heap = [(len(row), i) for i, row in a.items()]
    heapq.heapify(heap)
    sig = 0
    det = Fraction(1)
    while a:
        if heap:
            degree, p = heapq.heappop(heap)
            row = a.get(p)
            if row is None or p not in row or len(row) != degree:
                continue  # a stale key
            d = row[p]
            sig += 1 if d > 0 else -1
            det *= d
            (col,) = _remove(a, (p,))
            _subtract_symmetric(a, col, d)
            for r in col:
                heapq.heappush(heap, (len(a[r]), r))
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
        for r in u.keys() | w.keys():
            heapq.heappush(heap, (len(a[r]), r))
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


def _subtract_symmetric(a: dict[int, dict[int, Fraction]], col: dict[int, Fraction],
                        d: Fraction) -> None:
    """Subtract ``col col^T / d`` in place, one product per unordered pair
    of rows, written to both triangles."""
    entries = [(r, v / d, v) for r, v in col.items()]
    for k, (r, f, _) in enumerate(entries):
        row = a[r]
        for c, _, g in entries[k:]:
            v = row.get(c, 0) - f * g
            if v:
                row[c] = a[c][r] = v
            else:
                del row[c]
                if c != r:
                    del a[c][r]
