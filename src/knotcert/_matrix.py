"""Exact sparse elimination for symmetric integer matrices."""

from __future__ import annotations

import heapq
from math import gcd
from typing import Mapping

__all__ = ["symmetric_inertia"]


def symmetric_inertia(rows: Mapping[int, Mapping[int, int]]) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix given as
    sparse rows ``{i: {j: value}}``; an absent entry is zero.

    Sparse symmetric LDL^T in integers only.  Working row r holds
    lambda_r times row r of the exact Schur complement, for a positive
    rational lambda_r, so every pivot has its true sign and the nonzero
    pattern stays symmetric.  A row update multiplies row r by the
    smallest integer m that clears the pivot's denominator, subtracts the
    pivot row(s) and, when m > 1, divides out the gcd of its entries;
    lambda_r changes by the ratio of those two factors.

    Each step pivots on the nonzero diagonal entry whose row has the
    fewest nonzeros, lowest index first (minimum degree), popped from a
    heap of (degree, index) keys that each elimination pushes again only
    for the rows it touched; a key whose row is gone, has a zero diagonal
    or another degree is skipped.  When every remaining diagonal entry is
    zero, an off-diagonal entry and its mirror, b_ij and b_ji, are
    eliminated as a 2x2 block: signature +0, determinant times
    -b_ij b_ji / (lambda_i lambda_j).  If only zero rows remain the
    determinant is 0.  Otherwise every row was a pivot row, so the
    determinant is the product of the pivots over the product of all
    lambda, one exact division at the end.  ValueError when an entry's
    column has no row or the matrix is not symmetric.
    """
    a = {i: {j: v for j, v in row.items() if v} for i, row in rows.items()}
    for i, row in a.items():
        for j, v in row.items():
            if j not in a:
                raise ValueError(f"entry ({i}, {j}) lies in a column with no row")
            if a[j].get(i) != v:
                raise ValueError("matrix is not symmetric")
    heap = [(len(row), i) for i, row in a.items()]
    heapq.heapify(heap)
    sig = 0
    num = den = 1  # det = num / den: pivots and gcds over row multipliers
    while a:
        if heap:
            degree, p = heapq.heappop(heap)
            row = a.get(p)
            if row is None or p not in row or len(row) != degree:
                continue  # a stale key
            prow = a.pop(p)
            e = prow.pop(p)
            sig += 1 if e > 0 else -1
            num *= e
            for r in prow:
                v = a[r].pop(p)
                g = gcd(e, v)
                m, k = abs(e) // g, (v if e > 0 else -v) // g
                h = _combine(a, r, m, ((k, prow),))
                den, num = den * m, num * h
                heapq.heappush(heap, (len(a[r]), r))
            continue
        fewest = min(((len(row), i) for i, row in a.items() if row), default=None)
        if fewest is None:
            return sig, 0  # only zero rows remain
        i = fewest[1]
        j = min(a[i])
        irow, jrow = a.pop(i), a.pop(j)
        bij, bji = irow.pop(j), jrow.pop(i)
        num *= -bij * bji
        s = 1 if bij > 0 else -1
        for r in irow.keys() | jrow.keys():
            x, y = a[r].pop(i, 0), a[r].pop(j, 0)
            m, kj, ki = abs(bij * bji), s * x * abs(bij), s * y * abs(bji)
            g = gcd(m, kj, ki)
            h = _combine(a, r, m // g, ((kj // g, jrow), (ki // g, irow)))
            den, num = den * (m // g), num * h
            heapq.heappush(heap, (len(a[r]), r))
    return sig, _exact(num, den)


def _exact(num: int, den: int) -> int:
    det, rest = divmod(num, den)
    if rest:
        raise AssertionError("determinant of an integer matrix is not an integer")
    return det


def _combine(a: dict[int, dict[int, int]], r: int, m: int,
             terms: tuple[tuple[int, dict[int, int]], ...]) -> int:
    """Replace row r by m * row r minus each k * pivot row; when m > 1,
    divide the result by the gcd of its entries and return that gcd, else
    return 1.  lambda_r gains the factor m and loses the returned one."""
    row = a[r] if m == 1 else {c: m * v for c, v in a[r].items()}
    for k, prow in terms:
        if k:
            for c, v in prow.items():
                w = row.get(c, 0) - k * v
                if w:
                    row[c] = w
                else:
                    del row[c]
    h = gcd(*row.values()) if m > 1 else 1
    if h > 1:
        row = {c: v // h for c, v in row.items()}
    a[r] = row
    return h or 1
