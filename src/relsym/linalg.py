"""Exact rank and kernels by one fraction-free elimination.

Bareiss (1968) elimination keeps every entry an integer: each step
multiplies by the current pivot and divides exactly by the previous one, so
entries stay minors of the input instead of growing into fractions.  Rational
input is scaled row by row to integers first, which changes neither the rank
nor the kernel.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from numbers import Rational

from .errors import ConsistencyError


def _echelon(rows: list[list[int]], n_cols: int) -> list[int]:
    """Reduce an integer matrix in place to row echelon form; returns the
    pivot column of each nonzero row, in row order.  Pivots are the first
    nonzero entry per column, and every division is exact."""
    n_rows = len(rows)
    prev = 1
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        piv = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(r + 1, n_rows):
            row = rows[i]
            f = row[c]
            if f == 0 and p == prev:
                continue
            for j in range(c + 1, n_cols):
                num = row[j] * p - f * pivot_row[j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ConsistencyError("inexact division in fraction-free elimination")
                row[j] = q
            row[c] = 0
        prev = p
        pivots.append(c)
        r += 1
    return pivots


def rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix given as a list of equal-length rows."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    return len(_echelon(rows, len(rows[0])))


def kernel(matrix: Sequence[Sequence[Rational]], n_cols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel of a rational matrix with ``n_cols``
    columns: one vector per non-pivot column, with a 1 in that column and 0
    in every other non-pivot column, in column order."""
    rows = []
    for row in matrix:
        scale = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = _echelon(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        for k in reversed(range(len(pivots))):
            c = pivots[k]
            row = rows[k]
            vec[c] = Fraction(-sum(row[j] * vec[j] for j in range(c + 1, n_cols)), row[c])
        basis.append(tuple(vec))
    return basis
