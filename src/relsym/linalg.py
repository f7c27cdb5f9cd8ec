"""Exact rank and kernels by fraction-free elimination.

Bareiss (1968) elimination keeps every entry an integer: each step
multiplies by the current pivot and divides exactly by the previous one, so
entries stay minors of the input instead of growing into fractions.  Rational
input is scaled row by row to integers first, which changes neither the rank
nor the kernel.

``symmetric_rank`` is the same elimination for a symmetric matrix, with
pivots taken down the diagonal in index order.  Each step leaves the
matrix still to be reduced symmetric, so only its upper triangle is
updated: about half the work of ``rank``.  It refuses, rather than guesses
on, a matrix that is not square and symmetric, and a zero diagonal pivot
whose row still has a nonzero entry to its right, which a positive
semidefinite matrix cannot give.  The rank of the orbit blocks of the
exact-rank construction is taken this way; the general ``rank`` is kept
as the reference that the tests compare it with.
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


def symmetric_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of a symmetric integer matrix given as a list of rows, by
    Bareiss elimination with diagonal pivots over the upper triangle.

    A zero pivot whose row is zero is skipped, the previous pivot kept, as
    ``rank`` skips an empty column.  Raises ``ConsistencyError`` for a
    matrix that is not square and symmetric, and for a zero pivot whose row
    is not zero: no positive semidefinite matrix has one, and another
    pivot order would be needed."""
    rows = [list(row) for row in matrix]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ConsistencyError(
            f"the matrix is not square: {n} row(s), of lengths {sorted({len(row) for row in rows})}"
        )
    if list(map(list, zip(*rows))) != rows:
        i, j = next((i, j) for i in range(n) for j in range(i) if rows[i][j] != rows[j][i])
        raise ConsistencyError(
            f"the matrix is not symmetric: entry ({i}, {j}) is {rows[i][j]}, "
            f"entry ({j}, {i}) is {rows[j][i]}"
        )
    prev = 1
    found = 0
    for k, pivot_row in enumerate(rows):
        p = pivot_row[k]
        if p == 0:
            if any(pivot_row[k + 1:]):
                raise ConsistencyError(
                    f"diagonal pivot {k} is zero but its row is not: "
                    "the matrix is not positive semidefinite"
                )
            continue
        for i in range(k + 1, n):
            row = rows[i]
            f = pivot_row[i]  # entry (i, k), which the upper triangle does not keep
            if f == 0 and p == prev:
                continue
            for j in range(i, n):
                q, rem = divmod(row[j] * p - f * pivot_row[j], prev)
                if rem:
                    raise ConsistencyError("inexact division in fraction-free elimination")
                row[j] = q
        prev = p
        found += 1
    return found


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
