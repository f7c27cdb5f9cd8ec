"""Exact rank and kernels by fraction-free elimination.

Bareiss (1968) elimination keeps every entry an integer: each step
multiplies by the current pivot and divides exactly by the previous one, so
entries stay minors of the input instead of growing into quotients.  The
kernel is solved back from the echelon form in integers too, and comes out
as primitive integer vectors.

``symmetric_rank`` is the same elimination for a symmetric matrix, with
pivots taken down the diagonal in index order.  Each step leaves the
matrix still to be reduced symmetric, so only its upper triangle is
updated: about half the work of general elimination.  It refuses, rather
than guesses on, a matrix that is not square and symmetric, and a zero
diagonal pivot whose row still has a nonzero entry to its right, which a
positive semidefinite matrix cannot give.  The rank of the orbit blocks of
the exact-rank construction is taken this way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

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


def symmetric_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of a symmetric integer matrix given as a list of rows, by
    Bareiss elimination with diagonal pivots over the upper triangle.

    A zero pivot whose row is zero is skipped, the previous pivot kept, as
    ``_echelon`` skips an empty column.  Raises ``ConsistencyError`` for a
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


def kernel(matrix: Sequence[Sequence[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of an integer matrix with ``n_cols``
    columns: one primitive integer vector per non-pivot column, positive in
    that column and 0 in every other non-pivot column, in column order.
    Each pivot entry is solved in integers: the vector is first scaled by
    the least positive factor that lets the pivot divide the entry's
    numerator, and the entry is prime to that factor, so the vector stays
    primitive."""
    rows = [list(row) for row in matrix]
    pivots = _echelon(rows, n_cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [0] * n_cols
        vec[free] = 1
        for c, row in reversed(list(zip(pivots, rows))):
            p = row[c]
            num = -sum(row[j] * vec[j] for j in range(c + 1, n_cols))
            scale = abs(p) // math.gcd(num, p)
            vec = [x * scale for x in vec]
            vec[c] = num * scale // p
        basis.append(tuple(vec))
    return basis
