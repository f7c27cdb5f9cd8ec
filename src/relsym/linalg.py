"""Exact rank and kernels by one fraction-free elimination.

Bareiss (1968) elimination keeps every entry an integer: each step
multiplies by the current pivot and divides exactly by the previous one, so
entries stay minors of the input instead of growing into quotients.  Here
it runs on a symmetric matrix with pivots down the diagonal in index order.
Each step leaves the matrix still to be reduced symmetric, so only its
upper triangle is updated: about half the work of general elimination.
The rank of the orbit blocks of the exact-rank construction is taken this
way.

``kernel`` runs the same elimination on the Gram matrix AᵀA of its input A.
Ax = 0 exactly when xᵀAᵀAx = |Ax|² = 0, so A and AᵀA have one kernel, and
AᵀA is positive semidefinite, so no pivot of it is refused.  Its pivot at
column k, when the pivots so far are at columns S, is the Gram determinant
of A's columns S and k: zero exactly when column k lies in the span of the
columns before it.  So the nonzero pivots fall on A's echelon pivot
columns, and the kernel is solved back from their rows in integers, as
primitive integer vectors.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from operator import mul

from .errors import ConsistencyError


def _reduce_symmetric(rows: list[list[int]]) -> list[int]:
    """Reduce a symmetric integer matrix in place by Bareiss elimination
    with diagonal pivots over the upper triangle; returns the indices of
    its nonzero pivots.  Row k then holds pivot k's reduced row from column
    k on.  A zero pivot whose row is zero is skipped, the previous pivot
    kept.  Raises ``ConsistencyError`` for a matrix that is not square and
    symmetric, and for a zero pivot whose row is not zero: no positive
    semidefinite matrix has one, and another pivot order would be needed."""
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
    pivots: list[int] = []
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
            if prev == 1:  # division by 1 is exact
                for j in range(i, n):
                    row[j] = row[j] * p - f * pivot_row[j]
                continue
            for j in range(i, n):
                q, rem = divmod(row[j] * p - f * pivot_row[j], prev)
                if rem:
                    raise ConsistencyError("inexact division in fraction-free elimination")
                row[j] = q
        prev = p
        pivots.append(k)
    return pivots


def symmetric_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank of a symmetric integer matrix given as a list of rows: the
    number of nonzero pivots that ``_reduce_symmetric`` finds."""
    return len(_reduce_symmetric([list(row) for row in matrix]))


def kernel(matrix: Sequence[Sequence[int]], n_cols: int) -> list[tuple[int, ...]]:
    """Basis of the right kernel of an integer matrix A with ``n_cols``
    columns: one primitive integer vector per non-pivot column, positive in
    that column and 0 in every other non-pivot column, in column order.
    It is the kernel of the Gram matrix AᵀA, reduced by the elimination of
    ``symmetric_rank``; the nonzero pivots of AᵀA are A's echelon pivot
    columns.  Each pivot entry is solved in integers from its pivot row:
    the vector is first scaled by the least positive factor that lets the
    pivot divide the entry's numerator, and the entry is prime to that
    factor, so the vector stays primitive."""
    cols = [[row[c] for row in matrix] for c in range(n_cols)]
    gram = [[0] * n_cols for _ in range(n_cols)]
    for i, col in enumerate(cols):
        for j in range(i, n_cols):
            gram[i][j] = gram[j][i] = sum(map(mul, col, cols[j]))
    pivots = _reduce_symmetric(gram)
    pivot_set = set(pivots)
    basis = []
    for free in range(n_cols):
        if free in pivot_set:
            continue
        vec = [0] * n_cols
        vec[free] = 1
        for c in reversed(pivots):
            row = gram[c]
            p = row[c]
            num = -sum(row[j] * vec[j] for j in range(c + 1, n_cols))
            scale = abs(p) // math.gcd(num, p)
            vec = [x * scale for x in vec]
            vec[c] = num * scale // p
        basis.append(tuple(vec))
    return basis
