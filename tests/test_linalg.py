import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import fraction_matrix_rank
from relsym.errors import ConsistencyError
from relsym.linalg import kernel, symmetric_rank

_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


def _assert_kernel_basis(matrix, n_cols):
    """``kernel`` of the integer ``matrix``: one primitive int vector per
    free column, positive there and 0 in the other free columns, that
    annihilates every row; so each spans the line with a 1 in its own free
    column and 0 in the others, as the kernel's basis does over the rationals."""
    vectors = kernel(matrix, n_cols)
    # a column is free when it does not raise the rank of the columns before it
    free = [
        c
        for c in range(n_cols)
        if fraction_matrix_rank([row[: c + 1] for row in matrix])
        == fraction_matrix_rank([row[:c] for row in matrix])
    ]
    assert len(vectors) == n_cols - fraction_matrix_rank(matrix) == len(free)
    for vec, own in zip(vectors, free):
        assert all(type(x) is int for x in vec)
        assert math.gcd(*vec) == 1
        assert vec[own] > 0
        assert all(vec[c] == 0 for c in free if c != own)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in matrix)
    return vectors


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.tuples(
            st.just(shape[1]),
            st.lists(
                st.lists(_entries, min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ),
            st.fractions(min_value=1, max_value=3, max_denominator=3),
        )
    )
)
def test_kernel_is_a_basis_of_the_null_space(data):
    n_cols, matrix, last = data
    # one row whose pivot sits in the last column, with nothing to its right
    matrix = matrix + [[Fraction(0)] * (n_cols - 1) + [last]]
    # each row times the lcm of its denominators: the same kernel, in ints
    scales = [math.lcm(*(x.denominator for x in row)) for row in matrix]
    _assert_kernel_basis([[int(x * s) for x in row] for row, s in zip(matrix, scales)], n_cols)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 11), st.integers(1, 8)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-50, 50), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        ).map(lambda rows: (rows, shape[1]))
    )
)
def test_kernel_of_an_integer_matrix_with_large_pivots(case):
    # pivots of either sign and far from 1, as the shifted class-matrix probes give
    _assert_kernel_basis(*case)


@pytest.mark.parametrize("matrix, n_cols, expected", [
    ([], 2, [(1, 0), (0, 1)]),
    ([[0, 0], [0, 0]], 2, [(1, 0), (0, 1)]),
    ([[1, 2], [2, 4]], 2, [(-2, 1)]),
    ([[0, 1], [1, 0]], 2, []),
    # a duplicate row and a zero row
    ([[2, -3, 4], [0, 0, 0], [2, -3, 4]], 3, [(3, 2, 0), (-2, 0, 1)]),
    # a negative pivot whose entry the back-substitution must scale up to divide
    ([[-4, 6, 0, 2], [0, 0, 0, 0], [2, 1, 3, -1], [-4, 6, 0, 2]], 4,
     [(-9, -6, 8, 0), (1, 0, 0, 2)]),
    ([[0, 6, 4, -9], [0, -4, 2, 3]], 4, [(1, 0, 0, 0), (0, 15, 9, 14)]),
    # in the Gram matrix A^T A, a zero pivot over a zero row follows a nonzero
    # one, and the next nonzero pivot divides by that earlier pivot
    ([[1, 0, 2], [3, 0, 1]], 3, [(0, 1, 0)]),
    ([[0, 2, 0, 4, 1], [0, -1, 0, -2, 3]], 5,
     [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, -2, 0, 1, 0)]),
], ids=["no-rows", "zero", "rank-one", "full-rank", "repeated-and-zero-rows",
        "negative-pivot", "free-first-column", "zero-column-between-pivots",
        "zero-and-doubled-columns"])
def test_kernel_structured_cases(matrix, n_cols, expected):
    assert _assert_kernel_basis(matrix, n_cols) == expected


def test_kernel_with_duplicate_and_zero_rows():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        matrix = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        if rows > 2:  # rank deficiency: the last row repeats the first, row 1 is zero
            matrix[-1] = matrix[0][:]
            matrix[1] = [0] * cols
        _assert_kernel_basis(matrix, cols)


def _gram(a):
    """A^T A for the rows of A over n columns: symmetric positive semidefinite,
    of the rank of A."""
    n = len(a[0])
    return [[sum(row[i] * row[j] for row in a) for j in range(n)] for i in range(n)]


def _ldlt(lower, diagonal):
    """L D L^T for L unit lower triangular with the given entries below the
    diagonal, row by row: symmetric, and its k-th diagonal pivot is zero
    exactly when d_k is, with a zero row to its right."""
    n = len(diagonal)
    entries = iter(lower)
    unit = [[next(entries) if j < i else int(j == i) for j in range(n)] for i in range(n)]
    return [
        [sum(unit[i][t] * diagonal[t] * unit[j][t] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


_small = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.one_of(
            # Gram matrices of 0 to n + 1 rows: every rank from 0 to n
            st.integers(0, n + 1).flatmap(
                lambda r: st.lists(
                    st.lists(_small, min_size=n, max_size=n), min_size=r, max_size=r
                ).map(lambda a: (_gram(a or [[0] * n]), None))
            ),
            # indefinite ones, whose nonzero pivots are the nonzero d_k
            st.tuples(
                st.lists(_small, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
                st.lists(_small, min_size=n, max_size=n),
            ).map(lambda ld: (_ldlt(*ld), sum(map(bool, ld[1])))),
        )
    )
)
def test_symmetric_rank_equals_the_rational_rank(case):
    matrix, expected = case
    before = [row[:] for row in matrix]
    found = symmetric_rank(matrix)
    assert matrix == before
    assert found == fraction_matrix_rank(matrix)
    if expected is not None:
        assert found == expected


@pytest.mark.parametrize("matrix, message", [
    ([[0, 1], [1, 0]],
     "diagonal pivot 0 is zero but its row is not: the matrix is not positive semidefinite"),
    ([[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # pivot 1 is zero after the first step
     "diagonal pivot 1 is zero but its row is not: the matrix is not positive semidefinite"),
    ([[2, 1], [3, 2]], "the matrix is not symmetric: entry (1, 0) is 3, entry (0, 1) is 1"),
    ([[1, 2]], "the matrix is not square: 1 row(s), of lengths [2]"),
    ([[1, 0], [0]], "the matrix is not square: 2 row(s), of lengths [1, 2]"),
], ids=["swap", "later-zero-pivot", "asymmetric", "wide", "ragged"])
def test_symmetric_rank_refuses_what_it_cannot_rank_by_diagonal_pivots(matrix, message):
    with pytest.raises(ConsistencyError) as raised:
        symmetric_rank(matrix)
    assert str(raised.value) == message


def test_symmetric_rank_skips_a_zero_pivot_over_a_zero_row():
    assert symmetric_rank([]) == 0
    assert symmetric_rank([[0]]) == 0
    # the zero pivot of index 1 is skipped and pivot 2 divides by pivot 0
    assert symmetric_rank([[2, 0, 2], [0, 0, 0], [2, 0, 5]]) == 2
    assert symmetric_rank([[1, 1, 1], [1, 1, 1], [1, 1, 3]]) == 2
