from fractions import Fraction

from hypothesis import given, settings, strategies as st

from oracles import fraction_matrix_rank
from relsym.linalg import kernel

_entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


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
        assert all(isinstance(x, Fraction) for x in vec)
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in matrix)
        assert [vec[c] for c in free] == [int(c == own) for c in free]
