import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_kostka, hook_length_dimension
from relsym.partitions import dominates, enumerate_partitions, multiplicity_factorial
from relsym.characters import _mn_value
from relsym.tableaux import (
    Tableau,
    _b,
    _kostka_column,
    count_fillings,
    enumerate_ssyt,
    hook_lengths,
    kostka,
)


def test_kostka_diagonal_is_one():
    for m in range(1, 8):
        for mu in enumerate_partitions(m):
            assert kostka(mu, mu) == 1


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (2, 2, 1)) == 2


def test_kostka_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (2, 2))


@pytest.mark.parametrize("m", range(1, 7))
def test_kostka_matches_brute_force(m):
    for mu in enumerate_partitions(m):
        for pi in enumerate_partitions(m):
            assert kostka(mu, pi) == brute_force_kostka(mu, pi)


@pytest.mark.parametrize("m", range(0, 10))
def test_kostka_columns_match_per_shape_fillings(m):
    partitions = enumerate_partitions(m)
    for mu in partitions:
        for pi in partitions:
            assert kostka(mu, pi) == count_fillings(mu, pi)


@pytest.mark.parametrize("m", range(0, 10))
def test_kostka_column_is_the_nonzero_fillings(m):
    partitions = enumerate_partitions(m)
    for pi in partitions:
        fillings = {mu: count_fillings(mu, pi) for mu in partitions}
        assert _kostka_column(pi) == {mu: k for mu, k in fillings.items() if k}


def test_single_kostka_does_not_build_the_column():
    before = _kostka_column.cache_info().currsize
    assert kostka((30,), (1,) * 30) == 1
    assert _kostka_column.cache_info().currsize == before


@pytest.mark.parametrize("m", range(1, 8))
def test_kostka_positive_iff_dominates(m):
    for mu in enumerate_partitions(m):
        for pi in enumerate_partitions(m):
            assert (kostka(mu, pi) > 0) == dominates(mu, pi)


def test_enumerate_ssyt_examples():
    only = enumerate_ssyt((2,), (1, 1))
    assert [t.rows for t in only] == [((1, 2),)]
    assert enumerate_ssyt((1, 1), (2, 0)) == []
    two = enumerate_ssyt((2, 1), (1, 1, 1))
    assert len(two) == 2


def test_enumerate_ssyt_output_is_valid_and_sorted():
    for mu in enumerate_partitions(5):
        for pi in enumerate_partitions(5):
            tableaux = enumerate_ssyt(mu, pi)
            assert len(tableaux) == kostka(mu, pi)
            words = [t.reading_word() for t in tableaux]
            assert words == sorted(words)
            assert len(set(words)) == len(words)
            for t in tableaux:
                assert t.shape == mu
                assert t.is_semistandard()
                assert t.content() == pi


@st.composite
def shape_and_content(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    shapes = enumerate_partitions(m)
    mu = shapes[draw(st.integers(min_value=0, max_value=len(shapes) - 1))]
    pis = enumerate_partitions(m)
    pi = pis[draw(st.integers(min_value=0, max_value=len(pis) - 1))]
    padded = list(pi) + [0] * (m - len(pi))
    shuffled = draw(st.permutations(padded))
    return mu, pi, tuple(shuffled)


@settings(max_examples=60, deadline=None)
@given(shape_and_content())
def test_content_permutation_invariance(data):
    mu, pi, shuffled = data
    assert count_fillings(mu, shuffled) == kostka(mu, pi)
    assert len(enumerate_ssyt(mu, shuffled)) == kostka(mu, pi)


@pytest.mark.parametrize("m", range(1, 7))
def test_kostka_column_weighted_by_degrees(m):
    # the permutation module on cosets of a Young subgroup has dimension
    # equal to the index; its irreducible pieces are counted by Kostka
    for pi in enumerate_partitions(m):
        total = sum(
            kostka(mu, pi) * hook_length_dimension(mu) for mu in enumerate_partitions(m)
        )
        assert total == math.factorial(m) // multiplicity_factorial(pi)


def test_tableau_entry_access():
    t = enumerate_ssyt((2, 1), (2, 1))[0]
    assert t.entry(1, 1) == 1
    assert t.entry(1, 2) == 1
    assert t.entry(2, 1) == 2


def test_enumerate_ssyt_takes_many_values():
    assert len(enumerate_ssyt((1000,), (1,) * 1000)) == 1


def _hooks_by_counting(pi):
    cells = {(i, j) for i, part in enumerate(pi) for j in range(part)}
    return tuple(
        1 + sum(1 for (r, c) in cells if (r == i and c > j) or (c == j and r > i))
        for i, part in enumerate(pi)
        for j in range(part)
    )


def test_hook_length_examples():
    assert hook_lengths((3, 2, 1)) == (5, 3, 1, 3, 1, 1)
    assert hook_lengths([4]) == (4, 3, 2, 1)
    assert hook_lengths(()) == ()
    with pytest.raises(ValueError):
        hook_lengths((1, 2))


@pytest.mark.parametrize("m", range(1, 11))
def test_hook_lengths_count_arm_leg_and_cell(m):
    for pi in enumerate_partitions(m):
        hooks = hook_lengths(pi)
        assert hooks == _hooks_by_counting(pi)
        # Frame-Robinson-Thrall: the degree of chi^pi, here from its character value
        assert math.factorial(m) // math.prod(hooks) == _mn_value(pi, (1,) * m)


@pytest.mark.parametrize("m", range(1, 9))
def test_b_is_the_least_entry_sum_of_a_tableau_from_zero(m):
    # over the semistandard tableaux of shape pi with a partition as content,
    # every entry lowered by 1
    for pi in enumerate_partitions(m):
        least = min(
            sum(tableau.reading_word()) - m
            for content in enumerate_partitions(m)
            for tableau in enumerate_ssyt(pi, content)
        )
        assert _b(pi) == least
