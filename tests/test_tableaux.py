import math
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import relsym.tableaux
from oracles import brute_force_kostka, brute_force_tableaux, hook_length_dimension
from relsym.partitions import dominates, enumerate_partitions, multiplicity_factorial
from relsym.characters import _mn_value
from relsym.tableaux import _b, _kostka_column, count_fillings, hook_lengths, kostka


def test_kostka_diagonal_is_one():
    for m in range(1, 8):
        for mu in enumerate_partitions(m):
            assert kostka(mu, mu) == 1


def test_kostka_examples():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((3, 2), (2, 2, 1)) == 2


def test_a_one_row_filling_builds_one_strip():
    # the last row of a strip takes exactly the cells that remain, so a
    # million-cell row is one candidate, not a million
    tracemalloc.start()
    try:
        value = count_fillings((10**6,), (10**6,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 1_000_000


def test_rows_grow_by_what_the_rows_below_cannot_take():
    # the first strip of 500,000 cells has one place, the first row: the
    # second row is bounded by the first row's old length, 0
    tracemalloc.start()
    try:
        value = count_fillings((500_000, 500_000), (500_000, 500_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == 1
    assert peak < 1_000_000


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


def test_brute_force_tableaux_examples():
    examples = {
        ((2,), (1, 1)): [((1, 2),)],
        ((1, 1), (2, 0)): [],
        ((2, 1), (1, 1, 1)): [((1, 2), (3,)), ((1, 3), (2,))],
        ((2, 1), (2, 1)): [((1, 1), (2,))],
    }
    for (shape, content), tableaux in examples.items():
        assert brute_force_tableaux(shape, content) == tableaux
        assert count_fillings(shape, content) == len(tableaux)


def _compositions(m):
    """Every content of weight m with m entries, zeros allowed: each
    partition of m padded with zeros, in every distinct order."""
    return {
        order
        for pi in enumerate_partitions(m)
        for order in permutations(pi + (0,) * (m - len(pi)))
    }


@pytest.mark.parametrize("m", range(1, 7))
def test_count_fillings_counts_the_brute_force_tableaux(m):
    for mu in enumerate_partitions(m):
        for content in _compositions(m):
            assert count_fillings(mu, content) == len(brute_force_tableaux(mu, content))


def test_content_is_walked_largest_part_first(monkeypatch):
    calls = []
    strips = relsym.tableaux._strip_additions

    def counted(*args):
        calls.append(args)
        return strips(*args)

    monkeypatch.setattr(relsym.tableaux, "_strip_additions", counted)
    assert count_fillings((300, 200, 100), (100, 200, 300)) == 1
    assert len(calls) <= 3


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
    assert len(brute_force_tableaux(mu, shuffled)) == kostka(mu, pi)


@pytest.mark.parametrize("m", range(1, 7))
def test_kostka_column_weighted_by_degrees(m):
    # the permutation module on cosets of a Young subgroup has dimension
    # equal to the index; its irreducible pieces are counted by Kostka
    for pi in enumerate_partitions(m):
        total = sum(
            kostka(mu, pi) * hook_length_dimension(mu) for mu in enumerate_partitions(m)
        )
        assert total == math.factorial(m) // multiplicity_factorial(pi)


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
    # every entry lowered by 1; a content fixes the entry sum, so the first
    # tableau found with the contents in order of their entry sums is least
    def entry_sum(content):
        return sum(i * count for i, count in enumerate(content))

    contents = sorted(enumerate_partitions(m), key=entry_sum)
    for pi in enumerate_partitions(m):
        least = next(
            sum(map(sum, tableau)) - m
            for content in contents
            for tableau in brute_force_tableaux(pi, content)
        )
        assert _b(pi) == least
