import importlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    brute_force_denumerant,
    brute_force_orbit_types,
    denumerant_series,
    hook_length_dimension,
    literal_induced_class_function,
    orbit_sum_by_assignment,
    prefix_walk_class_function,
    verify_trace_identity,
)
from relsym.characters import (
    ClassFunction,
    _cycle_types,
    character_table,
    class_function_from_decomposition,
)
from relsym.denumerant import (
    _denumerant_counts,
    denumerant,
    denumerant_class_function,
    denumerant_decomposition,
    hook_decomposition,
)
from relsym.partitions import (
    _orbit_types,
    _walked_partitions,
    enumerate_partitions,
    gamma_size,
)

# the package re-exports the function denumerant under the module's name
denumerant_module = importlib.import_module("relsym.denumerant")


def _trivial(m):
    return ClassFunction(m, dict.fromkeys(_cycle_types(m), 1))


def test_denumerant_examples():
    assert denumerant((1, 1), 5) == 6
    assert denumerant((1, 2), 4) == 3
    assert denumerant((3, 2, 1), 5) == 5
    assert denumerant((2, 4), 3) == 0
    assert denumerant((7,), 0) == 1


def test_denumerant_rejects_bad_input():
    with pytest.raises(ValueError):
        denumerant((), 3)
    with pytest.raises(ValueError):
        denumerant((1, 0), 3)
    with pytest.raises(ValueError):
        denumerant((1, 2), -1)


coin_systems = st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=6)


@settings(max_examples=80, deadline=None)
@given(coin_systems, st.integers(min_value=0, max_value=40))
def test_denumerant_matches_brute_force(coins, d):
    assert denumerant(coins, d) == brute_force_denumerant(coins, d)


@settings(max_examples=40, deadline=None)
@given(coin_systems, st.permutations(range(6)))
def test_denumerant_coin_order_irrelevant(coins, order):
    shuffled = [coins[i % len(coins)] for i in order[: len(coins)]]
    reordered = sorted(coins)
    assert denumerant(coins, 17) == denumerant(reordered, 17)
    assert denumerant(sorted(coins, reverse=True), 17) == denumerant(coins, 17)


def test_series_examples():
    assert denumerant_series((1,), 4) == [1, 1, 1, 1, 1]
    assert denumerant_series((1, 2), 5) == [1, 1, 2, 2, 3, 3]
    assert denumerant_series((2, 3), 6) == [1, 0, 1, 1, 1, 1, 2]


@settings(max_examples=30, deadline=None)
@given(coin_systems, st.integers(min_value=0, max_value=200))
def test_series_agrees_with_single_counts(coins, d_max):
    series = denumerant_series(coins, d_max)
    assert len(series) == d_max + 1
    for d in range(0, d_max + 1, max(1, d_max // 10)):
        assert series[d] == denumerant(coins, d)


def test_class_function_examples():
    q = denumerant_class_function(3, 2)
    assert {lam: int(v) for lam, v in q.values.items()} == {
        (1, 1, 1): 6,
        (2, 1): 2,
        (3,): 0,
    }
    assert denumerant_class_function(4, 0) == _trivial(4)
    q41 = denumerant_class_function(4, 1)
    for lam in enumerate_partitions(4):
        assert q41.values[lam] == sum(1 for part in lam if part == 1)


def test_class_function_checks_the_degree_of_a_cycle_type():
    q = denumerant_class_function(3, 2)
    assert q([2, 1]) == 2
    # a cycle type of another degree once raised KeyError
    with pytest.raises(ValueError) as info:
        q((2,))
    assert str(info.value) == "(2,) is a partition of 2, not 3"


@pytest.mark.parametrize("m,d", [(1, 0), (1, 7), (3, 2), (4, 3), (5, 4)])
def test_trace_identity_small(m, d):
    assert verify_trace_identity(m, d, denumerant_class_function(m, d).values)


def test_trace_identity_oracle_rejects_a_wrong_count():
    values = dict(denumerant_class_function(4, 3).values)
    values[(2, 2)] += 1
    assert not verify_trace_identity(4, 3, values)


def test_trailing_ones_match_the_prefix_walk():
    for m in range(1, 15):
        for d in range(0, 31):
            assert denumerant_class_function(m, d).values == prefix_walk_class_function(m, d)
    assert denumerant_class_function(36, 40).values == prefix_walk_class_function(36, 40)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=60))
@example(1, 0)
@example(1, 60)
@example(16, 0)
def test_trailing_ones_match_the_prefix_walk_sweep(m, d):
    assert denumerant_class_function(m, d).values == prefix_walk_class_function(m, d)


def _walk(m, d):
    return [(p + (1,) * k, count) for p, k, count in denumerant_module._solution_walk(m, d)]


@pytest.mark.parametrize("m", range(1, 17))
def test_the_solution_walk_runs_through_the_cycle_types_in_order(m):
    triples = list(denumerant_module._solution_walk(m, 3))
    assert [p + (1,) * k for p, k, _ in triples] == list(_cycle_types(m))
    assert all(part > 1 for p, _, _ in triples for part in p)


@pytest.mark.parametrize("m", range(1, 13))
def test_the_solution_walk_counts_each_type_exactly(m):
    for d in range(31):
        for lam, count in _walk(m, d):
            assert count == denumerant(lam, d), (lam, d)


def test_the_solution_walk_counts_every_type_of_36_exactly():
    pairs = _walk(36, 40)
    assert len(pairs) == 17977
    assert all(count == denumerant(lam, 40) for lam, count in pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=60))
@example(1, 0)
@example(2, 60)
@example(16, 0)
@example(16, 60)
def test_the_solution_walk_matches_the_prefix_walk_sweep(m, d):
    pairs = _walk(m, d)
    assert pairs == list(prefix_walk_class_function(m, d).items())


@pytest.mark.parametrize("m,d", [(1, 0), (5, 3), (9, 12), (12, 28)])
def test_the_solution_walk_is_the_cached_counts_in_class_order(m, d):
    pairs = _walk(m, d)
    assert [lam for lam, _ in pairs] == list(_cycle_types(m))
    assert tuple(count for _, count in pairs) == denumerant_module._solution_counts(m, d)


@pytest.mark.parametrize("m,d", [(3, 5), (4, 0), (12, 28), (36, 40)])
def test_one_coin_pass_per_cycle_type_with_room_for_a_part_above_1(monkeypatch, m, d):
    calls = 0
    add_coin = denumerant_module._add_coin

    def counting(counts, a):
        nonlocal calls
        calls += 1
        add_coin(counts, a)

    monkeypatch.setattr(denumerant_module, "_add_coin", counting)
    denumerant_module._solution_counts.cache_clear()
    denumerant_class_function(m, d)
    # one pass per nonempty P of parts above 1 with |P| <= m - 2, and
    # P + 1^(m - 2 - |P|) runs once through the partitions of m - 2:
    # p(m - 2) - 1 passes
    assert calls == len(_cycle_types(m - 2)) - 1
    # the counts of (m, d) are kept: a second call runs none
    calls = 0
    denumerant_class_function(m, d)
    assert calls == 0


def _by_assignment(m, d):
    """Young's rule read numerically: the orbit types counted by brute
    force, each weighted by its count of cycle-to-block assignments."""
    return orbit_sum_by_assignment(m, brute_force_orbit_types(m, d).items())


def test_induced_route_examples():
    assert _by_assignment(3, 2) == denumerant_class_function(3, 2).values
    assert _by_assignment(2, 1) == {(2,): 0, (1, 1): 2}
    for m in (1, 2, 4):
        assert _by_assignment(m, 0) == _trivial(m).values


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("d", range(0, 7))
def test_literal_route_matches_collapsed(m, d):
    collapsed = denumerant_class_function(m, d)
    assert collapsed.values == literal_induced_class_function(m, d)


def test_decomposition_examples():
    assert denumerant_decomposition(3, 2) == {(3,): 2, (2, 1): 2, (1, 1, 1): 0}
    assert denumerant_decomposition(3, 3) == {(3,): 3, (2, 1): 3, (1, 1, 1): 1}
    for m in (1, 2, 5):
        decomposition = denumerant_decomposition(m, 0)
        assert decomposition[(m,)] == 1
        assert all(v == 0 for pi, v in decomposition.items() if pi != (m,))


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("d", range(0, 9))
def test_three_routes_agree(m, d):
    by_counting = denumerant_class_function(m, d)
    multiplicities = denumerant_decomposition(m, d)
    by_decomposition = class_function_from_decomposition(m, multiplicities)
    assert by_counting == by_decomposition
    by_assignment = _by_assignment(m, d)
    for lam in enumerate_partitions(m):
        assert by_counting.values[lam] == by_assignment[lam] == denumerant(lam, d)


def test_decomposition_rejects_a_partition_of_another_weight():
    with pytest.raises(ValueError, match="partition of 2, not 3"):
        class_function_from_decomposition(3, {(2,): 1})


@pytest.mark.parametrize("mult, message", [
    # 1.5 once gave an inexact class function, and "x" a TypeError from +=
    (1.5, "the multiplicity of (2, 1) must be an integer, got 1.5"),
    ("x", "the multiplicity of (2, 1) must be an integer, got 'x'"),
])
def test_decomposition_rejects_a_multiplicity_that_is_not_an_integer(mult, message):
    with pytest.raises(ValueError) as info:
        class_function_from_decomposition(3, {(3,): 1, (2, 1): mult})
    assert str(info.value) == message


def test_returned_values_do_not_reach_the_shared_caches():
    decomposition = denumerant_decomposition(4, 3)
    values = denumerant_class_function(4, 3).values
    expected = (dict(decomposition), dict(values))
    decomposition[(4,)] += 100
    decomposition.clear()
    values[(4,)] += 100
    values.clear()
    assert denumerant_decomposition(4, 3) == expected[0] == hook_decomposition(4, 3)
    assert denumerant_class_function(4, 3).values == expected[1]
    assert expected[1] == {lam: denumerant(lam, 3) for lam in _cycle_types(4)}


@pytest.mark.parametrize("first, second", [(True, 1), (1, True)])
def test_a_bool_m_does_not_key_the_caches(first, second):
    for cache in (
        _walked_partitions, denumerant_module._solution_counts, denumerant_module._young_decomposition
    ):
        cache.cache_clear()
    for m in (first, second):
        for out in (denumerant_class_function(m, 2), class_function_from_decomposition(m, {(1,): 1})):
            assert type(out.m) is int and out.m == 1
            assert [type(part) for lam in out.values for part in lam] == [int]
        for out in (denumerant_decomposition(m, 2), hook_decomposition(m, 2), character_table(m)):
            assert [type(part) for lam in out for part in lam] == [int]


@pytest.mark.parametrize("m,d", [(12, 28), (10, 30)])
def test_three_routes_agree_at_larger_sizes(m, d):
    by_counting = denumerant_class_function(m, d)
    by_decomposition = class_function_from_decomposition(m, denumerant_decomposition(m, d))
    assert by_counting == by_decomposition
    # the types from the library: by brute force they would take every
    # multiset of m exponents from 0..d; tests/test_partitions.py checks them
    assert by_counting.values == orbit_sum_by_assignment(m, _orbit_types(m, d))


def test_prefix_shared_class_function_matches_per_class_counts():
    values = denumerant_class_function(20, 30).values
    for lam in enumerate_partitions(20):
        assert values[lam] == denumerant(lam, 30) == denumerant_series(lam, 30)[30]


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("d", range(0, 11))
def test_decomposition_shape(m, d):
    multiplicities = denumerant_decomposition(m, d)
    assert all(v >= 0 for v in multiplicities.values())
    # the trivial multiplicity counts the orbits
    assert multiplicities[(m,)] == len(enumerate_partitions(d, max_length=m))
    # total dimension is the number of monomials
    table = character_table(m)
    identity = (1,) * m
    total = sum(v * table[pi][identity] for pi, v in multiplicities.items())
    assert total == gamma_size(m, d)


@settings(max_examples=30, deadline=None)
@given(coin_systems, st.integers(min_value=0, max_value=200))
def test_counts_for_every_amount_equal_the_series(coins, d_max):
    assert _denumerant_counts(coins, d_max) == denumerant_series(coins, d_max)


@pytest.mark.parametrize("m", range(1, 10))
def test_hook_decomposition_is_the_kostka_decomposition(m):
    for d in range(13):
        hooks = hook_decomposition(m, d)
        assert list(hooks.items()) == list(denumerant_decomposition(m, d).items())


@pytest.mark.parametrize("m,d", [(1, 0), (5, 0), (8, 30), (16, 30), (30, 12)])
def test_hook_multiplicities_weighted_by_degrees_fill_gamma(m, d):
    # sum over pi of f^pi * mult_pi = C(d + m - 1, m - 1)
    total = sum(
        hook_length_dimension(pi) * mult for pi, mult in hook_decomposition(m, d).items()
    )
    assert total == gamma_size(m, d)


@pytest.mark.parametrize("m,d", [(0, 3), (3, -1), (0, -1)])
def test_hook_decomposition_checks_like_the_kostka_route(m, d):
    with pytest.raises(ValueError) as hooks:
        hook_decomposition(m, d)
    with pytest.raises(ValueError) as kostka:
        denumerant_decomposition(m, d)
    assert str(hooks.value) == str(kostka.value)
