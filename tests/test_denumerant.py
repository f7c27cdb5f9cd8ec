import importlib
import math
import tracemalloc
from collections import deque
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


def _parts(tail):
    """The parts of the tail 2^b 1^c that the walk gives as (b, c)."""
    b, c = tail
    return (2,) * b + (1,) * c


def _walk(m, d, t=None):
    walk = denumerant_module._solution_walk(m, d, t)
    return [(p + _parts(tail), count) for p, tail, count in walk]


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("m", range(1, 17))
def test_the_solution_walk_runs_through_the_cycle_types_in_order(m, t):
    triples = list(denumerant_module._solution_walk(m, 3, t))
    assert [p + _parts(tail) for p, tail, _ in triples] == list(_cycle_types(m))
    assert all(part > t for p, _, _ in triples for part in p)
    assert all(part <= t for _, tail, _ in triples for part in _parts(tail))


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("m", range(1, 13))
def test_the_solution_walk_counts_each_type_exactly(m, t):
    for d in range(31):
        for lam, count in _walk(m, d, t):
            assert count == denumerant(lam, d), (lam, d)


@pytest.mark.parametrize("t", [1, 2])
def test_the_solution_walk_counts_every_type_of_36_exactly(t):
    pairs = _walk(36, 40, t)
    assert len(pairs) == 17977
    assert all(count == denumerant(lam, 40) for lam, count in pairs)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=60))
@example(1, 0)
@example(2, 60)
@example(16, 0)
@example(16, 60)
def test_the_solution_walk_matches_the_prefix_walk_sweep(m, d):
    # both tail sets on the same inputs: each is the oracle, so each other
    by_ones, by_twos = _walk(m, d, 1), _walk(m, d, 2)
    assert by_ones == list(prefix_walk_class_function(m, d).items())
    assert by_twos == by_ones


@pytest.mark.parametrize("m,d", [(1, 0), (5, 3), (9, 12), (12, 28)])
def test_the_solution_walk_is_the_cached_counts_in_class_order(m, d):
    pairs = _walk(m, d)
    assert [lam for lam, _ in pairs] == list(_cycle_types(m))
    assert tuple(count for _, count in pairs) == denumerant_module._solution_counts(m, d)


def _count_coin_passes(monkeypatch):
    """Patch ``_add_coin`` to count its calls, kept in the returned list."""
    calls = [0]
    add_coin = denumerant_module._add_coin

    def counting(counts, a):
        calls[0] += 1
        add_coin(counts, a)

    monkeypatch.setattr(denumerant_module, "_add_coin", counting)
    return calls


@pytest.mark.parametrize("m,d", [(3, 5), (4, 0), (12, 28), (36, 40)])
def test_coin_passes_with_tails_of_ones(monkeypatch, m, d):
    calls = _count_coin_passes(monkeypatch)
    deque(denumerant_module._solution_walk(m, d, 1), 0)
    # one pass per nonempty P of parts above 1 with |P| <= m - 2, the P with
    # a child; P + 1^(m - 2 - |P|) runs once through the partitions of m - 2,
    # and the table of 1^c is prefix sums alone: p(m - 2) - 1 passes
    assert calls[0] == len(_cycle_types(m - 2)) - 1


@pytest.mark.parametrize("m,d", [(3, 5), (4, 0), (12, 28), (36, 40)])
def test_coin_passes_with_tails_of_twos_and_ones(monkeypatch, m, d):
    calls = _count_coin_passes(monkeypatch)
    deque(denumerant_module._solution_walk(m, d, 2), 0)
    # one pass per nonempty P of parts above 2 with |P| <= m - 2, and
    # P + 1^(m - 2 - |P|) runs once through the partitions of m - 2 with no
    # part 2; the table adds m // 2 passes of the coin 2, for 2^1..2^(m // 2)
    no_twos = sum(1 for lam in _cycle_types(m - 2) if 2 not in lam)
    assert calls[0] == no_twos - 1 + m // 2
    if (m, d) == (36, 40):
        # 3,960 + 18, against p(34) - 1 = 12,309 with tails of ones
        assert calls[0] == 3978


@pytest.mark.parametrize("m,d,passes", [(12, 28, 41 + 12), (36, 40, 3978 + 36)])
def test_the_class_function_walks_once_per_m_and_d(monkeypatch, m, d, passes):
    # the rule takes tails of ones at (12, 28), p(10) - 1 = 41 passes, and
    # of twos and ones at (36, 40), as derived above; to pick them it counts
    # p(m) by one pass per part 1..m, as both tables are under the cap
    calls = _count_coin_passes(monkeypatch)
    denumerant_module._solution_counts.cache_clear()
    denumerant_class_function(m, d)
    assert calls[0] == passes
    # the counts of (m, d) are kept: a second call runs none
    calls[0] = 0
    denumerant_class_function(m, d)
    assert calls[0] == 0


# the sizes the tail rule was set by, with the largest tail part it picks
_TAIL_LIMITS = {
    (36, 40): 2, (36, 38): 2, (50, 5): 2, (64, 5): 2,
    (24, 24): 1, (36, 400): 1, (12, 10**5): 1, (20, 2 * 10**4): 1,
}


def test_the_tail_rule_at_each_size(monkeypatch):
    # the rule alone: no table is built and no size is walked
    monkeypatch.setattr(denumerant_module, "_tail_series", None)
    monkeypatch.setattr(denumerant_module, "_solution_walk", None)
    limits = {size: denumerant_module._tail_limit(*size) for size in _TAIL_LIMITS}
    assert limits == _TAIL_LIMITS


def test_the_tail_rule_is_its_table_size_against_p_of_m_and_the_cap():
    cap = denumerant_module._TAIL_TABLE_CAP
    for m in range(1, 41):
        h = m // 2
        for d in range(0, 100, 3):
            size = (h + 1) * (m + 1 - h) * (d + 1)
            ones = size > len(_walked_partitions(m)) or size > cap
            assert denumerant_module._tail_limit(m, d) == (1 if ones else 2), (m, d)


def test_the_tail_rule_counts_p_of_m_only_where_no_bound_settles_it(monkeypatch):
    # p(m) <= 2^(m - 1): a table larger than that, or than the cap, takes
    # tails of ones without counting p(m)
    counted = []
    partition_count = denumerant_module._partition_count

    def counting(m):
        counted.append(m)
        return partition_count(m)

    monkeypatch.setattr(denumerant_module, "_partition_count", counting)
    cap = denumerant_module._TAIL_TABLE_CAP
    for m in range(1, 41):
        h = m // 2
        for d in range(0, 100, 3):
            size = (h + 1) * (m + 1 - h) * (d + 1)
            counted.clear()
            denumerant_module._tail_limit(m, d)
            assert counted == ([m] if size <= min(cap, 2 ** (m - 1)) else []), (m, d)
    assert not any(denumerant_module._tail_limit(m, d) == 2 for m in range(1, 9) for d in range(13))


@pytest.mark.parametrize("m,d", [(40, 80), (70, 1000), (361, 0)])
def test_the_cap_keeps_tails_of_ones_where_the_rows_would_allow_twos(monkeypatch, m, d):
    # each answer has more rows than the table of 2^b 1^c would have
    # numbers, but that table is over the cap, so the rule takes 1^c
    h = m // 2
    size = (h + 1) * (m + 1 - h) * (d + 1)
    assert denumerant_module._TAIL_TABLE_CAP < size <= denumerant_module._partition_count(m)
    # past the cap p(m) is not counted
    monkeypatch.setattr(denumerant_module, "_partition_count", None)
    assert denumerant_module._tail_limit(m, d) == 1


def test_the_largest_table_the_cap_lets_through_stays_under_8_mb():
    # at d = 0 each series is one number, so the most series: (181)^2 at
    # m = 360, where p(m) is far above the cap
    assert denumerant_module._tail_limit(360, 0) == 2
    assert denumerant_module._tail_limit(362, 0) == 1
    tracemalloc.start()
    try:
        denumerant_module._tail_series(360, 0, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_the_table_at_1000_0_stays_under_1_mb():
    # the tails of ones, one one-number series per row, at the rule's t
    tracemalloc.start()
    try:
        rows = denumerant_module._tail_series(1000, 0, denumerant_module._tail_limit(1000, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, rows)) == 1000 - 3 + 1  # rows 2..m - 2 and m
    assert peak < 1_000_000


def test_every_small_m_keeps_tails_of_ones():
    # (h + 1)(m + 1 - h) series already outnumber the p(m) rows at m <= 8,
    # so no d picks the tails of twos there: cli-small and lib-sweep sizes
    for m in range(1, 9):
        h = m // 2
        assert (h + 1) * (m + 1 - h) > len(_walked_partitions(m))
        assert denumerant_module._tail_limit(m, 0) == 1


def test_the_partition_count_is_the_number_of_partitions():
    for m in range(1, 31):
        assert denumerant_module._partition_count(m) == len(_walked_partitions(m))


@pytest.mark.parametrize("t", [1, 2])
@pytest.mark.parametrize("m,d", [(1, 4), (2, 3), (3, 0), (5, 6), (9, 7), (16, 12)])
def test_the_tail_table_holds_only_the_rows_the_walk_reads(m, d, t):
    rows = denumerant_module._tail_series(m, d, t)
    assert len(rows) == m + 1
    for r, row in enumerate(rows):
        tails = [_parts(tail) for tail, _ in row]
        if r == m:
            # the root's A is 1, 0, 0, ...: each series keeps its entry d
            assert tails == [lam for lam in _cycle_types(m) if lam[0] <= t]
            assert [series for _, series in row] == [[denumerant(lam, d)] for lam in tails]
        elif 2 <= r < m - t:
            # the sizes m - |P| of the P of parts above t that have a pass
            assert tails == [lam for lam in _cycle_types(r) if lam[0] <= t]
            for lam, (_, series) in zip(tails, row):
                assert series == _denumerant_counts(lam, d)[::-1]
        else:
            # r < 2 leaves no room for a child, and no P of parts above t
            # has size 1..t: rows m - t..m - 1 are never read
            assert not row, r


def test_the_walk_at_36_40_stays_under_1_mb():
    tracemalloc.start()
    try:
        deque(denumerant_module._solution_walk(36, 40), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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
