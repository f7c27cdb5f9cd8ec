import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import _partitions_desc, brute_force_orbit_types, streamed_orbit_types
from relsym.characters import character_table
from relsym.config import use_limits
from relsym.denumerant import denumerant
from relsym.errors import ResourceLimitError
from relsym.partitions import (
    _class_size,
    _cycle_types,
    _orbit_types,
    _partition_walk,
    _walked_partitions,
    check_partition,
    dominates,
    enumerate_gamma,
    enumerate_partitions,
    gamma_size,
    multiplicity_factorial,
    multiplicity_partition,
    orbit_representatives,
    orbit_type_counts,
)
from relsym.symmetrizer import dimension_by_rank, sn_character_spec
from relsym.tableaux import count_fillings, kostka


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    assert check_partition((3, 2, 1)) == (3, 2, 1)
    assert check_partition(()) == ()


def test_check_partition_pins_the_weight():
    assert check_partition([2, 1], 3) == (2, 1)
    assert check_partition((), 0) == ()
    with pytest.raises(ValueError, match=r"^\(2, 2\) is a partition of 4, not 3$"):
        check_partition((2, 2), 3)
    with pytest.raises(ValueError, match="weakly decreasing"):
        check_partition((1, 2), 3)


def test_dominates_examples():
    assert dominates((4,), (4,))
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    assert dominates((2, 1), (1, 1, 1))
    assert not dominates((1, 1, 1), (2, 1))


def test_dominates_rejects_unequal_weights():
    with pytest.raises(ValueError):
        dominates((3,), (2,))


@pytest.mark.parametrize("m", range(1, 9))
def test_dominates_is_a_partial_order(m):
    parts = enumerate_partitions(m)
    for p in parts:
        assert dominates(p, p)
    for p in parts:
        for q in parts:
            if dominates(p, q) and dominates(q, p):
                assert p == q
    for p in parts:
        for q in parts:
            if not dominates(p, q):
                continue
            for r in parts:
                if dominates(q, r):
                    assert dominates(p, r)


@pytest.mark.parametrize("m", range(1, 9))
def test_dominance_extremes(m):
    for p in enumerate_partitions(m):
        assert dominates((m,), p)
        assert dominates(p, (1,) * m)


def test_multiplicity_partition_examples():
    assert multiplicity_partition((2, 0, 0)) == (2, 1)
    assert multiplicity_partition((0, 0, 0, 0)) == (4,)
    assert multiplicity_partition((3, 2, 1, 0)) == (1, 1, 1, 1)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda m: st.tuples(
            st.lists(st.integers(min_value=0, max_value=6), min_size=m, max_size=m),
            st.permutations(range(m)),
        )
    )
)
def test_multiplicity_partition_is_permutation_invariant(data):
    alpha, sigma = data
    alpha = tuple(alpha)
    permuted = tuple(alpha[i] for i in sigma)
    assert multiplicity_partition(alpha) == multiplicity_partition(permuted)
    assert sum(multiplicity_partition(alpha)) == len(alpha)


def test_multiplicity_factorial_examples():
    assert multiplicity_factorial((2, 1)) == 2
    assert multiplicity_factorial((1, 1, 1, 1)) == 1
    assert multiplicity_factorial((3, 2)) == 12


def test_enumerate_partitions_examples():
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(6, max_length=2) == [(6,), (5, 1), (4, 2), (3, 3)]


@pytest.mark.parametrize("m,count", [(5, 7), (8, 22), (10, 42)])
def test_partition_counts(m, count):
    parts = enumerate_partitions(m)
    assert len(parts) == count
    assert len(set(parts)) == count
    assert all(sum(p) == m for p in parts)


def test_enumerate_gamma_examples():
    got = enumerate_gamma(3, 2)
    assert set(got) == {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    assert got == sorted(got)
    assert enumerate_gamma(1, 5) == [(5,)]
    assert enumerate_gamma(4, 0) == [(0, 0, 0, 0)]


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("d", range(0, 7))
def test_enumerate_gamma_cardinality(m, d):
    got = enumerate_gamma(m, d)
    assert len(got) == gamma_size(m, d) == math.comb(d + m - 1, m - 1)
    assert len(set(got)) == len(got)
    assert all(len(v) == m and sum(v) == d for v in got)


def test_enumerate_gamma_cap():
    with use_limits(max_gamma=5), pytest.raises(ResourceLimitError):
        enumerate_gamma(3, 2)


def test_orbit_representatives_examples():
    assert orbit_representatives(3, 2) == [(2, 0, 0), (1, 1, 0)]
    assert orbit_representatives(2, 3) == [(3, 0), (2, 1)]
    assert orbit_representatives(5, 1) == [(1, 0, 0, 0, 0)]


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("d", range(0, 9))
def test_orbit_sizes_partition_gamma(m, d):
    total = 0
    for nu in orbit_representatives(m, d):
        stab = multiplicity_factorial(multiplicity_partition(nu))
        orbit_size, rem = divmod(math.factorial(m), stab)
        assert rem == 0
        total += orbit_size
    assert total == gamma_size(m, d)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("d", range(0, 9))
def test_orbit_type_counts_match_brute_force(m, d):
    assert orbit_type_counts(m, d) == brute_force_orbit_types(m, d)


@pytest.mark.parametrize("m", range(1, 13))
def test_orbit_types_match_the_streamed_count(m):
    for d in range(41):
        assert dict(_orbit_types(m, d)) == streamed_orbit_types(m, d)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=24), st.integers(min_value=0, max_value=32))
def test_orbit_types_match_the_streamed_count_anywhere(m, d):
    types = _orbit_types(m, d)
    assert dict(types) == streamed_orbit_types(m, d)
    assert [shape for shape, _ in types] == sorted(dict(types), reverse=True)


def test_the_streamed_count_matches_brute_force():
    for m in range(1, 7):
        for d in range(9):
            assert streamed_orbit_types(m, d) == brute_force_orbit_types(m, d)


@pytest.mark.parametrize("m,d", [(12, 28), (20, 40), (24, 50)])
def test_orbit_type_counts_cover_gamma(m, d):
    total = sum(
        count * (math.factorial(m) // multiplicity_factorial(shape))
        for shape, count in orbit_type_counts(m, d).items()
    )
    assert total == gamma_size(m, d)


def test_class_size_examples():
    assert _class_size((1, 1, 1)) == 1
    assert _class_size((2, 1, 1)) == 6
    assert _class_size((3,)) == 2


@pytest.mark.parametrize("m", range(1, 9))
def test_class_sizes_sum_to_group_order(m):
    assert sum(_class_size(lam) for lam in enumerate_partitions(m)) == math.factorial(m)


def test_class_size_matches_direct_count():
    from oracles import class_sizes_by_counting

    for m in range(1, 6):
        counted = class_sizes_by_counting(m)
        for lam in enumerate_partitions(m):
            assert _class_size(lam) == counted[lam]


@pytest.mark.parametrize("m", range(0, 21))
def test_partition_walk_matches_the_oracle(m):
    every = _partitions_desc(m)
    for max_len in range(1, m + 2):
        assert list(_partition_walk(m, max_len)) == [p for p in every if len(p) <= max_len]


@pytest.mark.parametrize(
    "call, args",
    [
        (multiplicity_partition, ([1.5, 1.9],)),
        (denumerant, ([2.5], 4)),
        (kostka, ((2.9, 1), (1.2, 1, 1))),
        (check_partition, ((2.7, 1),)),
        (count_fillings, ((2, 1), (1.5, 1.5))),
    ],
    ids=["multiplicity_partition", "denumerant", "kostka", "check_partition", "count_fillings"],
)
def test_validators_reject_non_integers(call, args):
    with pytest.raises(ValueError, match="must be integers"):
        call(*args)


def _rank_of_s3_at(d):
    spec = sn_character_spec(3, (2, 1))
    return dimension_by_rank(spec.group, spec, d)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: denumerant((1, 2), 2.5), "amount must be an integer, got 2.5"),
        (lambda: character_table(3.0), "m must be an integer, got 3.0"),
        (lambda: enumerate_partitions(2.5), "m must be an integer, got 2.5"),
        (lambda: enumerate_partitions(3, 2.5), "max_length must be an integer, got 2.5"),
        (lambda: _rank_of_s3_at(2.5), "d must be an integer, got 2.5"),
    ],
    ids=["denumerant", "character_table", "enumerate_partitions",
         "enumerate_partitions-max_length", "dimension_by_rank"],
)
def test_scalar_arguments_reject_non_integers(call, message):
    # each once raised TypeError from deep inside; the dimension names are
    # in test_dimensions.py's table of malformed input
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_enumerate_gamma_takes_many_variables():
    assert enumerate_gamma(1100, 0) == [(0,) * 1100]


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("d", range(0, 7))
def test_enumerate_gamma_is_the_filtered_product(m, d):
    expected = [v for v in itertools.product(range(d + 1), repeat=m) if sum(v) == d]
    assert enumerate_gamma(m, d) == expected


@pytest.mark.parametrize("m", range(0, 16))
def test_walked_partitions_are_the_walk_in_one_pass(m):
    parts = _walked_partitions(m)
    assert parts == tuple(_partition_walk(m, m))
    assert _cycle_types(m) is parts
    assert list(parts) == enumerate_partitions(m)


def test_walked_partitions_refuse_a_negative_integer():
    with pytest.raises(ValueError):
        _cycle_types(-1)


@pytest.mark.parametrize("m,d", [(1, 0), (4, 6), (7, 9), (12, 28)])
def test_orbit_types_are_cached_and_the_counts_are_fresh(m, d):
    types = _orbit_types(m, d)
    assert _orbit_types(m, d) is types
    assert isinstance(types, tuple) and all(isinstance(pair, tuple) for pair in types)
    counts = orbit_type_counts(m, d)
    assert list(counts.items()) == list(types)
    counts[(m,)] += 1
    assert orbit_type_counts(m, d) == dict(types)
