import math
import sys
import threading

import pytest

from oracles import (
    _partitions_desc,
    coset_induced_trivial_values,
    hook_length_dimension,
    induced_trivial_by_assignment,
    assignment_induced_trivial_values,
    oracle_character_table,
)
from relsym.characters import (
    ClassFunction,
    _mn_value,
    _ribbons_added,
    _ribbons_removed,
    _row,
    character_table,
    induced_trivial_character,
    inner_product,
    irreducible_character_value,
    restricted_trivial_inner_product,
)
from relsym.config import use_limits
from relsym.errors import ResourceLimitError
from relsym.partitions import (
    _class_size,
    _walked_partitions,
    enumerate_partitions,
    multiplicity_factorial,
)
from relsym.tableaux import _layer_walk, kostka


def _trivial(m):
    return ClassFunction(m, dict.fromkeys(enumerate_partitions(m), 1))


def test_character_value_examples():
    for lam in enumerate_partitions(5):
        assert irreducible_character_value((5,), lam) == 1
    assert irreducible_character_value((1, 1, 1), (2, 1)) == -1
    assert irreducible_character_value((2, 1), (1, 1, 1)) == 2
    assert irreducible_character_value((2, 1), (2, 1)) == 0
    assert irreducible_character_value((2, 1), (3,)) == -1


def test_character_value_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        irreducible_character_value((2, 1), (2, 2))


def test_character_table_small():
    assert character_table(1) == {(1,): {(1,): 1}}
    t2 = character_table(2)
    assert t2[(2,)] == {(1, 1): 1, (2,): 1}
    assert t2[(1, 1)] == {(1, 1): 1, (2,): -1}
    t3 = character_table(3)
    assert [t3[pi][(1, 1, 1)] for pi in enumerate_partitions(3)] == [1, 2, 1]


def test_character_table_bound():
    with pytest.raises(ResourceLimitError):
        character_table(13)
    with use_limits(max_character_table_m=13):
        assert character_table(13)[(13,)][(13,)] == 1


@pytest.mark.parametrize("m", range(1, 8))
def test_table_matches_coset_peeling_oracle(m):
    assert character_table(m) == oracle_character_table(m)


@pytest.mark.parametrize("m", range(1, 10))
def test_table_matches_assignment_peeling_oracle(m):
    peeled = oracle_character_table(m, induced=assignment_induced_trivial_values)
    assert character_table(m) == peeled


@pytest.mark.parametrize("m", range(1, 13))
def test_column_built_table_equals_the_removal_rows(m):
    assert character_table(m) == {pi: _row(pi) for pi in enumerate_partitions(m)}


def test_ribbons_added_inverts_ribbons_removed():
    # every shape of size <= 10 and every r <= 10: adding an r-ribbon reaches
    # exactly the shapes that removing one leads back from, with equal signs
    shapes = [()] + [pi for n in range(1, 21) for pi in enumerate_partitions(n)]
    for r in range(1, 11):
        back = {}
        for nu in shapes:
            for mu, sign in _ribbons_removed(nu, r):
                back.setdefault(mu, []).append((nu, sign))
        for mu in shapes:
            if sum(mu) <= 10:
                assert sorted(_ribbons_added(mu, r)) == sorted(back.get(mu, [])), (mu, r)


@pytest.mark.parametrize("m", range(1, 11))
def test_column_orthogonality(m):
    table = character_table(m)
    parts = enumerate_partitions(m)
    for lam in parts:
        for mu in parts:
            total = sum(table[pi][lam] * table[pi][mu] for pi in parts)
            assert total == (math.factorial(m) // _class_size(lam) if lam == mu else 0)


def test_character_table_adds_no_value_to_the_value_cache():
    _mn_value.cache_clear()
    character_table(12)
    assert _mn_value.cache_info().currsize == 0


@pytest.mark.parametrize("m", range(1, 11))
def test_unit_cycles_by_hook_lengths_equal_the_full_walk(m):
    for pi in enumerate_partitions(m):
        for lam in enumerate_partitions(m):
            assert _mn_value(pi, lam) == _layer_walk(pi, lam, _ribbons_removed).get((), 0)


@pytest.mark.parametrize("m", range(1, 8))
def test_row_orthogonality(m):
    table = character_table(m)
    parts = enumerate_partitions(m)
    sizes = {lam: _class_size(lam) for lam in parts}
    order = math.factorial(m)
    for pi in parts:
        for mu in parts:
            total = sum(sizes[lam] * table[pi][lam] * table[mu][lam] for lam in parts)
            assert total == (order if pi == mu else 0)


@pytest.mark.parametrize("m", range(1, 9))
def test_degrees(m):
    table = character_table(m)
    identity = (1,) * m
    total = 0
    for pi in enumerate_partitions(m):
        degree = table[pi][identity]
        assert degree > 0
        assert degree == hook_length_dimension(pi)
        total += degree * degree
    assert total == math.factorial(m)


def _irreducible(pi):
    m = sum(pi)
    return ClassFunction(m, character_table(m)[pi])


def test_inner_product_examples():
    for m in range(1, 8):
        for pi in enumerate_partitions(m):
            chi = _irreducible(pi)
            assert inner_product(chi, chi) == 1
    assert inner_product(_irreducible((3,)), _irreducible((2, 1))) == 0


def test_inner_product_with_solution_counts():
    from relsym.denumerant import denumerant_class_function

    q2 = denumerant_class_function(3, 2)
    assert inner_product(q2, _irreducible((2, 1))) == 2


def test_inner_product_rejects_degree_mismatch():
    with pytest.raises(ValueError):
        inner_product(_trivial(3), _trivial(4))


def test_restricted_trivial_examples():
    for m in range(1, 7):
        for mu in enumerate_partitions(m):
            assert restricted_trivial_inner_product((m,), mu) == 1
    assert restricted_trivial_inner_product((2, 1), (2, 1)) == 1
    assert restricted_trivial_inner_product((1, 1, 1), (2, 1)) == 0


@pytest.mark.parametrize("m", range(1, 8))
def test_restricted_trivial_equals_kostka(m):
    for pi in enumerate_partitions(m):
        for mu in enumerate_partitions(m):
            assert restricted_trivial_inner_product(pi, mu) == kostka(pi, mu)


def test_induced_trivial_examples():
    for m in range(1, 6):
        assert induced_trivial_character((m,)) == _trivial(m)
    regular = induced_trivial_character((1, 1, 1))
    assert [int(regular.values[lam]) for lam in enumerate_partitions(3)] == [0, 0, 6]
    ind = induced_trivial_character((2, 1))
    assert [int(ind.values[lam]) for lam in enumerate_partitions(3)] == [0, 1, 3]


@pytest.mark.parametrize("m", range(1, 6))
def test_induced_trivial_matches_coset_counting(m):
    for mu in enumerate_partitions(m):
        built = induced_trivial_character(mu)
        counted = coset_induced_trivial_values(mu, m)
        assert {lam: int(v) for lam, v in built.values.items()} == counted


@pytest.mark.parametrize("m", range(1, 11))
def test_induced_trivial_matches_cycle_to_block_assignments(m):
    for mu in enumerate_partitions(m):
        assigned = {lam: induced_trivial_by_assignment(mu, lam) for lam in _partitions_desc(m)}
        assert induced_trivial_character(mu).values == assigned


@pytest.mark.parametrize("m", range(1, 7))
def test_assignment_oracle_matches_coset_counting(m):
    for mu in _partitions_desc(m):
        assigned = {lam: induced_trivial_by_assignment(mu, lam) for lam in _partitions_desc(m)}
        assert assigned == coset_induced_trivial_values(mu, m)


@pytest.mark.parametrize("m", range(1, 7))
def test_induced_trivial_is_a_permutation_character(m):
    identity = (1,) * m
    for mu in enumerate_partitions(m):
        ind = induced_trivial_character(mu)
        assert all(v.denominator == 1 and v >= 0 for v in ind.values.values())
        assert ind.values[identity] == math.factorial(m) // multiplicity_factorial(mu)


@pytest.mark.parametrize("keys", [
    [(3,), (2, 1)],
    [(3,), (2, 1), (2, 2)],
    [(3,), (2, 1), (1, 1, 1), (2, 2)],
])
def test_class_function_needs_exactly_the_cycle_types(keys):
    with pytest.raises(ValueError, match="every cycle type of degree 3"):
        ClassFunction(3, dict.fromkeys(keys, 1))
    assert ClassFunction(3, dict.fromkeys([(1, 1, 1), (2, 1), (3,)], 1)) == _trivial(3)


def test_character_table_concurrent_construction():
    # the threads build m = 6 from empty caches, so that they fill them
    # concurrently: each thread's ribbon memo is its own, the classes are
    # shared
    expected = oracle_character_table(6)
    _mn_value.cache_clear()
    _walked_partitions.cache_clear()
    results = []

    def worker():
        results.append(character_table(6))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r == expected for r in results)


@pytest.mark.parametrize("m", range(1, 15))
def test_character_degrees_are_hook_lengths(m):
    for pi in enumerate_partitions(m):
        # the full removal walk: _mn_value finishes unit cycles by hook lengths
        assert _layer_walk(pi, (1,) * m, _ribbons_removed)[()] == hook_length_dimension(pi)
