import gc
import weakref
from fractions import Fraction

import pytest

from oracles import (
    brute_force_denumerant,
    cycle_type_of,
    dense_rank_dimension,
    fraction_matrix_rank,
    level_set_class_count,
    level_set_partition,
    subgroups,
    symmetric_group_elements,
)
from relsym.dimensions import dim_via_orbit_sum, dimension_report, is_nonvanishing
from relsym.config import use_limits
import relsym.symmetrizer as symmetrizer
from relsym.errors import ConsistencyError, ResourceLimitError
from relsym.groups import PermutationGroup, apply_to_exponents, parse_generators
from relsym.irreducibles import integer_irreducible_characters
from relsym.linalg import symmetric_rank
from relsym.partitions import (
    dominates,
    enumerate_gamma,
    enumerate_partitions,
    multiplicity_partition,
    orbit_representatives,
)
from relsym.symmetrizer import (
    CharacterSpec,
    _indices,
    _orbit_blocks,
    _orbit_structure,
    dimension_by_character_sum,
    dimension_by_rank,
    norm_squared,
    sn_character_spec,
    symmetrize_monomial,
)


def s2():
    return PermutationGroup.symmetric(2)


def s3():
    return PermutationGroup.symmetric(3)


def test_symmetrize_examples():
    sign = sn_character_spec(2, (1, 1))
    triv = sn_character_spec(2, (2,))
    half = Fraction(1, 2)
    p = symmetrize_monomial(s2(), sign, (2, 0))
    assert dict(p.coefficients) == {(2, 0): half, (0, 2): -half}
    assert not symmetrize_monomial(s2(), sign, (1, 1)).coefficients
    q = symmetrize_monomial(s2(), triv, (2, 0))
    assert dict(q.coefficients) == {(2, 0): half, (0, 2): half}


def test_norm_examples():
    sign = sn_character_spec(2, (1, 1))
    assert norm_squared(s2(), sign, (2, 0)) == Fraction(1, 2)
    assert norm_squared(s2(), sign, (1, 1)) == 0
    std = sn_character_spec(3, (2, 1))
    assert norm_squared(s3(), std, (1, 1, 0)) == Fraction(2, 3)


def test_norm_is_the_character_summed_over_the_stabilizer():
    # degree * (chi summed over the elements fixing alpha) / order, by a pass
    # of its own over the group
    for pi in enumerate_partitions(4):
        group, chi = PermutationGroup.symmetric(4), sn_character_spec(4, pi)
        for alpha in enumerate_gamma(4, 3):
            fixed = sum(v for g, v in chi.items() if apply_to_exponents(g, alpha) == alpha)
            assert norm_squared(group, chi, alpha) == Fraction(chi.degree * fixed, group.order)


def test_character_spec_validation():
    group = s2()
    with pytest.raises(ValueError):
        CharacterSpec(group, {group.elements[0]: 1})
    with pytest.raises(ValueError):
        # not irreducible: the regular character
        CharacterSpec(group, {g: (2 if g == (0, 1) else 0) for g in group.elements})
    with pytest.raises(ValueError):
        # not a class function on S3
        g3 = s3()
        values = {g: 1 for g in g3.elements}
        values[g3.elements[1]] = -1
        CharacterSpec(g3, values)
    with pytest.raises(ValueError, match="must be integers"):
        CharacterSpec(group, {(0, 1): 1.0, (1, 0): 1.0})
    # a bool is an int: the values are stored as plain ints
    spec = CharacterSpec(group, {(0, 1): True, (1, 0): True})
    assert spec.degree == 1 and type(spec.degree) is int
    assert all(type(value) is int for _, value in spec.items())


def test_a_non_integer_character_value_is_named_alone():
    group = PermutationGroup.symmetric(5)
    values = dict.fromkeys(group.elements, 1)
    values[group.elements[7]] = 1.0
    with pytest.raises(ValueError, match="must be integers") as raised:
        CharacterSpec(group, values)
    message = str(raised.value)
    assert f"got 1.0 for the element {group.elements[7]}" in message
    assert len(message) < 200


def test_character_spec_from_class_values():
    g3 = s3()
    classes = g3.conjugacy_classes()
    spec = CharacterSpec.from_class_values(
        g3, {cls[0]: v for cls, v in zip(classes, (2, 0, -1))}
    )
    assert spec.degree == 2
    with pytest.raises(ValueError):
        CharacterSpec.from_class_values(g3, {classes[0][0]: 2})


def _integer_irreducible_specs(group):
    return [
        CharacterSpec.from_class_values(group, dict(zip(found["classes"], found["values"])))
        for found in integer_irreducible_characters(group)
    ]


def _all_s4_subgroup_specs():
    out = []
    for elements in subgroups(symmetric_group_elements(4)):
        group = PermutationGroup(elements, 4)
        for spec in _integer_irreducible_specs(group):
            out.append((group, spec))
    return out


def _symmetrized_again(group, spec, coefficients):
    """The symmetrizer extended linearly to a polynomial: the sum of c_beta
    times the symmetrized monomial of beta, with zero terms dropped."""
    total = {}
    for beta, c in coefficients.items():
        for gamma, v in symmetrize_monomial(group, spec, beta).coefficients.items():
            total[gamma] = total.get(gamma, 0) + c * v
    return {gamma: v for gamma, v in total.items() if v}


def test_idempotence_on_s4_subgroups():
    for group, spec in _all_s4_subgroup_specs():
        for d in range(0, 5):
            for alpha in enumerate_gamma(4, d):
                once = symmetrize_monomial(group, spec, alpha).coefficients
                assert _symmetrized_again(group, spec, once) == once


def test_norm_consistency_on_s4_subgroups():
    for group, spec in _all_s4_subgroup_specs():
        for d in range(0, 5):
            for alpha in enumerate_gamma(4, d):
                value = norm_squared(group, spec, alpha)  # raises on mismatch
                direct = symmetrize_monomial(group, spec, alpha).norm_squared()
                assert value == direct
                assert (value != 0) == bool(symmetrize_monomial(group, spec, alpha).coefficients)


def test_rank_examples():
    assert dimension_by_rank(s2(), sn_character_spec(2, (1, 1)), 2) == 1
    assert dimension_by_rank(s3(), sn_character_spec(3, (2, 1)), 2) == 4
    assert dimension_by_rank(s3(), sn_character_spec(3, (1, 1, 1)), 2) == 0


def test_character_sum_examples():
    c3 = PermutationGroup(parse_generators("(1 2 3)", 3), 3)
    triv_c3 = CharacterSpec(c3, {g: 1 for g in c3.elements})
    assert dimension_by_character_sum(c3, triv_c3, 2) == 2
    assert dimension_by_character_sum(s2(), sn_character_spec(2, (1, 1)), 2) == 1
    # constants are the whole degree-0 space for a trivial character
    for group, spec in [(c3, triv_c3), (s2(), sn_character_spec(2, (2,)))]:
        assert dimension_by_character_sum(group, spec, 0) == 1
    assert dimension_by_character_sum(s2(), sn_character_spec(2, (1, 1)), 0) == 0


# the six groups of the benchmark's library sweep (bench/workloads.py)
_SWEEP_GROUPS = [
    (4, "(1 2), (1 2 3 4)"),
    (5, "(1 2 3 4 5), (2 5)(3 4)"),
    (6, "(1 2 3 4 5 6), (2 6)(3 5)"),
    (5, "(1 2), (1 2 3), (4 5)"),
    (5, "(1 2), (1 2 3 4 5)"),
    (6, "(1 2), (1 2 3), (1 4)(2 5)(3 6)"),
]


def test_character_sum_by_class_equals_the_sum_over_elements():
    cases = _all_s4_subgroup_specs()
    for m, gens in _SWEEP_GROUPS:
        group = PermutationGroup(parse_generators(gens, m), m)
        cases += [(group, spec) for spec in _integer_irreducible_specs(group)]
    for group, spec in cases:
        for d in range(0, 5):
            total = sum(
                value * brute_force_denumerant(cycle_type_of(g), d) for g, value in spec.items()
            )
            expected = Fraction(spec.degree * total, group.order)
            assert dimension_by_character_sum(group, spec, d) == expected


@pytest.mark.parametrize(
    "call",
    [dimension_by_rank, dimension_by_character_sum, norm_squared, symmetrize_monomial],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize("group", [
    PermutationGroup(parse_generators("(1 2 3)", 3), 3),  # a subgroup: wrong dimensions
    PermutationGroup.symmetric(2),  # fewer points: an index error
], ids=["C3", "S2"])
def test_a_character_of_another_group_is_rejected(call, group):
    spec = sn_character_spec(3, (2, 1))
    arg = (1, 1, 0)[: group.m] if call in (norm_squared, symmetrize_monomial) else 2
    with pytest.raises(ValueError, match="not a character of the given group"):
        call(group, spec, arg)


def test_rank_cap():
    with use_limits(max_gamma=3), pytest.raises(ResourceLimitError):
        dimension_by_rank(s3(), sn_character_spec(3, (2, 1)), 2)


def test_rank_equals_character_sum_on_s4_subgroups():
    for group, spec in _all_s4_subgroup_specs():
        for d in range(0, 7):
            assert dimension_by_rank(group, spec, d) == dimension_by_character_sum(
                group, spec, d
            )


def test_orbit_block_rank_equals_the_dense_rank():
    for m in range(1, 5):
        for pi in enumerate_partitions(m):
            spec = sn_character_spec(m, pi)
            for d in range(0, 6):
                assert dimension_by_rank(spec.group, spec, d) == dense_rank_dimension(
                    spec.group, spec, d
                )
    for group, spec in _all_s4_subgroup_specs():
        for d in range(0, 5):
            assert dimension_by_rank(group, spec, d) == dense_rank_dimension(group, spec, d)


@pytest.mark.parametrize("wrong", [0, 1])
@pytest.mark.parametrize("off", [1, -1])
def test_each_block_rank_is_checked_against_its_trace(monkeypatch, wrong, off):
    # S3, chi^(2,1), d = 3: the classes of (0, 0, 3), of rank 2, of (0, 1, 2),
    # of rank 4, and of (1, 1, 1), of rank 0
    spec = sn_character_spec(3, (2, 1))
    firsts = [orbit[0] for orbit, _, _ in _orbit_blocks(spec.group, spec, 3)]
    assert firsts == [(0, 0, 3), (0, 1, 2), (1, 1, 1)]
    ranks = [2, 4]
    calls = []

    def off_by_one(block):
        calls.append(block)
        return symmetric_rank(block) + off * (len(calls) == wrong + 1)

    monkeypatch.setattr(symmetrizer, "symmetric_rank", off_by_one)
    with pytest.raises(ConsistencyError) as info:
        dimension_by_rank(spec.group, spec, 3)
    assert str(info.value) == (
        f"the block of the orbit of {firsts[wrong]} has rank {ranks[wrong] + off}, "
        f"but its trace gives {ranks[wrong]}"
    )


def test_orbits_of_one_level_set_class_share_one_block():
    # S3, chi^(2,1), d = 2: the orbits of (0, 0, 2) and (0, 1, 1) both have a
    # level-set partition {{0, 1}, {2}}, so one block of rank 2 counts twice
    spec = sn_character_spec(3, (2, 1))
    [(orbit, block, count)] = _orbit_blocks(spec.group, spec, 2)
    assert (orbit, count) == (((0, 0, 2), (0, 2, 0), (2, 0, 0)), 2)
    assert symmetric_rank(block) == 2
    assert dimension_by_rank(spec.group, spec, 2) == 4


def _every_block_case():
    """(group, spec, max_d): every S4 subgroup and lib-sweep group at d <= 4,
    every pi of m <= 5 at d <= 5."""
    cases = [(group, spec, 4) for group, spec in _all_s4_subgroup_specs()]
    for m, gens in _SWEEP_GROUPS:
        group = PermutationGroup(parse_generators(gens, m), m)
        cases += [(group, spec, 4) for spec in _integer_irreducible_specs(group)]
    for m in range(1, 6):
        specs = [sn_character_spec(m, pi) for pi in enumerate_partitions(m)]
        cases += [(spec.group, spec, 5) for spec in specs]
    return cases


def test_every_block_is_symmetric_and_ranked_alike_by_both_eliminations():
    n_blocks = n_orbits = 0
    for group, spec, max_d in _every_block_case():
        for d in range(0, max_d + 1):
            for _, block, count in _orbit_blocks(group, spec, d):
                assert block == [list(column) for column in zip(*block)]
                assert symmetric_rank(block) == fraction_matrix_rank(block)
                n_blocks += 1
                n_orbits += count
    assert (n_blocks, n_orbits) == (2284, 3206)


@pytest.mark.parametrize("tamper, reason", [
    (lambda block: block[1].__setitem__(0, block[1][0] + 1),
     ["the matrix is not symmetric: entry (1, 0) is 0, entry (0, 1) is -1",
      "the matrix is not symmetric: entry (1, 0) is 1, entry (0, 1) is 0"]),
    (lambda block: block[0].__setitem__(0, 0),
     ["diagonal pivot 0 is zero but its row is not: the matrix is not positive semidefinite"]
     * 2),
], ids=["asymmetric", "zero-pivot"])
@pytest.mark.parametrize("which", [0, 1])
def test_a_block_that_diagonal_pivots_cannot_rank_names_its_orbit(monkeypatch, tamper, reason,
                                                                   which):
    # S3, chi^(2,1), d = 3: the classes of (0, 0, 3), (0, 1, 2) and (1, 1, 1)
    spec = sn_character_spec(3, (2, 1))
    blocks = list(_orbit_blocks(spec.group, spec, 3))
    assert [orbit[0] for orbit, _, _ in blocks] == [(0, 0, 3), (0, 1, 2), (1, 1, 1)]
    assert blocks[0][1] == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert blocks[1][1][:2] == [[2, 0, 0, -1, -1, 0], [0, 2, -1, 0, 0, -1]]
    tamper(blocks[which][1])
    monkeypatch.setattr(symmetrizer, "_orbit_blocks", lambda group, chi, d: iter(blocks))
    with pytest.raises(ConsistencyError) as raised:
        dimension_by_rank(spec.group, spec, 3)
    assert str(raised.value) == (
        f"the block of the orbit of {blocks[which][0][0]}: {reason[which]}"
    )


_BLOCK_GROUPS = [
    ("S3", PermutationGroup.symmetric(3), 4),
    ("S4", PermutationGroup.symmetric(4), 3),
    ("D4", PermutationGroup(parse_generators("(1 2 3 4), (1 3)", 4), 4), 3),
    ("V4", PermutationGroup(parse_generators("(1 2)(3 4), (1 3)(2 4)", 4), 4), 3),
]


@pytest.mark.parametrize("group, max_d", [(g, d) for _, g, d in _BLOCK_GROUPS],
                         ids=[name for name, _, _ in _BLOCK_GROUPS])
def test_orbit_blocks_are_the_scaled_symmetrized_monomials(group, max_d):
    specs = _integer_irreducible_specs(group)
    for warm in (False, True):
        _orbit_structure.cache_clear()
        if warm:  # another character fills the shared structure first
            for d in range(0, max_d + 1):
                list(_orbit_blocks(group, specs[-1], d))
        for spec in specs:
            scale = Fraction(group.order, spec.degree)
            for d in range(0, max_d + 1):
                covered = 0
                for orbit, block, count in _orbit_blocks(group, spec, d):
                    assert set(orbit) == {apply_to_exponents(g, orbit[0]) for g in group.elements}
                    assert len(block) == len(orbit)
                    for alpha, row in zip(orbit, block):
                        poly = symmetrize_monomial(group, spec, alpha)
                        assert {beta: v for beta, v in zip(orbit, row) if v} == {
                            beta: c * scale for beta, c in poly.coefficients.items()
                        }
                    covered += count * len(orbit)  # the orbits of one class have one size
                assert covered == len(enumerate_gamma(group.m, d))


# The level-set partitions of m positions all occur by d = m(m - 1) / 2, where
# the vector 0, 1, ..., m - 1 has m blocks; within dim --verify's window
# (|Gamma(m, d)| <= 1000) that is d <= 9 at m = 5.  Every orbit at d <= 9
# is checked, for every pi of m <= 5 (S3's and S4's integer irreducibles
# among them) and every integer irreducible of D4, V4, C5, D5 and A4.
_PER_ORBIT_MAX_D = 9
_PER_ORBIT_GROUPS = [
    ("D4", 4, "(1 2 3 4), (1 3)"),
    ("V4", 4, "(1 2)(3 4), (1 3)(2 4)"),
    ("C5", 5, "(1 2 3 4 5)"),
    ("D5", 5, "(1 2 3 4 5), (2 5)(3 4)"),
    ("A4", 4, "(1 2 3), (2 3 4)"),
]


def _per_orbit_cases():
    cases = [pytest.param(sn_character_spec(m, pi), id=f"S{m}-{','.join(map(str, pi))}")
             for m in range(1, 6) for pi in enumerate_partitions(m)]
    for name, m, gens in _PER_ORBIT_GROUPS:
        group = PermutationGroup(parse_generators(gens, m), m)
        cases += [pytest.param(spec, id=f"{name}-{k}")
                  for k, spec in enumerate(_integer_irreducible_specs(group))]
    return cases


@pytest.mark.parametrize("spec", _per_orbit_cases())
def test_every_orbit_block_is_its_class_block_permuted(spec):
    group = spec.group
    scale = Fraction(group.order, spec.degree)
    for d in range(0, _PER_ORBIT_MAX_D + 1):
        classes = list(_orbit_blocks(group, spec, d))
        # each level-set partition of a first orbit's vectors, to its class
        # and the vector that has it
        firsts = {}
        for k, (first, _, _) in enumerate(classes):
            for beta in first:
                firsts.setdefault(level_set_partition(beta), (k, beta))
        counts = [0] * len(classes)
        seen = set()
        for alpha in enumerate_gamma(group.m, d):
            if alpha in seen:
                continue
            orbit = sorted({apply_to_exponents(g, alpha) for g in group.elements})
            seen.update(orbit)
            k, beta = firsts[level_set_partition(alpha)]
            first, class_block, _ = classes[k]
            counts[k] += 1
            block = []
            for gamma in orbit:
                coefficients = symmetrize_monomial(group, spec, gamma).coefficients
                block.append([int(coefficients.get(delta, 0) * scale) for delta in orbit])
            assert symmetric_rank(block) == symmetric_rank(class_block)
            # relabelling alpha's values as beta's maps the orbit onto the first one
            relabel = dict(zip(alpha, beta))
            position = {v: i for i, v in enumerate(first)}
            moved = [position[tuple(map(relabel.__getitem__, gamma))] for gamma in orbit]
            assert sorted(moved) == list(range(len(first)))
            assert block == [[class_block[i][j] for j in moved] for i in moved]
        assert counts == [count for _, _, count in classes]


def test_a_block_over_256_columns_keeps_its_entries():
    # S6 at d = 10: the orbit of (4, 3, 2, 1, 0, 0) has 360 vectors, so its
    # column indices no longer fit a byte
    group = sn_character_spec(6, (6,)).group
    spec = sn_character_spec(6, (5, 1))
    scale = Fraction(group.order, spec.degree)
    orbit, block = next((o, b) for o, b, _ in _orbit_blocks(group, spec, 10) if len(o) > 256)
    assert (len(orbit), orbit[0]) == (360, (0, 0, 1, 2, 3, 4))
    assert {type(f) for o, _, f, _ in _orbit_structure(group.elements, 10) if len(o) > 256} == {
        tuple
    }
    for alpha, row in list(zip(orbit, block))[:: 90]:
        poly = symmetrize_monomial(group, spec, alpha)
        assert {beta: v for beta, v in zip(orbit, row) if v} == {
            beta: c * scale for beta, c in poly.coefficients.items()
        }


def test_column_indices_take_a_byte_below_257_columns():
    assert _indices(iter(range(256)), 256) == bytes(range(256))
    assert _indices(iter([0, 256, 70000]), 70001) == (0, 256, 70000)


@pytest.mark.parametrize("first", [0, 1], ids=["in-order", "reversed"])
@pytest.mark.parametrize("group, d", [(g, d) for _, g, d in _BLOCK_GROUPS],
                         ids=[name for name, _, _ in _BLOCK_GROUPS])
def test_characters_of_one_group_share_its_orbit_structure(group, d, first):
    specs = _integer_irreducible_specs(group)
    for pair in zip(specs, specs[1:]):
        _orbit_structure.cache_clear()
        for spec in pair[first:] + pair[:first]:
            hits = _orbit_structure.cache_info().hits
            assert dimension_by_rank(group, spec, d) == dense_rank_dimension(group, spec, d)
        # the second character found the structure the first one built
        assert _orbit_structure.cache_info().hits == hits + 1
        assert _orbit_structure.cache_info().misses == 1


def test_equal_groups_built_apart_share_one_orbit_structure():
    _orbit_structure.cache_clear()
    for _ in range(3):
        group = PermutationGroup.symmetric(4)  # a new object, equal to the last
        spec = CharacterSpec.from_class_values(
            group, {cls[0]: 1 for cls in group.conjugacy_classes()}
        )
        assert dimension_by_rank(group, spec, 3) == 3
    assert _orbit_structure.cache_info()[:2] == (2, 1)  # (hits, misses)
    # the entry holds the group's elements, not the group
    dropped = weakref.ref(group)
    del group, spec
    gc.collect()
    assert dropped() is None


@pytest.mark.parametrize("group, max_d", [(g, d) for _, g, d in _BLOCK_GROUPS],
                         ids=[name for name, _, _ in _BLOCK_GROUPS])
def test_rank_runs_once_per_level_set_class(monkeypatch, group, max_d):
    calls = []
    monkeypatch.setattr(symmetrizer, "symmetric_rank",
                        lambda block: calls.append(block) or symmetric_rank(block))
    _orbit_structure.cache_clear()
    for d in range(0, max_d + 1):
        classes = level_set_class_count(group.elements, group.m, d)
        for spec in _integer_irreducible_specs(group):  # cold for the first, then warm
            calls.clear()
            dimension_by_rank(group, spec, d)
            assert len(calls) == classes


_GROUP_CAP = (
    "the group order is at least {}, exceeding the cap of {} "
    "(Limits.max_group_order; raise it with --max-elements or RELSYM_MAX_ELEMENTS)"
)


@pytest.mark.parametrize("cap", [1, 5])
@pytest.mark.parametrize("call", [
    lambda: sn_character_spec(3, (2, 1)),
    lambda: dimension_report(3, 2, (2, 1), verify_rank=True),
], ids=["sn_character_spec", "dimension_report"])
def test_a_lowered_group_cap_refuses_a_cached_symmetric_group(call, cap):
    call()  # S3 is now cached, with its six elements
    with use_limits(max_group_order=cap), pytest.raises(ResourceLimitError) as raised:
        call()
    assert str(raised.value) == _GROUP_CAP.format(cap + 1, cap)
    with use_limits(max_group_order=6):
        call()


def test_a_lowered_gamma_cap_refuses_a_cached_orbit_structure():
    spec = sn_character_spec(3, (2, 1))
    assert dimension_by_rank(spec.group, spec, 2) == 4  # (S3, 2) is now cached
    with use_limits(max_gamma=5), pytest.raises(ResourceLimitError) as raised:
        dimension_by_rank(spec.group, spec, 2)
    assert str(raised.value) == (
        "the number of vectors in Gamma(3, 2) is 6, exceeding the cap of 5 "
        "(Limits.max_gamma; raise it with --max-gamma)"
    )


@pytest.mark.parametrize("d", [2.0, True, -1])
def test_a_cached_degree_is_not_read_for_an_unchecked_one(d):
    spec = sn_character_spec(3, (2, 1))
    dimension_by_rank(spec.group, spec, 1)
    dimension_by_rank(spec.group, spec, 2)
    if d is True:  # an integer: it goes on as 1
        assert dimension_by_rank(spec.group, spec, d) == dimension_by_rank(spec.group, spec, 1)
    else:
        with pytest.raises(ValueError, match="^d must be"):
            dimension_by_rank(spec.group, spec, d)


def test_a_cached_symmetric_group_is_not_read_for_a_float_m():
    sn_character_spec(2, (1, 1))
    with pytest.raises(ValueError, match="^m must be an integer, got 2.0$"):
        sn_character_spec(2.0, (1, 1))


@pytest.mark.parametrize("m", range(1, 6))
def test_rank_matches_formula_dimensions(m):
    for pi in enumerate_partitions(m):
        spec = sn_character_spec(m, pi)
        for d in range(0, 7):
            assert dimension_by_rank(spec.group, spec, d) == dim_via_orbit_sum(m, d, pi)
            assert dimension_by_character_sum(spec.group, spec, d) == dim_via_orbit_sum(
                m, d, pi
            )


@pytest.mark.parametrize("m", range(2, 6))
def test_zero_test_matches_nonvanishing_criterion(m):
    group = PermutationGroup.symmetric(m)
    for pi in enumerate_partitions(m):
        spec = sn_character_spec(m, pi)
        for d in range(0, 7):
            for nu in orbit_representatives(m, d):
                vanishes = not symmetrize_monomial(group, spec, nu).coefficients
                assert (not vanishes) == dominates(pi, multiplicity_partition(nu))
