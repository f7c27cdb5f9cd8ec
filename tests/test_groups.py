import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import cycle_type_of, permutation_of_cycle_type, subgroups, symmetric_group_elements
import relsym.groups as groups
from relsym.config import use_limits
from relsym.errors import ResourceLimitError
from relsym.groups import (
    PermutationGroup,
    apply_to_exponents,
    compose,
    cycle_type,
    format_permutation,
    identity_permutation,
    inverse,
    parse_generators,
    parse_permutation,
)


def test_parse_and_format_roundtrip():
    p = parse_permutation("(1 2)(3 4)", 5)
    assert p == (1, 0, 3, 2, 4)
    assert format_permutation(p) == "(1 2)(3 4)"
    assert parse_permutation("()", 3) == (0, 1, 2)
    assert format_permutation((0, 1, 2)) == "()"
    assert parse_permutation("(1 2 3)", 3) == (1, 2, 0)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_permutation("(1 2", 3)
    with pytest.raises(ValueError):
        parse_permutation("(1 4)", 3)
    with pytest.raises(ValueError):
        parse_permutation("(1 2)(2 3)", 3)
    with pytest.raises(ValueError):
        parse_permutation("1 2", 3)


def test_parse_generators():
    gens = parse_generators("(1 2),(1 2 3)", 3)
    assert gens == [(1, 0, 2), (1, 2, 0)]
    with pytest.raises(ValueError):
        parse_generators(" , ", 3)


def test_compose_and_inverse():
    p = parse_permutation("(1 2 3)", 3)
    q = parse_permutation("(1 2)", 3)
    assert compose(p, inverse(p)) == identity_permutation(3)
    # compose applies the right argument first
    pq = compose(p, q)
    for i in range(3):
        assert pq[i] == p[q[i]]


@pytest.mark.parametrize("m", range(1, 6))
def test_compose_and_inverse_match_the_oracles(m):
    elements = symmetric_group_elements(m)
    for p in elements:
        assert inverse(p) == oracles.inverse(p)
        for q in elements:
            assert compose(p, q) == oracles.compose(p, q)


@pytest.mark.parametrize("m", range(1, 6))
def test_apply_to_exponents_is_the_literal_action(m):
    alpha = tuple(range(10, 10 + m))
    for p in symmetric_group_elements(m):
        expected = tuple(alpha[p[i]] for i in range(m))
        for given_alpha in (alpha, list(alpha)):
            result = apply_to_exponents(p, given_alpha)
            assert type(result) is tuple and len(result) == m
            assert result == expected


def test_cycle_type_and_canonical_permutation():
    assert cycle_type((1, 0, 3, 2, 4)) == (2, 2, 1)
    for lam in [(3,), (2, 2, 1), (4, 1), (1, 1, 1)]:
        assert cycle_type(permutation_of_cycle_type(lam)) == lam


def test_group_order_examples():
    assert PermutationGroup([parse_permutation("(1 2)", 2)], 2).order == 2
    s3 = PermutationGroup(parse_generators("(1 2),(1 2 3)", 3), 3)
    assert s3.order == 6
    c4 = PermutationGroup([parse_permutation("(1 2 3 4)", 4)], 4)
    assert c4.order == 4
    assert all(cycle_type(g) in {(4,), (2, 2), (1, 1, 1, 1)} for g in c4.elements)


def test_group_cap():
    with use_limits(max_group_order=100), pytest.raises(ResourceLimitError):
        PermutationGroup(parse_generators("(1 2),(1 2 3 4 5)", 5), 5)


@pytest.mark.parametrize("generators, m, message", [
    ([], -1, "m must be at least 1, got -1"),
    ([(1, 0)], 2.0, "m must be an integer, got 2.0"),
    ([(1.0, 0.0)], 2, "permutation entries must be integers, got (1.0, 0.0)"),
    ([(1, 1)], 2, "not a permutation of 2 points: (1, 1)"),
], ids=["negative-m", "float-m", "float-images", "repeated-image"])
def test_group_inputs_are_checked(generators, m, message):
    with pytest.raises(ValueError) as raised:
        PermutationGroup(generators, m)
    assert str(raised.value) == message


def test_symmetric_constructor():
    for m in range(1, 6):
        assert PermutationGroup.symmetric(m).order == math.factorial(m)


def test_conjugacy_classes_of_s4():
    s4 = PermutationGroup.symmetric(4)
    classes = s4.conjugacy_classes()
    assert classes[0] == (identity_permutation(4),)
    by_type = {cycle_type(cls[0]): len(cls) for cls in classes}
    assert by_type == {(1, 1, 1, 1): 1, (2, 1, 1): 6, (2, 2): 3, (3, 1): 8, (4,): 6}


def test_a_second_class_request_composes_nothing(monkeypatch):
    s4 = PermutationGroup.symmetric(4)
    getter = groups._getter
    calls = []

    def counting_getter(p):
        calls.append(p)
        return getter(p)

    # the class loop applies every permutation through a getter
    monkeypatch.setattr(groups, "_getter", counting_getter)
    first = s4.conjugacy_classes()
    assert len(calls) > 0
    calls.clear()
    assert s4.conjugacy_classes() == first
    assert calls == []


def test_editing_the_returned_classes_leaves_the_group_unchanged():
    s3 = PermutationGroup.symmetric(3)
    classes = s3.conjugacy_classes()
    expected = list(classes)
    classes.reverse()
    classes[0] = ()
    classes.append((identity_permutation(3),))
    assert s3.conjugacy_classes() == expected


def test_cycle_type_matches_the_oracle_on_every_small_permutation():
    for m in range(1, 7):
        for p in symmetric_group_elements(m):
            assert cycle_type(p) == cycle_type_of(p)


def test_format_then_parse_gives_every_small_permutation_back():
    for m in range(1, 7):
        for p in symmetric_group_elements(m):
            assert parse_permutation(format_permutation(p), m) == p


def test_stabilizer_examples():
    s3 = PermutationGroup.symmetric(3)
    assert s3.stabilizer((1, 1, 0)).order == 2
    assert s3.stabilizer((0, 0, 0)).order == 6
    c4 = PermutationGroup([parse_permutation("(1 2 3 4)", 4)], 4)
    assert c4.stabilizer((1, 0, 1, 0)).order == 2


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.integers(min_value=0, max_value=3), min_size=m, max_size=m),
        )
    )
)
def test_orbit_stabilizer(data):
    m, alpha = data
    alpha = tuple(alpha)
    group = PermutationGroup.symmetric(m)
    orbit = {apply_to_exponents(g, alpha) for g in group.elements}
    stab = group.stabilizer(alpha)
    assert len(orbit) * stab.order == group.order


def test_action_convention():
    # entry i of the result comes from position p[i]
    p = parse_permutation("(1 2 3)", 3)
    assert apply_to_exponents(p, (5, 7, 9)) == (7, 9, 5)


def test_subgroups_of_s4():
    s4 = PermutationGroup.symmetric(4)
    subs = [PermutationGroup(els, 4) for els in subgroups(symmetric_group_elements(4))]
    assert len(subs) == 30
    orders = Counter(g.order for g in subs)
    assert orders == Counter({1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1})
    for g in subs:
        assert s4.order % g.order == 0
        assert all(e in s4 for e in g.elements)


def test_subgroups_of_s3():
    subs = subgroups(symmetric_group_elements(3))
    assert [len(els) for els in subs] == [1, 2, 2, 2, 3, 6]
