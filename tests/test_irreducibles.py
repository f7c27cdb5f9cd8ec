from collections import Counter

import pytest

import relsym.irreducibles
from relsym.characters import character_table
from oracles import subgroups, symmetric_group_elements
from relsym.errors import ConsistencyError
from relsym.groups import PermutationGroup, cycle_type, inverse, parse_generators
from relsym.irreducibles import (
    _class_multiplication_matrices,
    _common_rational_eigenlines,
    integer_irreducible_characters,
)


def _orders_histogram(group):
    out = Counter()
    for g in group.elements:
        n = 1
        acc = g
        identity = tuple(range(group.m))
        while acc != identity:
            acc = tuple(g[i] for i in acc)
            n += 1
        out[n] += 1
    return out


def _s4_subgroups():
    return [PermutationGroup(els, 4) for els in subgroups(symmetric_group_elements(4))]


def test_trivial_and_cyclic_groups():
    triv = PermutationGroup.symmetric(1)
    assert [ch["values"] for ch in integer_irreducible_characters(triv)] == [[1]]

    c2 = PermutationGroup(parse_generators("(1 2)", 2), 2)
    chars = integer_irreducible_characters(c2)
    assert sorted(ch["values"] for ch in chars) == [[1, -1], [1, 1]]

    # order three: only the trivial character is integer-valued
    c3 = PermutationGroup(parse_generators("(1 2 3)", 3), 3)
    chars = integer_irreducible_characters(c3)
    assert [ch["values"] for ch in chars] == [[1, 1, 1]]

    # order four: the two real characters survive, the two faithful ones drop
    c4 = PermutationGroup(parse_generators("(1 2 3 4)", 4), 4)
    chars = integer_irreducible_characters(c4)
    assert len(chars) == 2
    assert all(ch["degree"] == 1 for ch in chars)


def test_klein_four_group():
    v4 = PermutationGroup(parse_generators("(1 2)(3 4),(1 3)(2 4)", 4), 4)
    chars = integer_irreducible_characters(v4)
    assert len(chars) == 4
    assert all(ch["degree"] == 1 for ch in chars)
    value_rows = sorted(tuple(ch["values"]) for ch in chars)
    assert len(set(value_rows)) == 4


def test_symmetric_groups_match_the_table():
    for m in range(2, 7):
        group = PermutationGroup.symmetric(m)
        found = integer_irreducible_characters(group)
        table = character_table(m)
        expected = set()
        for pi, row in table.items():
            reps = [cls[0] for cls in group.conjugacy_classes()]
            expected.add(tuple(row[cycle_type(rep)] for rep in reps))
        assert {tuple(ch["values"]) for ch in found} == expected


def test_every_subgroup_of_s4_yields_orthonormal_characters():
    for group in _s4_subgroups():
        classes = group.conjugacy_classes()
        sizes = [len(cls) for cls in classes]
        chars = integer_irreducible_characters(group)
        assert chars, "at least the trivial character is integer-valued"
        assert [1] * len(classes) in [ch["values"] for ch in chars]
        for ch in chars:
            assert ch["degree"] >= 1
            assert ch["values"][0] == ch["degree"]
        # pairwise orthogonality over the group
        for a in chars:
            for b in chars:
                total = sum(
                    size * va * vb
                    for size, va, vb in zip(sizes, a["values"], b["values"])
                )
                assert total == (group.order if a is b else 0)


def test_expected_counts_by_isomorphism_type():
    # identified by (order, class count): enough to separate the types here
    expected = {
        (1, 1): 1,  # trivial
        (2, 2): 2,  # C2
        (3, 3): 1,  # C3: two faithful characters are irrational
        (4, 4): None,  # C4 gives 2, V4 gives 4; disambiguated below
        (6, 3): 3,  # S3
        (8, 5): 5,  # D4
        (12, 4): 2,  # A4: two faithful linear characters are irrational
        (24, 5): 5,  # S4
    }
    for group in _s4_subgroups():
        classes = group.conjugacy_classes()
        key = (group.order, len(classes))
        count = len(integer_irreducible_characters(group))
        if key == (4, 4):
            is_klein = all(_orders_histogram(group)[n] == 0 for n in (4,))
            assert count == (4 if is_klein else 2)
        else:
            assert count == expected[key], (key, count)


def test_degrees_square_sum_bounded_by_order():
    for group in _s4_subgroups():
        chars = integer_irreducible_characters(group)
        total = sum(ch["degree"] ** 2 for ch in chars)
        assert total <= group.order
        # real-character-only groups here: equality iff no irrational values
        if group.order in (1, 2, 6, 8, 24) or (
            group.order == 4 and _orders_histogram(group)[4] == 0
        ):
            assert total == group.order


def test_returned_classes_follow_group_order():
    group = PermutationGroup(parse_generators("(1 2),(3 4)", 4), 4)
    reps = [cls[0] for cls in group.conjugacy_classes()]
    for ch in integer_irreducible_characters(group):
        assert ch["classes"] == reps
        assert len(ch["values"]) == len(reps)


@pytest.mark.parametrize(
    "m, generators, degrees",
    [
        # A5 and PSL(2,7) have irrational characters, which are not found
        (5, "(1 2 3),(1 2 3 4 5)", [1, 4, 5]),
        (7, "(1 2 3 4 5 6 7),(3 5)(6 7)", [1, 6, 7, 8]),
        # Q8: every character is integer-valued
        (8, "(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)", [1, 1, 1, 1, 2]),
    ],
)
def test_characters_of_larger_groups_are_orthonormal(m, generators, degrees):
    group = PermutationGroup(parse_generators(generators, m), m)
    sizes = [len(cls) for cls in group.conjugacy_classes()]
    chars = integer_irreducible_characters(group)
    assert [ch["degree"] for ch in chars] == degrees
    for a in chars:
        for b in chars:
            total = sum(size * va * vb for size, va, vb in zip(sizes, a["values"], b["values"]))
            assert total == (group.order if a is b else 0)


@pytest.mark.parametrize(
    "line",
    [
        (1, 1, 1),  # not a central character: chi(1)**2 would be 36/11
        (0, 1, -1),  # zero on the identity class
    ],
)
def test_an_eigenline_that_gives_no_character_raises(monkeypatch, line):
    monkeypatch.setattr(
        relsym.irreducibles, "_common_rational_eigenlines", lambda matrices, sizes: [line]
    )
    with pytest.raises(ConsistencyError):
        integer_irreducible_characters(PermutationGroup.symmetric(3))


@pytest.mark.parametrize("generators, m", [
    ("(1 2),(1 2 3 4 5)", 5),
    ("(1 2),(1 2 3),(1 4)(2 5)(3 6)", 6),
    ("(1 2 3 4)(5 6 7 8),(1 5 3 7)(2 8 4 6)", 8),
], ids=["S5", "S3wrS2", "Q8"])
def test_eigenlines_are_integer_vectors(generators, m):
    groups = [PermutationGroup(parse_generators(generators, m), m), *_s4_subgroups()]
    for group in groups:
        classes, matrices = _class_multiplication_matrices(group)
        lines = _common_rational_eigenlines(matrices, [len(cls) for cls in classes])
        assert lines
        for line in lines:
            assert type(line) is tuple and all(type(x) is int for x in line)
            for mat in matrices:  # an eigenvector of every class matrix
                image = [sum(a * x for a, x in zip(row, line)) for row in mat]
                pivot = next(i for i, x in enumerate(line) if x)
                assert [x * image[pivot] for x in line] == [y * line[pivot] for y in image]
