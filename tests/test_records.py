"""The package's frozen records keep the contract of the frozen dataclasses
they replaced: constructor, repr bytes, eq and hash over the fields, no
assignment, and pickle and copy round-trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from relsym import (
    ClassFunction,
    DimensionReport,
    SymmetrizedPolynomial,
    dimension_report,
    limits,
    sn_character_spec,
    symmetrize_monomial,
    use_limits,
)
from relsym.config import Limits


def _polynomial():
    spec = sn_character_spec(3, (2, 1))
    return symmetrize_monomial(spec.group, spec, (1, 1, 0))


# (build, build one that differs in a field, repr as the frozen dataclasses
# printed it, hashable)
RECORDS = {
    "Limits": (
        lambda: Limits(max_gamma=5),
        lambda: Limits(max_gamma=6),
        "Limits(max_gamma=5, max_group_order=1000000, max_character_table_m=12)",
        True,
    ),
    "ClassFunction": (
        lambda: ClassFunction(2, {(2,): 0, (1, 1): Fraction(1, 2)}),
        lambda: ClassFunction(2, {(2,): 1, (1, 1): Fraction(1, 2)}),
        "ClassFunction(m=2, values={(2,): 0, (1, 1): Fraction(1, 2)})",
        False,
    ),
    "DimensionReport": (
        lambda: dimension_report(3, 2, (2, 1), verify_rank=True),
        lambda: dimension_report(3, 2, (2, 1)),
        "DimensionReport(m=3, d=2, pi=(2, 1), dim_orbit_sum=4, dim_inner_product=4, "
        "dim_decomposition=4, nonvanishing_witness=(2, 0, 0), rank_dimension=4)",
        True,
    ),
    "SymmetrizedPolynomial": (
        _polynomial,
        lambda: SymmetrizedPolynomial(3, 2, {}),
        "SymmetrizedPolynomial(m=3, d=2, coefficients={(1, 1, 0): Fraction(2, 3), "
        "(1, 0, 1): Fraction(-1, 3), (0, 1, 1): Fraction(-1, 3)})",
        False,
    ),
}

parametrize_records = pytest.mark.parametrize("name", sorted(RECORDS))


@parametrize_records
def test_repr_is_the_dataclass_repr(name):
    build, _, text, _ = RECORDS[name]
    assert repr(build()) == text


@parametrize_records
def test_eq_and_hash_over_the_fields(name):
    build, build_other, _, hashable = RECORDS[name]
    a, b = build(), build()
    assert a == b and not a != b
    assert a is not b
    assert a != build_other() and not a == build_other()
    assert a != a._values() and a != object()
    if hashable:
        assert hash(a) == hash(b) == hash(a._values())
    else:
        # a dict field makes the record unhashable, as it made the dataclass
        with pytest.raises(TypeError):
            hash(a)


@parametrize_records
def test_assignment_raises(name):
    record = RECORDS[name][0]()
    field = record.__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) == before


@parametrize_records
def test_pickle_and_copy_round_trip(name):
    record = RECORDS[name][0]()
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is type(record)
        assert twin == record
        assert repr(twin) == repr(record)


def test_constructor_positions_keywords_and_defaults():
    positional = DimensionReport(3, 2, (2, 1), 4, 4, 4, (2, 0, 0))
    keywords = DimensionReport(
        pi=(2, 1), m=3, d=2, dim_orbit_sum=4, dim_inner_product=4,
        dim_decomposition=4, nonvanishing_witness=(2, 0, 0),
    )
    assert positional == keywords
    assert positional.rank_dimension is None
    assert Limits() == Limits(10_000_000, 1_000_000, 12)
    assert Limits(7).max_gamma == Limits(max_gamma=7).max_gamma == 7
    for args, kwargs in [
        ((3, 2, (2, 1)), {}),  # missing fields
        ((1, 2, 3, 4), {}),  # too many
        ((), {"max_gamma": 1, "cap": 2}),  # unknown
        ((5,), {"max_gamma": 5}),  # given twice
    ]:
        cls = DimensionReport if len(args) == 3 else Limits
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_asdict_and_replace():
    report = dimension_report(3, 2, (2, 1))
    assert report._asdict() == {
        "m": 3, "d": 2, "pi": (2, 1), "dim_orbit_sum": 4, "dim_inner_product": 4,
        "dim_decomposition": 4, "nonvanishing_witness": (2, 0, 0), "rank_dimension": None,
    }
    ranked = report._replace(rank_dimension=4)
    assert ranked.rank_dimension == 4 and report.rank_dimension is None
    assert ranked == dimension_report(3, 2, (2, 1), verify_rank=True)


@pytest.mark.parametrize(
    "caps, message",
    [
        ({"max_gamma": 0}, "Limits.max_gamma must be a positive integer, got 0"),
        ({"max_group_order": True}, "Limits.max_group_order must be a positive integer, got True"),
        ({"max_character_table_m": "12"},
         "Limits.max_character_table_m must be a positive integer, got '12'"),
        ({"max_gamma": -3}, "Limits.max_gamma must be a positive integer, got -3"),
    ],
)
def test_limits_validation_messages(caps, message):
    with pytest.raises(ValueError) as raised:
        Limits(**caps)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised, use_limits(**caps):
        pass
    assert str(raised.value) == message
    assert limits() == Limits()


def test_use_limits_nests_and_restores():
    assert limits() == Limits()
    with use_limits(max_gamma=50):
        assert limits() == Limits(max_gamma=50)
        with use_limits(max_group_order=7):
            assert limits() == Limits(max_gamma=50, max_group_order=7)
            with use_limits(max_gamma=3):
                assert limits() == Limits(max_gamma=3, max_group_order=7)
            assert limits() == Limits(max_gamma=50, max_group_order=7)
        assert limits() == Limits(max_gamma=50)
        with pytest.raises(RuntimeError), use_limits(max_character_table_m=2):
            assert limits().max_character_table_m == 2
            raise RuntimeError
        assert limits() == Limits(max_gamma=50)
    assert limits() == Limits()
    with pytest.raises(TypeError), use_limits(max_elements=5):
        pass
    assert limits() == Limits()

