import sys
import time
import tracemalloc

import pytest

from oracles import brute_force_orbit_types, brute_force_witness
import relsym.dimensions as dimensions
import relsym.partitions as partitions
import relsym.symmetrizer as symmetrizer
from relsym.characters import (
    ClassFunction,
    character_table,
    inner_product,
    restricted_trivial_inner_product,
)
from relsym.config import use_limits
from relsym.denumerant import denumerant_class_function
from relsym.dimensions import (
    ROUTES,
    DimensionReport,
    dim_via_decomposition,
    dim_via_hook_denumerant,
    dim_via_inner_product,
    dim_via_orbit_sum,
    dimension_report,
    is_nonvanishing,
    rank_verification_applies,
)
from relsym.errors import ConsistencyError, ResourceLimitError
from relsym.partitions import enumerate_partitions, gamma_size


def test_orbit_sum_examples():
    assert dim_via_orbit_sum(3, 2, (2, 1)) == 4
    assert dim_via_orbit_sum(3, 2, (3,)) == 2
    assert dim_via_orbit_sum(3, 2, (1, 1, 1)) == 0


def test_orbit_sum_checks_the_character_cap_before_the_orbit_types():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        dim_via_orbit_sum(13, 80, (7, 6))
    assert time.perf_counter() - start < 1


def test_inner_product_examples():
    assert dim_via_inner_product(3, 2, (2, 1)) == 4
    assert dim_via_inner_product(2, 2, (1, 1)) == 1
    for m in (1, 3, 5):
        assert dim_via_inner_product(m, 0, (m,)) == 1


def test_decomposition_examples():
    assert dim_via_decomposition(3, 2, (2, 1)) == 4
    assert dim_via_decomposition(3, 3, (1, 1, 1)) == 1
    assert dim_via_decomposition(4, 1, (2, 2)) == 0


def test_argument_validation():
    with pytest.raises(ValueError):
        dim_via_orbit_sum(4, 2, (2, 1))
    with pytest.raises(ValueError):
        dim_via_inner_product(3, -1, (2, 1))


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("d", range(0, 7))
def test_triple_agreement_small(m, d):
    for pi in enumerate_partitions(m):
        a = dim_via_orbit_sum(m, d, pi)
        b = dim_via_inner_product(m, d, pi)
        c = dim_via_decomposition(m, d, pi)
        assert a == b == c


@pytest.mark.parametrize("m", range(1, 8))
@pytest.mark.parametrize("d", range(0, 11))
def test_full_space_partition(m, d):
    total = sum(dim_via_inner_product(m, d, pi) for pi in enumerate_partitions(m))
    assert total == gamma_size(m, d)


def test_nonvanishing_examples():
    assert is_nonvanishing(3, 2, (1, 1, 1)) == (False, None)
    assert is_nonvanishing(3, 3, (1, 1, 1)) == (True, (2, 1, 0))
    assert is_nonvanishing(5, 1, (4, 1)) == (True, (1, 0, 0, 0, 0))


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("d", range(0, 16))
def test_witness_is_first_dominated_vector(m, d):
    for pi in enumerate_partitions(m):
        witness = brute_force_witness(m, d, pi)
        # the closed form: a witness exists exactly when d >= b(pi) = sum (i - 1) * pi_i
        assert (witness is not None) == (d >= sum(i * p for i, p in enumerate(pi)))
        assert is_nonvanishing(m, d, pi) == (witness is not None, witness)


def test_witness_search_stops_at_the_witness():
    # (30, 60) has about 10**6 orbits; the first one is the witness
    tracemalloc.start()
    try:
        result = is_nonvanishing(30, 60, (30,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (True, (60,) + (0,) * 29)
    assert peak < 1_000_000


@pytest.mark.parametrize("m", range(1, 8))
def test_sign_character_threshold(m):
    sign = (1,) * m
    threshold = m * (m - 1) // 2
    for d in range(0, threshold + 3):
        nonzero, witness = is_nonvanishing(m, d, sign)
        assert nonzero == (d >= threshold)
        assert (witness is not None) == nonzero


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("d", range(0, 7))
def test_nonvanishing_matches_positivity(m, d):
    for pi in enumerate_partitions(m):
        nonzero, witness = is_nonvanishing(m, d, pi)
        assert nonzero == (dim_via_orbit_sum(m, d, pi) > 0)
        if witness is not None:
            assert sum(witness) == d and len(witness) == m


def test_dimension_report_fields():
    report = dimension_report(3, 2, (2, 1), verify_rank=True)
    assert report.dimension == 4
    assert report.dim_orbit_sum == report.dim_inner_product == report.dim_decomposition == 4
    assert report.rank_dimension == 4
    assert report.nonvanishing_witness == (2, 0, 0)

    vanished = dimension_report(3, 2, (1, 1, 1), verify_rank=True)
    assert vanished.dimension == 0
    assert vanished.rank_dimension == 0
    assert vanished.nonvanishing_witness is None


def test_rank_verification_window():
    assert rank_verification_applies(3, 2)
    assert rank_verification_applies(5, 6)
    assert not rank_verification_applies(7, 2)
    assert not rank_verification_applies(5, 40)


def test_report_without_rank():
    report = dimension_report(6, 3, (4, 2))
    assert report.rank_dimension is None
    assert report.dimension == report.dim_orbit_sum


_CHECKS = [
    "orbit_sum equals inner_product",
    "orbit_sum equals decomposition",
    "non-vanishing matches positivity",
    "rank equals formulas",
]


def _assert_report_fails(failed):
    with pytest.raises(ConsistencyError) as info:
        dimension_report(3, 2, (2, 1), verify_rank=True)
    for name in _CHECKS:
        assert (name in str(info.value)) == (name in failed), name


@pytest.mark.parametrize("route", ROUTES)
def test_report_names_a_wrong_route(monkeypatch, route):
    right = getattr(dimensions, f"_{route}")
    monkeypatch.setattr(dimensions, f"_{route}", lambda m, d, pi: right(m, d, pi) + 1)
    if route == ROUTES[0]:
        # the first route is the report's dimension, which the rank checks too
        others = [f"{route} equals {other}" for other in ROUTES[1:]]
        _assert_report_fails(others + ["rank equals formulas"])
    else:
        _assert_report_fails([f"{ROUTES[0]} equals {route}"])


def test_report_names_a_missing_witness(monkeypatch):
    monkeypatch.setattr(dimensions, "_witness", lambda d, pi: (False, None))
    _assert_report_fails(["non-vanishing matches positivity"])


def test_report_names_a_wrong_rank(monkeypatch):
    monkeypatch.setattr(symmetrizer, "dimension_by_rank", lambda group, spec, d: 99)
    _assert_report_fails(["rank equals formulas"])


def test_routes_are_looked_up_when_the_report_runs(monkeypatch):
    calls = []
    right = dimensions._inner_product

    def counting(m, d, pi):
        calls.append((m, d, pi))
        return right(m, d, pi)

    monkeypatch.setattr(dimensions, "_inner_product", counting)
    dimension_report(3, 2, [2, 1])
    dimension_report(4, 3, (2, 2), verify_rank=True)
    # the core gets the partition as the report checked it, a tuple
    assert calls == [(3, 2, (2, 1)), (4, 3, (2, 2))]


def test_every_route_has_a_report_field():
    fields = set(DimensionReport.__slots__)
    for name in ROUTES:
        assert f"dim_{name}" in fields
        assert callable(getattr(dimensions, f"dim_via_{name}"))
        assert callable(getattr(dimensions, f"_{name}"))


def _entries(functions, run):
    """How many times each function is entered while ``run()`` runs, under
    whatever name any module binds it to."""
    counts = {f.__code__: 0 for f in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return [counts[f.__code__] for f in functions]


def test_one_report_checks_its_input_once():
    partitions._orbit_types.cache_clear()
    checks = [dimensions._check_args, partitions.check_partition]
    assert _entries(checks, lambda: dimension_report(7, 9, (4, 2, 1))) == [1, 1]


# one malformed input per class, with the message every public name gives;
# a float d once passed, and is_nonvanishing answered (True, (2.5, 0, 0))
_MALFORMED = [
    pytest.param((0, 2, ()), "m must be at least 1, got 0", id="m-below-1"),
    pytest.param((3.0, 2, (2, 1)), "m must be an integer, got 3.0", id="m-not-an-int"),
    pytest.param((3, -1, (2, 1)), "d must be non-negative, got -1", id="d-negative"),
    pytest.param((3, 2.5, (2, 1)), "d must be an integer, got 2.5", id="d-not-an-int"),
    pytest.param((4, 2, (2, 1)), "(2, 1) is a partition of 3, not 4", id="wrong-weight"),
    pytest.param((3, 2, (1, 2)), "partition parts must be weakly decreasing, got (1, 2)",
                 id="not-decreasing"),
    pytest.param((3, 2, (2, 1, 0)), "partition parts must be positive, got (2, 1, 0)",
                 id="zero-part"),
    pytest.param((3, 2, (2.0, 1)), "partition entries must be integers, got (2.0, 1)",
                 id="part-not-an-int"),
]


@pytest.mark.parametrize("args, message", _MALFORMED)
@pytest.mark.parametrize("public", [
    dim_via_orbit_sum, dim_via_inner_product, dim_via_decomposition, dim_via_hook_denumerant,
    is_nonvanishing, dimension_report,
], ids=lambda f: f.__name__)
def test_every_public_name_rejects_malformed_input_with_one_message(public, args, message):
    with pytest.raises(ValueError) as info:
        public(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("first, second", [(True, 1), (1, True)])
def test_a_bool_m_is_reported_as_an_int(first, second):
    partitions._walked_partitions.cache_clear()
    for m in (first, second):
        report = dimension_report(m, 2, (1,), verify_rank=True)
        assert type(report.m) is int and report.m == 1
        assert report.by_route() == [(name, 1) for name in ROUTES] + [("matrix_rank", 1)]


def test_a_lowered_cap_refuses_a_report_whose_counts_are_cached():
    dimension_report(5, 4, (3, 2))  # its counts, row and degree are now cached
    cached = (dimensions._character_row, dimensions._degree, dimensions._weighted_counts)
    before = [f.cache_info() for f in cached]
    with use_limits(max_character_table_m=4):
        for public in (dimension_report, dim_via_orbit_sum, dim_via_inner_product,
                       dim_via_decomposition):
            with pytest.raises(ResourceLimitError, match="^the degree m of a character row"):
                public(5, 4, (3, 2))
    assert [f.cache_info() for f in cached] == before  # the cap refused before any read
    assert dimension_report(5, 4, (3, 2)).dimension == dim_via_hook_denumerant(5, 4, (3, 2))


@pytest.mark.parametrize("m", range(1, 9))
def test_the_inner_product_core_pairs_the_row_with_the_solution_counts(m):
    table = character_table(m)
    for d in range(0, 13):
        counts = denumerant_class_function(m, d)
        for pi, row in table.items():
            expected = inner_product(ClassFunction(m, row), counts)
            assert dimensions._inner_product(m, d, pi) == expected


@pytest.mark.parametrize("args, message", [
    pytest.param(((2, 1), (2, 2)), "(2, 2) is a partition of 4, not 3", id="wrong-weight"),
    pytest.param(((1, 2), (2, 1)), "partition parts must be weakly decreasing, got (1, 2)",
                 id="pi-not-decreasing"),
    pytest.param(((2, 1), (1, 2)), "partition parts must be weakly decreasing, got (1, 2)",
                 id="mu-not-decreasing"),
    pytest.param(((2, 1), (3, 0)), "partition parts must be positive, got (3, 0)",
                 id="zero-part"),
    pytest.param(((2.0, 1), (2, 1)), "partition entries must be integers, got (2.0, 1)",
                 id="pi-not-ints"),
    pytest.param(((2, 1), (2, 1.0)), "partition entries must be integers, got (2, 1.0)",
                 id="mu-not-ints"),
])
def test_restricted_trivial_inner_product_rejects_malformed_input(args, message):
    with pytest.raises(ValueError) as info:
        restricted_trivial_inner_product(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("d", range(0, 16))
def test_hook_route_agrees_with_the_three_routes(m, d):
    for pi in enumerate_partitions(m):
        hook = dim_via_hook_denumerant(m, d, pi)
        assert hook == dim_via_orbit_sum(m, d, pi)
        assert hook == dim_via_inner_product(m, d, pi)
        assert hook == dim_via_decomposition(m, d, pi)


@pytest.mark.parametrize("m", range(1, 13))
@pytest.mark.parametrize("d", [0, 1, 7, 20])
def test_hook_route_of_the_trivial_character_counts_partitions(m, d):
    # the trivial character's space is spanned by the monomial symmetric
    # functions: one per partition of d into at most m parts
    assert dim_via_hook_denumerant(m, d, (m,)) == len(enumerate_partitions(d, m))


def test_hook_route_reads_no_character_value():
    # beyond the character cap, where the other routes refuse
    with pytest.raises(ResourceLimitError):
        dim_via_orbit_sum(13, 30, (7, 6))
    hook = dim_via_hook_denumerant(13, 30, (7, 6))
    with use_limits(max_character_table_m=13):
        assert hook == dim_via_orbit_sum(13, 30, (7, 6)) > 0
    start = time.perf_counter()
    assert dim_via_hook_denumerant(40, 400, (40,)) > 0
    assert time.perf_counter() - start < 1


def test_hook_route_validates_like_the_others():
    with pytest.raises(ValueError):
        dim_via_hook_denumerant(4, 2, (2, 1))
    with pytest.raises(ValueError):
        dim_via_hook_denumerant(3, -1, (2, 1))
    assert dim_via_hook_denumerant(3, 2, (1, 1, 1)) == 0


def test_one_report_counts_the_orbit_types_by_one_dp(monkeypatch):
    # both routes that read the orbit types share one DP run, and no route
    # streams an orbit
    def stream(m, d):
        raise AssertionError(f"streamed the orbits of Gamma({m}, {d})")

    monkeypatch.setattr(partitions, "_orbit_stream", stream)
    partitions._orbit_types.cache_clear()
    dimensions._denumerant._young_decomposition.cache_clear()
    dimension_report(7, 9, (4, 2, 1))
    info = partitions._orbit_types.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    types = sorted(brute_force_orbit_types(7, 9).items(), reverse=True)
    assert partitions._orbit_types(7, 9) == tuple(types)
