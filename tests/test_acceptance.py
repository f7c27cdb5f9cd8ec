"""Full-range acceptance checks.

Every check is exact (no tolerances) and each test prints one PASS/FAIL
line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math

from oracles import (
    brute_force_orbit_types,
    orbit_sum_by_assignment,
    subgroups,
    symmetric_group_elements,
    verify_trace_identity,
)
from relsym.characters import (
    character_table,
    class_function_from_decomposition,
    restricted_trivial_inner_product,
)
from relsym.denumerant import (
    denumerant,
    denumerant_class_function,
    denumerant_decomposition,
)
from relsym.dimensions import (
    dim_via_decomposition,
    dim_via_inner_product,
    dim_via_orbit_sum,
    is_nonvanishing,
)
from relsym.groups import PermutationGroup
from relsym.partitions import _class_size, dominates, enumerate_partitions
from relsym.partitions import enumerate_gamma
from relsym.irreducibles import integer_irreducible_characters
from relsym.symmetrizer import (
    CharacterSpec,
    dimension_by_rank,
    sn_character_spec,
    symmetrize_monomial,
)
from relsym.tableaux import kostka


def _report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status}")
    assert not failures, f"{name}: {failures[:5]} (+{max(0, len(failures) - 5)} more)"


def test_denumerant_three_route_agreement():
    failures = []
    for m in range(1, 9):
        for d in range(0, 13):
            by_counting = denumerant_class_function(m, d)
            by_assignment = orbit_sum_by_assignment(m, brute_force_orbit_types(m, d).items())
            by_decomposition = class_function_from_decomposition(
                m, denumerant_decomposition(m, d)
            )
            for lam in enumerate_partitions(m):
                direct = denumerant(lam, d)
                values = (
                    by_counting.values[lam],
                    by_assignment[lam],
                    by_decomposition.values[lam],
                )
                if any(v != direct for v in values):
                    failures.append((m, d, lam, direct, values))
    _report("denumerant-three-route-agreement", failures)


def test_dimension_triple_agreement():
    failures = []
    for m in range(1, 8):
        for d in range(0, 11):
            for pi in enumerate_partitions(m):
                a = dim_via_orbit_sum(m, d, pi)
                b = dim_via_inner_product(m, d, pi)
                c = dim_via_decomposition(m, d, pi)
                if not a == b == c:
                    failures.append((m, d, pi, a, b, c))
    for m in range(1, 7):
        for d in range(0, 7 if m < 6 else 6):
            for pi in enumerate_partitions(m):
                spec = sn_character_spec(m, pi)
                rank = dimension_by_rank(spec.group, spec, d)
                if rank != dim_via_orbit_sum(m, d, pi):
                    failures.append((m, d, pi, "rank", rank))
    _report("dimension-triple-agreement", failures)


def test_nonvanishing_matches_positivity():
    failures = []
    for m in range(1, 8):
        for d in range(0, 11):
            for pi in enumerate_partitions(m):
                nonzero, witness = is_nonvanishing(m, d, pi)
                positive = dim_via_orbit_sum(m, d, pi) > 0
                if nonzero != positive or (witness is not None) != nonzero:
                    failures.append((m, d, pi, nonzero, positive))
    for m in range(1, 8):
        sign = (1,) * m
        threshold = m * (m - 1) // 2
        for d in range(0, threshold + 3):
            nonzero, _ = is_nonvanishing(m, d, sign)
            if nonzero != (d >= threshold):
                failures.append((m, d, "sign", nonzero))
    _report("nonvanishing-iff-positive-dimension", failures)


def test_trace_identity():
    failures = []
    for m in range(1, 7):
        for d in range(0, 9):
            if not verify_trace_identity(m, d, denumerant_class_function(m, d).values):
                failures.append((m, d))
    _report("fixed-point-trace-identity", failures)


def test_kostka_dual_computation():
    failures = []
    for m in range(1, 8):
        for mu in enumerate_partitions(m):
            for pi in enumerate_partitions(m):
                k = kostka(mu, pi)
                if k != restricted_trivial_inner_product(mu, pi):
                    failures.append((mu, pi, "restriction"))
                if (k > 0) != dominates(mu, pi):
                    failures.append((mu, pi, "dominance"))
    _report("kostka-dual-computation", failures)


def test_character_table_orthogonality():
    failures = []
    for m in range(1, 9):
        table = character_table(m)
        parts = enumerate_partitions(m)
        sizes = {lam: _class_size(lam) for lam in parts}
        order = math.factorial(m)
        identity = (1,) * m
        for pi in parts:
            for mu in parts:
                total = sum(
                    sizes[lam] * table[pi][lam] * table[mu][lam] for lam in parts
                )
                if total != (order if pi == mu else 0):
                    failures.append((m, pi, mu, total))
        degree_sum = sum(table[pi][identity] ** 2 for pi in parts)
        if degree_sum != order:
            failures.append((m, "degree-sum", degree_sum))
    _report("character-table-orthogonality", failures)


def test_symmetrizer_norms_and_idempotence():
    failures = []
    for elements in subgroups(symmetric_group_elements(4)):
        group = PermutationGroup(elements, 4)
        for found in integer_irreducible_characters(group):
            class_values = dict(zip(found["classes"], found["values"]))
            spec = CharacterSpec.from_class_values(group, class_values)
            for d in range(0, 5):
                for alpha in enumerate_gamma(4, d):
                    once = symmetrize_monomial(group, spec, alpha)
                    formula = spec.degree * _trivial_multiplicity(
                        group, spec, alpha
                    )
                    direct = once.norm_squared()
                    if formula != direct:
                        failures.append((group.order, spec.degree, alpha, "norm"))
                    twice = _symmetrized_again(group, spec, once.coefficients)
                    if twice != once.coefficients:
                        failures.append((group.order, spec.degree, alpha, "idempotence"))
    _report("symmetrizer-norms-and-idempotence", failures)


def _symmetrized_again(group, spec, coefficients):
    """The symmetrizer extended linearly to a polynomial: the sum of c_beta
    times the symmetrized monomial of beta, with zero terms dropped."""
    total = {}
    for beta, c in coefficients.items():
        for gamma, v in symmetrize_monomial(group, spec, beta).coefficients.items():
            total[gamma] = total.get(gamma, 0) + c * v
    return {gamma: v for gamma, v in total.items() if v}


def _trivial_multiplicity(group, spec, alpha):
    from fractions import Fraction

    stab = group.stabilizer(alpha)
    avg = Fraction(sum(value for g, value in spec.items() if g in stab), stab.order)
    return avg / (group.order // stab.order)


def test_spot_values():
    failures = []
    if denumerant_decomposition(3, 2) != {(3,): 2, (2, 1): 2, (1, 1, 1): 0}:
        failures.append("decomposition(3,2)")
    if dim_via_orbit_sum(3, 2, (2, 1)) != 4:
        failures.append("dim(3,2,(2,1))")
    if denumerant((1, 2), 4) != 3:
        failures.append("denumerant((1,2),4)")
    _report("spot-values", failures)
