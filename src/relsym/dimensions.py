"""Dimension of the symmetrized degree-d polynomial space for an irreducible
character of the full symmetric group, three independent ways, plus the
non-vanishing criterion.

The three routes share nothing beyond the character table: a sum of
restriction multiplicities over exponent orbits, a character inner product
against the solution-count class function, and the irreducible multiplicity
taken from the decomposition of that class function.  Their agreement, and
agreement with the exact-rank construction in the symmetrizer module, is the
package's main acceptance surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .characters import (
    character_table,
    inner_product,
    irreducible_class_function,
    restricted_trivial_inner_product,
)
from .denumerant import denumerant_class_function, denumerant_decomposition
from .errors import ConsistencyError
from .partitions import (
    ExponentVector,
    Partition,
    _multiplicities,
    _orbit_stream,
    check_partition,
    dominates,
    gamma_size,
    orbit_type_counts,
)
from .symmetrizer import dimension_by_rank, sn_character_spec


def _degree(pi: Partition) -> int:
    return character_table(sum(pi))[pi][(1,) * sum(pi)]


def _check_args(m: int, d: int, pi: Sequence[int]) -> Partition:
    pi = check_partition(pi)
    if sum(pi) != m:
        raise ValueError(f"{pi} is not a partition of {m}")
    if d < 0:
        raise ValueError("degree must be non-negative")
    return pi


def dim_via_orbit_sum(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the sum, over orbit types weighted by their
    orbit counts, of the trivial-restriction multiplicity on the stabilizer.
    Types whose stabilizer admits no trivial constituent contribute 0."""
    pi = _check_args(m, d, pi)
    total = 0
    for shape, count in orbit_type_counts(m, d).items():
        total += count * restricted_trivial_inner_product(pi, shape)
    return _degree(pi) * total


def dim_via_inner_product(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the inner product of the character with the
    solution-count class function."""
    pi = _check_args(m, d, pi)
    pairing = inner_product(irreducible_class_function(pi), denumerant_class_function(m, d))
    if pairing.denominator != 1 or pairing < 0:
        raise ConsistencyError(
            f"inner product with the solution-count character is not a "
            f"non-negative integer: {pairing}"
        )
    return _degree(pi) * int(pairing)


def dim_via_decomposition(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the multiplicity of the character in the
    irreducible decomposition of the solution-count class function."""
    pi = _check_args(m, d, pi)
    return _degree(pi) * denumerant_decomposition(m, d)[pi]


def is_nonvanishing(
    m: int, d: int, pi: Sequence[int]
) -> tuple[bool, ExponentVector | None]:
    """Whether the symmetrized space is non-zero: true exactly when some
    exponent vector has a multiplicity partition dominated by ``pi``.
    Returns the first witnessing orbit representative in reverse
    lexicographic order, or None, streaming the representatives until then."""
    pi = _check_args(m, d, pi)
    for nu in _orbit_stream(m, d):
        if dominates(pi, _multiplicities(nu)):
            return True, nu
    return False, None


@dataclass(frozen=True)
class DimensionReport:
    """All dimension routes for one (m, d, character) triple, validated to
    agree; the witness is present exactly when the dimension is positive."""

    m: int
    d: int
    pi: Partition
    dim_orbit_sum: int
    dim_inner_product: int
    dim_decomposition: int
    nonvanishing_witness: ExponentVector | None
    rank_dimension: int | None = None

    @property
    def dimension(self) -> int:
        return self.dim_orbit_sum


# rank verification stays affordable up to this many exponent vectors
_RANK_VERIFY_MAX_M = 5
_RANK_VERIFY_MAX_GAMMA = 1000


def rank_verification_applies(m: int, d: int) -> bool:
    return m <= _RANK_VERIFY_MAX_M and gamma_size(m, d) <= _RANK_VERIFY_MAX_GAMMA


def dimension_report(
    m: int, d: int, pi: Sequence[int], verify_rank: bool = False
) -> DimensionReport:
    """Compute all three formula dimensions, check agreement and the
    non-vanishing criterion, and optionally (small sizes) confirm against
    the exact-rank construction."""
    pi = _check_args(m, d, pi)
    orbit = dim_via_orbit_sum(m, d, pi)
    pairing = dim_via_inner_product(m, d, pi)
    decomposition = dim_via_decomposition(m, d, pi)
    if not orbit == pairing == decomposition:
        raise ConsistencyError(
            f"dimension formulas disagree for m={m}, d={d}, pi={pi}: "
            f"{orbit}, {pairing}, {decomposition}"
        )
    nonzero, witness = is_nonvanishing(m, d, pi)
    if nonzero != (orbit > 0):
        raise ConsistencyError(
            f"non-vanishing criterion contradicts the dimension for "
            f"m={m}, d={d}, pi={pi}"
        )
    rank_dim = None
    if verify_rank and rank_verification_applies(m, d):
        spec = sn_character_spec(m, pi)
        rank_dim = dimension_by_rank(spec.group, spec, d)
        if rank_dim != orbit:
            raise ConsistencyError(
                f"rank construction disagrees with the formulas for "
                f"m={m}, d={d}, pi={pi}: {rank_dim} vs {orbit}"
            )
    return DimensionReport(
        m=m,
        d=d,
        pi=pi,
        dim_orbit_sum=orbit,
        dim_inner_product=pairing,
        dim_decomposition=decomposition,
        nonvanishing_witness=witness,
        rank_dimension=rank_dim,
    )
