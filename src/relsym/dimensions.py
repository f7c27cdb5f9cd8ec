"""Dimension of the symmetrized degree-d polynomial space for an irreducible
character of the full symmetric group, by three routes, plus the
non-vanishing criterion.

The three routes read different things.  The orbit sum reads the orbit
types of ``partitions._orbit_types`` and restriction multiplicities, which
are character values averaged over Young subgroups.  The inner product reads
one character row and the solution-count class function, a coin DP over
each cycle type.  The decomposition reads the same orbit types and the
Kostka columns K(-, type), and no character value.  ``ROUTES`` names them
in report order: route ``name`` is ``dim_via_<name>``, which checks its input
and runs the core ``_<name>``, and fills the report field ``dim_<name>``;
``dimension_report`` checks once and runs the cores.  Their agreement, and
agreement with the exact-rank construction in the symmetrizer module, is the
package's main acceptance surface; ``DimensionReport.checks`` lists them.

Only the character depends on pi, so a report shares everything else with
the reports of the same (m, d): the orbit types, the solution counts
weighted by class size and the decomposition, each cached once per (m, d),
and the cycle types of each Young subgroup, cached once per shape mu.  The
character row and f^pi are cached once per pi, for every d.  The cores
return multiplicities; the report and each ``dim_via_<name>`` scale them by
f^pi.

A fourth route, ``dim_via_hook_denumerant``, needs no character value: the
multiplicity is a denumerant with the hook lengths of pi as coins.  It is
not in ``ROUTES`` yet, so the report's fields are unchanged.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from functools import lru_cache
from operator import mul

from . import characters, symmetrizer  # run on first use: vanish runs neither
from .config import Record
from .errors import ConsistencyError
from .partitions import (
    ExponentVector,
    Partition,
    _check_m_d,
    _class_size,
    _cycle_types,
    _orbit_types,
    check_partition,
    gamma_size,
)
from .tableaux import _b, _degree

# the denumerant layer, also run on first use; ``relsym.denumerant`` is the
# function of that name, not the layer
_denumerant = sys.modules[f"{__package__}.denumerant"]

ROUTES = ("orbit_sum", "inner_product", "decomposition")


def _check_args(
    m: int, d: int, pi: Sequence[int], character_cap: bool = True
) -> tuple[int, int, Partition]:
    """The checks on (m, d) and pi, then, for a route that reads character
    values, the character cap, before any of its work; (m, d) come back as
    plain ints, pi as a tuple."""
    m, d = _check_m_d(m, d)
    pi = check_partition(pi, m)
    if character_cap:
        characters._classes(m)
    return m, d, pi


def dim_via_orbit_sum(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the sum, over orbit types weighted by their
    orbit counts, of the trivial-restriction multiplicity on the stabilizer.
    Types whose stabilizer admits no trivial constituent contribute 0."""
    m, d, pi = _check_args(m, d, pi)
    return _degree(pi) * _orbit_sum(m, d, pi)


def _orbit_sum(m: int, d: int, pi: Partition) -> int:
    restricted = characters._restricted_trivial_cached
    return sum(count * restricted(pi, shape) for shape, count in _orbit_types(m, d))


def dim_via_inner_product(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the inner product of the character with the
    solution-count class function."""
    m, d, pi = _check_args(m, d, pi)
    return _degree(pi) * _inner_product(m, d, pi)


def _inner_product(m: int, d: int, pi: Partition) -> int:
    total = sum(map(mul, _character_row(pi), _weighted_counts(m, d)))
    pairing, rem = divmod(total, math.factorial(m))
    if rem or pairing < 0:
        raise ConsistencyError(
            f"inner product with the solution-count character is not a "
            f"non-negative integer: {total}/{m}!"
        )
    return pairing


# read only after ``_check_args`` has checked the character cap, which
# ``characters._row`` skips when given the classes
@lru_cache(maxsize=512)  # every pi of m <= 12, the default character cap, fits
def _character_row(pi: Partition) -> tuple[int, ...]:
    """chi^pi on the classes of ``_cycle_types(|pi|)``, in their order."""
    return tuple(characters._row(pi, _cycle_types(sum(pi))).values())


@lru_cache(maxsize=128)  # every m <= 8, d <= 12 fits, in any order
def _weighted_counts(m: int, d: int) -> tuple[int, ...]:
    """|K| times the solution count on K, for each class K of
    ``_cycle_types(m)`` in order: paired with a character row, m! times the
    inner product."""
    sizes = map(_class_size, _cycle_types(m))
    return tuple(map(mul, sizes, _denumerant._solution_counts(m, d)))


def dim_via_decomposition(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the multiplicity of the character in the
    irreducible decomposition of the solution-count class function."""
    m, d, pi = _check_args(m, d, pi)
    return _degree(pi) * _decomposition(m, d, pi)


def _decomposition(m: int, d: int, pi: Partition) -> int:
    return _denumerant._young_decomposition(m, d)[pi]


def dim_via_hook_denumerant(m: int, d: int, pi: Sequence[int]) -> int:
    """Character degree times the multiplicity of the character by the
    money-change equation with its hook lengths as coins.  It reads no
    character value, so the character cap does not bind."""
    m, d, pi = _check_args(m, d, pi, character_cap=False)
    return _degree(pi) * _denumerant._hook_multiplicity(pi, d)


def is_nonvanishing(
    m: int, d: int, pi: Sequence[int]
) -> tuple[bool, ExponentVector | None]:
    """Whether the symmetrized space is non-zero, with a witness: the first
    exponent vector in reverse lexicographic order whose multiplicity
    partition is dominated by ``pi``, or None.

    That happens exactly when d >= b(pi) = sum of (i - 1) * pi_i: the
    multiplicity of chi^pi is the coefficient of q^(d - b(pi)) in a product
    of 1 / (1 - q^h) over hook lengths h, one of which is 1.  The witness is
    built, not searched for: value i - 1 repeated pi_i times, in decreasing
    order, with the surplus d - b(pi) added to the first entry."""
    _, d, pi = _check_args(m, d, pi, character_cap=False)
    return _witness(d, pi)


def _witness(d: int, pi: Partition) -> tuple[bool, ExponentVector | None]:
    surplus = d - _b(pi)
    if surplus < 0:
        return False, None
    witness = [i for i in reversed(range(len(pi))) for _ in range(pi[i])]
    witness[0] += surplus
    return True, tuple(witness)


class DimensionReport(Record):
    """All dimension routes for one (m, d, character) triple, validated to
    agree; the witness is present exactly when the dimension is positive."""

    # the witness and the rank may be None
    __slots__ = (
        "m", "d", "pi", *(f"dim_{name}" for name in ROUTES), "nonvanishing_witness", "rank_dimension"
    )
    _defaults = {"rank_dimension": None}

    @property
    def dimension(self) -> int:
        return getattr(self, f"dim_{ROUTES[0]}")

    def by_route(self) -> list[tuple[str, int]]:
        """``(name, dimension)`` per route in order, then ``matrix_rank`` if it ran."""
        out = [(name, getattr(self, f"dim_{name}")) for name in ROUTES]
        if self.rank_dimension is not None:
            out.append(("matrix_rank", self.rank_dimension))
        return out

    def checks(self) -> list[tuple[str, bool]]:
        """Every agreement the report must satisfy, as ``(name, passed)``."""
        out = [
            (f"{ROUTES[0]} equals {name}", getattr(self, f"dim_{name}") == self.dimension)
            for name in ROUTES[1:]
        ]
        positive = self.nonvanishing_witness is not None
        out.append(("non-vanishing matches positivity", positive == (self.dimension > 0)))
        if self.rank_dimension is not None:
            out.append(("rank equals formulas", self.rank_dimension == self.dimension))
        return out


# rank verification stays affordable up to this many exponent vectors
_RANK_VERIFY_MAX_M = 6
_RANK_VERIFY_MAX_GAMMA = 1000
RANK_VERIFY_WINDOW = f"m <= {_RANK_VERIFY_MAX_M} and |Gamma(m, d)| <= {_RANK_VERIFY_MAX_GAMMA}"


def rank_verification_applies(m: int, d: int) -> bool:
    return m <= _RANK_VERIFY_MAX_M and gamma_size(m, d) <= _RANK_VERIFY_MAX_GAMMA


def dimension_report(
    m: int, d: int, pi: Sequence[int], verify_rank: bool = False
) -> DimensionReport:
    """Compute every route in ``ROUTES``, the non-vanishing witness and, at
    small sizes, the exact rank; raise if any of the report's checks fails."""
    m, d, pi = _check_args(m, d, pi)
    # the cores give multiplicities; f^pi is computed once and scales each.
    # Cores by module-global name when the report runs, so a rebound one is called
    degree = _degree(pi)
    dims = [degree * globals()[f"_{name}"](m, d, pi) for name in ROUTES]
    _, witness = _witness(d, pi)
    rank = None
    if verify_rank and rank_verification_applies(m, d):
        spec = symmetrizer.sn_character_spec(m, pi)
        rank = symmetrizer.dimension_by_rank(spec.group, spec, d)
    report = DimensionReport(m, d, pi, *dims, witness, rank)
    failed = [name for name, ok in report.checks() if not ok]
    if failed:
        raise ConsistencyError(f"checks failed: {'; '.join(failed)} ({report})")
    return report
