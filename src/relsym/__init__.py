"""Exact counting of coin-change solutions and its realization as symmetric
group character theory, with relative symmetric polynomials as the
ground-truth construction.

Everything is computed in exact integer or rational arithmetic.  The main
entry points are re-exported here; the ``relsym`` console script exposes the
same computations on the command line.
"""

from .characters import (
    ClassFunction,
    character_table,
    induced_trivial_character,
    inner_product,
    irreducible_character_value,
    irreducible_class_function,
    restricted_trivial_inner_product,
    trivial_character,
)
from .config import limits, use_limits
from .denumerant import (
    denumerant,
    denumerant_by_induced_characters,
    denumerant_class_function,
    denumerant_decomposition,
    hook_decomposition,
)
from .dimensions import (
    DimensionReport,
    dim_via_decomposition,
    dim_via_hook_denumerant,
    dim_via_inner_product,
    dim_via_orbit_sum,
    dimension_report,
    is_nonvanishing,
)
from .errors import ConsistencyError, ResourceLimitError
from .groups import PermutationGroup
from .irreducibles import integer_irreducible_characters
from .partitions import (
    class_size,
    dominates,
    enumerate_gamma,
    enumerate_partitions,
    multiplicity_factorial,
    multiplicity_partition,
    orbit_representatives,
    orbit_type_counts,
)
from .symmetrizer import (
    CharacterSpec,
    SymmetrizedPolynomial,
    dimension_by_character_sum,
    dimension_by_rank,
    norm_squared,
    sn_character_spec,
    symmetrize_monomial,
    symmetrize_polynomial,
)
from .tableaux import Tableau, enumerate_ssyt, hook_lengths, kostka

__version__ = "0.1.0"
