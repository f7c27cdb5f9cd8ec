"""Explicit relative symmetric polynomials for subgroups of a symmetric
group with integer-valued irreducible characters.

The averaging operator scaled by the character degree projects the space of
degree-d homogeneous polynomials onto its isotypic component.  Applying it
to single monomials and working with exact rational coefficients gives a
ground-truth construction against which every counting formula in the
package can be checked: norms, vanishing, and dimensions (the latter by
exact integer rank of the symmetrized-monomial coefficient matrix).

Integer-valued characters keep all arithmetic in the rationals; this covers
every irreducible character of a full symmetric group, but excludes, for
example, the faithful characters of a cyclic group of order three.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .characters import _row
from .config import Record, check_cap, limits
from .denumerant import denumerant
from .errors import ConsistencyError
from .groups import (
    PermutationGroup,
    Permutation,
    _getter,
    apply_to_exponents,
    cycle_type,
    identity_permutation,
    inverse,
)
from .linalg import symmetric_rank
from .partitions import (
    ExponentVector,
    _check_gamma,
    _check_m_d,
    check_exponent_vector,
    check_partition,
    enumerate_gamma,
)


class CharacterSpec:
    """An integer-valued irreducible character of a permutation group,
    stored per element for fast symmetrizing.

    Construction validates that the values are integers (kept as plain
    ints), that they are constant on conjugacy classes, that the degree is
    positive, and that the character pairs to 1 with itself (the
    irreducibility used by the projection identities).
    """

    def __init__(self, group: PermutationGroup, values: Mapping[Permutation, int]):
        element_values = {}
        for g, value in values.items():
            try:
                element_values[g] = operator.index(value)
            except TypeError:
                raise ValueError(
                    f"character values must be integers, got {value!r} for the element {g}"
                ) from None
        if set(element_values) != set(group.elements):
            raise ValueError("need a value for every group element")
        for cls in group.conjugacy_classes():
            first = element_values[cls[0]]
            if any(element_values[g] != first for g in cls):
                raise ValueError("character values must be constant on conjugacy classes")
        identity = identity_permutation(group.m)
        degree = element_values[identity]
        if degree < 1:
            raise ValueError("character degree must be positive")
        pairing = sum(
            element_values[g] * element_values[inverse(g)] for g in group.elements
        )
        if pairing != group.order:
            raise ValueError(
                f"self inner product is {Fraction(pairing, group.order)}, "
                "not 1: the character is not irreducible"
            )
        self.group = group
        self.degree = degree
        self._by_element = {g: element_values[g] for g in group.elements}

    @classmethod
    def from_class_values(
        cls, group: PermutationGroup, class_values: Mapping[Permutation, int]
    ) -> "CharacterSpec":
        """Build from one value per conjugacy class representative;
        membership is resolved by conjugacy search in the element list."""
        remaining = dict(class_values)
        values: dict[Permutation, int] = {}
        for group_class in group.conjugacy_classes():
            members = set(group_class)
            hits = [rep for rep in remaining if tuple(rep) in members]
            if len(hits) != 1:
                raise ValueError(
                    f"need exactly one representative per class, got {len(hits)} "
                    f"for the class of {group_class[0]}"
                )
            value = remaining.pop(hits[0])
            for g in group_class:
                values[g] = value
        if remaining:
            raise ValueError("some given representatives lie outside the group")
        return cls(group, values)

    def items(self):
        """``(element, value)`` pairs in the group's element order."""
        return self._by_element.items()


def sn_character_spec(m: int, pi: Sequence[int]) -> CharacterSpec:
    """The irreducible character of the full symmetric group indexed by the
    partition ``pi``, as a CharacterSpec on the standard group."""
    pi = check_partition(pi, m)
    m, _ = _check_m_d(m)  # before the cache: 2.0 must not hit the key 2
    group = _symmetric_group(m)
    # a hit skips the closure that checks the group cap, so check it here,
    # with the order the closure would have reached
    cap = limits().max_group_order
    check_cap("max_group_order", min(group.order, cap + 1), "the group order is at least")
    row = _row(pi)
    return CharacterSpec(group, {g: row[cycle_type(g)] for g in group.elements})


# S_m holds m! elements: S_1, ..., S_8 hold 46,233 in all, and the largest
# group the default group cap admits, S_9, holds 362,880.
@lru_cache(maxsize=8)
def _symmetric_group(m: int) -> PermutationGroup:
    """``PermutationGroup.symmetric(m)``, one per m, for the characters of
    ``sn_character_spec``: characters of one S_m then share its classes
    and its orbit structures."""
    return PermutationGroup.symmetric(m)


class SymmetrizedPolynomial(Record):
    """Exact rational coefficients over the monomial basis of one degree;
    zero coefficients are omitted and the zero polynomial is the empty map."""

    __slots__ = ("m", "d", "coefficients")  # coefficients: Mapping[ExponentVector, Fraction]

    def norm_squared(self) -> Fraction:
        return sum((c * c for c in self.coefficients.values()), Fraction(0))


def _check_group(group: PermutationGroup, chi: CharacterSpec) -> None:
    if group.elements != chi.group.elements:
        raise ValueError("the character is not a character of the given group")


def symmetrize_monomial(
    group: PermutationGroup, chi: CharacterSpec, alpha: Sequence[int]
) -> SymmetrizedPolynomial:
    """Image of a single monomial under the degree-scaled averaging
    operator: the coefficient of the target exponent vector is
    degree / order times the character sum over the permutations carrying
    the source onto it."""
    alpha = check_exponent_vector(alpha, group.m)
    _check_group(group, chi)
    sums: dict[ExponentVector, int] = {}
    for g, value in chi.items():
        if value:
            beta = apply_to_exponents(g, alpha)
            sums[beta] = sums.get(beta, 0) + value
    scale = Fraction(chi.degree, group.order)
    terms = {beta: c * scale for beta, c in sums.items() if c}
    return SymmetrizedPolynomial(group.m, sum(alpha), terms)


def norm_squared(
    group: PermutationGroup, chi: CharacterSpec, alpha: Sequence[int]
) -> Fraction:
    """Squared norm of the symmetrized monomial, degree * [chi, 1]_stab / index
    = degree * (chi summed over the stabilizer) / order, which is alpha's own
    coefficient in it, checked against the coefficient sum (equal for integer
    characters: the projection is self-adjoint)."""
    alpha = check_exponent_vector(alpha, group.m)
    return _checked_norm(symmetrize_monomial(group, chi, alpha), alpha)


def _checked_norm(poly: SymmetrizedPolynomial, alpha: ExponentVector) -> Fraction:
    formula = poly.coefficients.get(alpha, Fraction(0))
    direct = poly.norm_squared()
    if formula != direct:
        raise ConsistencyError(
            f"norm mismatch for {alpha}: formula {formula}, coefficients {direct}"
        )
    return formula


def _indices(values: Iterable[int], n: int) -> bytes | tuple[int, ...]:
    """Column indices below ``n``, one byte each where they fit; either way
    immutable, as the cache hands the same ones to every call."""
    return bytes(values) if n <= 256 else tuple(values)


def _level_set_key(vector: ExponentVector) -> tuple[int, ...]:
    """``vector`` relabelled by first occurrence, each entry replaced by the
    position where its value first occurs, (2, 0, 2) -> (0, 1, 0): equal
    exactly for vectors with the same level-set partition, the partition of
    the positions by equal entries."""
    return tuple(map(vector.index, vector))


# The element tuple compares by value, so equal groups built apart share an
# entry, and no entry keeps a group alive.  Per level-set class, not per
# orbit: with C classes whose first orbits have sizes n, an entry holds
# those orbits' vectors and C * |G| + sum of n**2 <= 2 * |Gamma| * |G|
# column indices, a byte each below 257 columns.  Within dim --verify's
# window (m <= 6, |Gamma| <= 1000) every orbit of S_m fits a byte, and S_6
# at d = 7 holds the most: 14 orbits in 5 classes, whose first orbits hold
# 396 vectors and 54,936 bytes.  A lib-sweep pass reads 34 keys.
@lru_cache(maxsize=64)
def _orbit_structure(
    elements: tuple[Permutation, ...], d: int
) -> tuple[tuple[tuple[ExponentVector, ...], Sequence[int], Sequence[int], int], ...]:
    """What the blocks of every character of the group with these sorted
    ``elements`` at degree ``d`` share, for checked d, one entry per class
    of orbits of Gamma(m, d) by level-set partition.

    Two orbits are in one class when the group carries the level-set
    partition of a vector of one onto that of a vector of the other: the
    least first-occurrence relabelling over an orbit's vectors is the
    class's key.  Then giving each value of the one vector the value the
    other has at the same positions maps the first orbit onto the second
    and commutes with the group, so the two blocks are one matrix with
    rows and columns permuted alike, and rank alike.

    Per class, in the order its first orbit appears: that orbit's vectors
    in lexicographic order, the column of g.alpha for each element g in
    order (alpha the orbit's first vector), the block's fill map, row by
    row: the entry of row beta = h.alpha in column k is the first row's
    entry in the column of inverse(h).orbit[k], and the number of orbits
    in the class."""
    acting = [_getter(g) for g in elements]
    classes: dict[tuple[int, ...], list] = {}
    seen: set[ExponentVector] = set()
    for alpha in enumerate_gamma(len(elements[0]), d):
        if alpha in seen:
            continue
        images = [act(alpha) for act in acting]
        members = set(images)
        seen.update(members)
        key = min(map(_level_set_key, members))
        if key in classes:
            classes[key][3] += 1
            continue
        carrier: dict[ExponentVector, Permutation] = {}  # beta -> an h carrying alpha to it
        for g, beta in zip(elements, images):
            carrier.setdefault(beta, g)
        orbit = tuple(sorted(carrier))
        n = len(orbit)
        column = {beta: j for j, beta in enumerate(orbit)}.__getitem__
        fill = _indices(chain.from_iterable(
            map(column, map(_getter(inverse(carrier[beta])), orbit)) for beta in orbit
        ), n)
        classes[key] = [orbit, _indices(map(column, images), n), fill, 1]
    return tuple(map(tuple, classes.values()))


def _orbit_blocks(
    group: PermutationGroup, chi: CharacterSpec, d: int
) -> Iterator[tuple[tuple[ExponentVector, ...], list[list[int]], int]]:
    """Yield ``(orbit, block, count)`` for every level-set class of orbits
    of Gamma(m, d) under ``group``: the vectors of the class's first orbit
    in lexicographic order, the integer rows of the symmetrized monomials
    over them, scaled by order / degree, and the number of orbits in the
    class, each of whose blocks is this one with rows and columns permuted
    alike.

    A row for alpha is non-zero only on alpha's orbit, so these blocks,
    each taken ``count`` times, are the whole coefficient matrix, reordered.
    The first row sums chi over the elements by the column each sends alpha
    to; as chi is a class function, row(h.alpha)[h.gamma] = row(alpha)[gamma]
    fills the other rows.  Only that sum reads chi: the classes, columns and
    fill maps are ``_orbit_structure``'s, shared by every character of the
    group at d.  The group check and the checks and cap of
    ``enumerate_gamma`` run first, on every call.
    """
    _check_group(group, chi)
    _, d = _check_gamma(group.m, d)
    values = chi._by_element.values()  # in the group's element order
    for orbit, columns, fill, count in _orbit_structure(group.elements, d):
        n = len(orbit)
        first = [0] * n
        for j, value in zip(columns, values):
            first[j] += value
        entries = list(map(first.__getitem__, fill))
        yield orbit, [entries[i:i + n] for i in range(0, n * n, n)], count


def dimension_by_rank(group: PermutationGroup, chi: CharacterSpec, d: int) -> int:
    """Dimension of the symmetrized degree-d space as the exact rank of the
    matrix whose rows are the symmetrized monomials over all exponent
    vectors, with the common positive factor degree / order cleared.  The
    matrix is block-diagonal by orbit, so its rank is the sum of the
    orbit blocks' ranks.  Orbits whose level-set partitions the group
    carries onto each other have one block up to a permutation of rows and
    columns alike (see ``_orbit_structure``), so each level-set class is
    ranked once, on its first orbit, and counted once per orbit in it.

    Each block is the projection onto the isotypic part of its orbit's span,
    scaled by order / degree: symmetric, as chi(g) = chi(inverse(g)) for an
    integer character, and positive semidefinite.  So ``symmetric_rank``
    ranks it with diagonal pivots over its upper triangle, and refuses a
    block that is not symmetric or has a zero pivot above a nonzero row.
    Its rank must equal its trace times degree / order.  A refused block,
    or one whose elimination disagrees with its trace, raises
    ``ConsistencyError`` naming the class's first orbit by its first
    vector."""
    total = 0
    for orbit, block, count in _orbit_blocks(group, chi, d):
        trace = sum(block[i][i] for i in range(len(orbit)))
        try:
            block_rank = symmetric_rank(block)
        except ConsistencyError as exc:
            raise ConsistencyError(f"the block of the orbit of {orbit[0]}: {exc}") from exc
        if block_rank * group.order != trace * chi.degree:
            raise ConsistencyError(
                f"the block of the orbit of {orbit[0]} has rank {block_rank}, "
                f"but its trace gives {Fraction(trace * chi.degree, group.order)}"
            )
        total += count * block_rank
    return total


def dimension_by_character_sum(
    group: PermutationGroup, chi: CharacterSpec, d: int
) -> int:
    """Dimension of the symmetrized degree-d space from the character paired
    with the solution counts of the cycle-type coin equations, both constant
    on conjugacy classes: one term |K| * chi(K) * count per class K."""
    _, d = _check_m_d(group.m, d)
    _check_group(group, chi)
    total = sum(
        len(cls) * chi._by_element[cls[0]] * denumerant(cycle_type(cls[0]), d)
        for cls in group.conjugacy_classes()
    )
    result = Fraction(chi.degree * total, group.order)
    if result.denominator != 1 or result < 0:
        raise ConsistencyError(
            f"character-sum dimension is not a non-negative integer: {result}"
        )
    return int(result)
