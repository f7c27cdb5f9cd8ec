"""Exact character theory of the symmetric group.

Irreducible character values are computed by the Murnaghan-Nakayama rule in
its first-column hook (beta number) form.  A partition ``lam`` of length l is
encoded by the strictly decreasing set ``{lam[i] + (l - 1 - i)}``; removing
(adding) a border strip of length r means lowering (raising) one beta number
by r into a vacant slot, and the strip height is the number of beta numbers
jumped over.  chi^pi(lam) is the signed count of paths from ``pi`` to the
empty shape that remove one ribbon per cycle of ``lam``, taken by the layer
walk ``tableaux._layer_walk``; the unit cycles are finished by the hook
length formula, since f^nu paths remove single cells from nu.  Single
values are cached in ``_mn_value``, and a row, the restricted trivial sums
and a class function built from multiplicities read that cache.  A table
runs the walk the other way: one walk per class lam, adding ribbons to the
empty shape, whose last layer holds chi^pi(lam) for every pi, so it fills
no value cache, and its memo of added ribbons lives for that one table.
Rows and tables check ``Limits.max_character_table_m`` before any work.

Class functions are stored by cycle type with exact integer or rational
values, so characters, denumerant traces, and their inner products share
one type.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache

from .config import Record, _setattr, check_cap
from .errors import ConsistencyError
from .partitions import (
    Partition,
    _check_int,
    _check_m_d,
    _class_size,
    _cycle_types,
    check_partition,
    multiplicity_factorial,
)
from .tableaux import _degree, _kostka_column, _layer_walk


def _moved_beads(shape: Partition, shift: int, pad: int) -> tuple[tuple[Partition, int], ...]:
    """Every shape whose beta-set is that of ``shape`` with ``pad`` zero
    parts appended and one bead moved by ``shift`` into a vacant slot, with
    the sign (-1)**(beads jumped), the height of the border strip."""
    length = len(shape) + pad
    beta = [part + length - 1 - i for i, part in enumerate(shape)] + list(range(pad - 1, -1, -1))
    occupied = set(beta)
    out = []
    for b in beta:
        nb = b + shift
        if nb < 0 or nb in occupied:
            continue
        low, high = sorted((b, nb))
        height = sum(1 for other in beta if low < other < high)
        new_beta = sorted([x for x in beta if x != b] + [nb], reverse=True)
        new_shape = tuple(
            x - (length - 1 - i) for i, x in enumerate(new_beta) if x - (length - 1 - i) > 0
        )
        out.append((new_shape, -1 if height % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _ribbons_removed(shape: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """Every shape left by removing a border strip of length ``r`` from
    ``shape``, with the sign (-1)**height of that strip."""
    return _moved_beads(shape, -r, 0)


def _ribbons_added(shape: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """Every shape made by adding a border strip of length ``r`` to
    ``shape``, with the sign (-1)**height of that strip: r zero parts give
    the strip room for r new rows."""
    return _moved_beads(shape, r, r)


@lru_cache(maxsize=None)
def _mn_value(shape: Partition, cycles: Partition) -> int:
    # the unit cycles remove single cells in every order: f^nu ways from nu
    layer = _layer_walk(shape, [c for c in cycles if c > 1], _ribbons_removed)
    return sum(count * _degree(nu) for nu, count in layer.items())


def irreducible_character_value(pi: Sequence[int], lam: Sequence[int]) -> int:
    """Value of the irreducible character indexed by ``pi`` on permutations
    of cycle type ``lam``; both must partition the same integer."""
    pi = check_partition(pi)
    # cycles processed in decreasing length order; lam is already sorted
    return _mn_value(pi, check_partition(lam, sum(pi)))


def _classes(m: int) -> tuple[Partition, ...]:
    """The classes of degree ``m``, once ``m`` is within the character cap."""
    m, _ = _check_m_d(m)
    check_cap("max_character_table_m", m, "the degree m of a character row or table is")
    return _cycle_types(m)


def _row(pi: Partition, classes: Sequence[Partition] | None = None) -> dict[Partition, int]:
    """chi^pi on ``classes``, by default every class of |pi| after the cap."""
    if classes is None:
        classes = _classes(sum(pi))
    return {lam: _mn_value(pi, lam) for lam in classes}


def character_table(m: int) -> dict[Partition, dict[Partition, int]]:
    """Every irreducible character of the symmetric group of degree ``m``,
    keyed ``table[pi][lam]``.  Column lam is one walk up from the empty
    shape that adds a ribbon per part of lam, smallest first: its last
    layer is chi^pi(lam) for every pi at once."""
    classes = _classes(m)
    # a memo for this table only: the columns share their shapes, and a
    # bound fit for one m would thrash at a larger one
    added = lru_cache(maxsize=None)(_ribbons_added)
    columns = [_layer_walk((), lam[::-1], added) for lam in classes]
    return {pi: {lam: col.get(pi, 0) for lam, col in zip(classes, columns)} for pi in classes}


class ClassFunction(Record):
    """A function on a symmetric group constant on conjugacy classes, indexed
    by cycle type.  Values are kept as given, so integral ones stay ints."""

    __slots__ = ("m", "values")  # values: Mapping[Partition, int | Fraction]

    def _validate(self) -> None:
        # a plain int: m = True would key the cached classes of degree 1
        _setattr(self, "m", _check_int(self.m, "m"))
        # no sets of the classes: at m = 36 two of them set qchar's peak memory
        classes = _cycle_types(self.m)
        if len(self.values) != len(classes) or not all(map(self.values.__contains__, classes)):
            raise ValueError(f"need a value for every cycle type of degree {self.m}")

    def __call__(self, lam: Sequence[int]) -> int | Fraction:
        return self.values[check_partition(lam, self.m)]


def class_function_from_decomposition(
    m: int, multiplicities: Mapping[Partition, int]
) -> ClassFunction:
    """Expand integer irreducible multiplicities back into a class function:
    the sum of mult * chi^pi, one row at a time."""
    classes = _classes(m)
    values = dict.fromkeys(classes, 0)
    for pi, mult in multiplicities.items():
        pi = check_partition(pi, m)
        mult = _check_int(mult, f"the multiplicity of {pi}")
        if mult:
            for lam, v in _row(pi, classes).items():
                values[lam] += mult * v
    return ClassFunction(m, values)


def inner_product(phi: ClassFunction, psi: ClassFunction) -> Fraction:
    """The usual character inner product, summed by class.

    All class functions here are rational-valued, so the value on an inverse
    equals the value on the element and no conjugation is needed.
    """
    if phi.m != psi.m:
        raise ValueError("cannot pair class functions of different degrees")
    total = sum(
        _class_size(lam) * phi.values[lam] * psi.values[lam] for lam in _cycle_types(phi.m)
    )
    return Fraction(total, math.factorial(phi.m))


@lru_cache(maxsize=512)  # every shape of m <= 12, the default character cap, fits
def young_subgroup_classes(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """Cycle types of the Young subgroup of shape ``mu``, each once, together
    with the number of subgroup elements of that type.

    An element is a tuple of one permutation per factor; its cycle type is
    the merge of the factor cycle types and its count the product of the
    factor class sizes.  The factors are merged in one at a time, and equal
    merged types are summed at each step.
    """
    merged = {(): 1}
    for part in mu:
        step: dict[Partition, int] = {}
        for lam in _cycle_types(part):
            size = _class_size(lam)
            for prev, count in merged.items():
                key = tuple(sorted(prev + lam, reverse=True))
                step[key] = step.get(key, 0) + count * size
        merged = step
    return tuple(merged.items())


@lru_cache(maxsize=None)
def _restricted_trivial_cached(pi: Partition, mu: Partition) -> int:
    total = 0
    for lam, count in young_subgroup_classes(mu):
        total += count * _mn_value(pi, lam)
    value, rem = divmod(total, multiplicity_factorial(mu))
    if rem:
        raise ConsistencyError(
            f"restriction multiplicity for {pi} over the Young subgroup {mu} is not integral"
        )
    return value


def restricted_trivial_inner_product(pi: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of the trivial character in the restriction of the
    irreducible character ``pi`` to the Young subgroup of shape ``mu``.

    Computed as an average of character values over the subgroup, summed by
    subgroup cycle type rather than by element.  Equals the Kostka number
    K(pi, mu).
    """
    pi = check_partition(pi)
    return _restricted_trivial_cached(pi, check_partition(mu, sum(pi)))


def induced_trivial_character(mu: Sequence[int]) -> ClassFunction:
    """The permutation character of the symmetric group acting on cosets of
    the Young subgroup of shape ``mu``: the Kostka-weighted sum of the
    irreducible characters dominating ``mu``."""
    mu = check_partition(mu)
    _classes(sum(mu))  # m >= 1 and the cap, before the Kostka column's work
    return class_function_from_decomposition(sum(mu), _kostka_column(mu))
