"""Partitions, exponent vectors, and the counting helpers built on them.

Partitions are plain tuples of weakly decreasing positive integers; the empty
tuple is the partition of 0.  A partition doubles as a cycle type of the
symmetric group and as a Young subgroup shape.  Exponent vectors are plain
tuples of non-negative integers: an element of Gamma(m, d), the set of
m-tuples summing to d, is the exponent of a degree-d monomial in m variables.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import combinations_with_replacement, zip_longest

from .config import check_cap

Partition = tuple[int, ...]
ExponentVector = tuple[int, ...]


def _check_ints(values: Sequence[int], field: str) -> tuple[int, ...]:
    """The entries of ``values`` as ints; a float or other non-integer entry
    raises instead of being truncated."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{field} entries must be integers, got {values}") from None


def _check_int(value: int, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def check_partition(parts: Sequence[int], weight: int | None = None) -> Partition:
    """Validate and normalize a partition given as any integer sequence;
    ``weight``, when given, pins the sum of the parts."""
    p = _check_ints(parts, "partition")
    for i, x in enumerate(p):
        if x < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i + 1 < len(p) and p[i + 1] > x:
            raise ValueError(f"partition parts must be weakly decreasing, got {p}")
    if weight is not None and sum(p) != weight:
        raise ValueError(f"{p} is a partition of {sum(p)}, not {weight}")
    return p


def check_exponent_vector(entries: Sequence[int], m: int | None = None) -> ExponentVector:
    """Validate an exponent vector; ``m``, when given, pins the length."""
    alpha = _check_ints(entries, "exponent")
    if m is not None and len(alpha) != m:
        raise ValueError(f"expected {m} entries, got {len(alpha)}")
    if not alpha:
        raise ValueError("exponent vector needs at least one entry")
    if any(x < 0 for x in alpha):
        raise ValueError(f"exponent entries must be non-negative, got {alpha}")
    return alpha


def dominates(mu: Partition, pi: Partition) -> bool:
    """Whether ``mu`` majorizes ``pi``: every prefix sum of ``pi`` is at most
    the matching prefix sum of ``mu``.

    Both partitions must have the same weight.  The shorter partition is
    padded with zeros; for equal weights this padded condition is equivalent
    to checking prefixes only up to the shorter length, because once one
    partition is exhausted its prefix sums are constant at the full weight.
    """
    if sum(mu) != sum(pi):
        raise ValueError(f"cannot compare partitions of different weights: {mu}, {pi}")
    mu_sum = pi_sum = 0
    for a, b in zip_longest(mu, pi, fillvalue=0):
        mu_sum += a
        pi_sum += b
        if pi_sum > mu_sum:
            return False
    return True


def multiplicity_partition(alpha: Sequence[int]) -> Partition:
    """The multiplicities of the distinct values occurring in ``alpha``,
    sorted descending.

    Values that do not occur contribute nothing, so the result is a genuine
    partition of ``len(alpha)``.
    """
    return _multiplicities(check_exponent_vector(alpha))


def _multiplicities(alpha: ExponentVector) -> Partition:
    return tuple(sorted(Counter(alpha).values(), reverse=True))


def multiplicity_factorial(mu: Sequence[int]) -> int:
    """The product of the factorials of the parts of ``mu``.

    For ``mu = multiplicity_partition(alpha)`` this is the order of the
    stabilizer of ``alpha`` in the full symmetric group, a Young subgroup.
    """
    out = 1
    for k in mu:
        out *= math.factorial(k)
    return out


def _partition_walk(n: int, max_len: int) -> Iterator[Partition]:
    """The partitions of ``n`` into at most ``max_len`` parts in reverse-lex
    order.  Each step pops the trailing parts, lowers the last part that can
    still be lowered, and refills greedily."""
    if n == 0:
        yield ()
        return
    parts = [n]
    while True:
        yield tuple(parts)
        rest = 0
        while True:
            if not parts:
                return
            top = parts.pop()
            rest += top
            if top > 1 and (top - 1) * (max_len - len(parts)) >= rest:
                break
        q, r = divmod(rest, top - 1)
        parts += [top - 1] * q
        if r:
            parts.append(r)


@lru_cache(maxsize=None)
def _walked_partitions(m: int) -> tuple[Partition, ...]:
    """The partitions of ``m`` in the order of :func:`_partition_walk`,
    walked once per ``m``."""
    if m < 0:
        raise ValueError("cannot partition a negative integer")
    return tuple(_partition_walk(m, m))


def _cycle_types(m: int) -> tuple[Partition, ...]:
    """The partitions of ``m``, enumerated once per ``m``."""
    return _walked_partitions(m)


def enumerate_partitions(m: int, max_length: int | None = None) -> list[Partition]:
    """All partitions of ``m`` in reverse-lexicographic order, starting at
    ``(m,)``.  ``max_length`` restricts the number of parts."""
    if _check_int(m, "m") < 0:
        raise ValueError("cannot partition a negative integer")
    if max_length is not None and _check_int(max_length, "max_length") < 1:
        raise ValueError("max_length must be positive")
    return list(_partition_walk(m, m if max_length is None else max_length))


def gamma_size(m: int, d: int) -> int:
    """Cardinality of Gamma(m, d): C(d + m - 1, m - 1)."""
    return math.comb(d + m - 1, m - 1)


def _vectors_lex(m: int, d: int) -> Iterator[ExponentVector]:
    # stars and bars: the sums of the first 1, ..., m - 1 entries are a
    # weakly increasing sequence in 0..d, and those sequences in lexicographic
    # order give their difference vectors in lexicographic order
    for sums in combinations_with_replacement(range(d + 1), m - 1):
        yield tuple(map(operator.sub, sums + (d,), (0,) + sums))


def _check_m_d(m: int, d: int = 0) -> tuple[int, int]:
    """The checks on m variables (the degree of S_m) and a degree d (0
    passes), and both as plain ints: a bool or other integer type must not
    key a cache that a plain int later reads."""
    m, d = _check_int(m, "m"), _check_int(d, "d")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if d < 0:
        raise ValueError(f"d must be non-negative, got {d}")
    return m, d


def enumerate_gamma(m: int, d: int) -> list[ExponentVector]:
    """All m-tuples of non-negative integers summing to ``d``, in
    lexicographic order.

    Refuses to materialize more than ``limits().max_gamma`` tuples; formula
    paths that scale past the cap work from orbit representatives instead.
    """
    return list(_vectors_lex(*_check_gamma(m, d)))


def _check_gamma(m: int, d: int) -> tuple[int, int]:
    """The checks of :func:`_check_m_d`, then the ``max_gamma`` cap on
    |Gamma(m, d)|; (m, d) come back as plain ints."""
    m, d = _check_m_d(m, d)
    check_cap("max_gamma", gamma_size(m, d), f"the number of vectors in Gamma({m}, {d}) is")
    return m, d


def orbit_representatives(m: int, d: int) -> list[ExponentVector]:
    """One weakly decreasing representative per orbit of Gamma(m, d) under
    coordinate permutation: the partitions of ``d`` into at most ``m`` parts,
    zero-padded to length ``m``, in reverse-lexicographic order.

    The orbit of a representative ``nu`` has size
    ``m! / multiplicity_factorial(multiplicity_partition(nu))``.
    """
    return list(_orbit_stream(m, d))


def _orbit_stream(m: int, d: int) -> Iterator[ExponentVector]:
    """The representatives of :func:`orbit_representatives`, one at a time."""
    m, d = _check_m_d(m, d)
    for p in _partition_walk(d, m):
        yield p + (0,) * (m - len(p))


@lru_cache(maxsize=128)  # every m <= 8, d <= 12 fits, in any order
def _orbit_types(m: int, d: int) -> tuple[tuple[Partition, int], ...]:
    """The ``(type, count)`` pairs of :func:`orbit_type_counts` for checked
    ints m and d, types in reverse-lex order, by one DP over the values
    v = d, ..., 1 for every route that reads them; no orbit is visited.

    A state is the entries n and the weight w given values above v, each
    with its partial types: the sorted multiplicities of those values.
    Value v takes k >= 1 entries or none, and a state that the values below
    v can no longer bring to d, w + (m - n)(v - 1) < d, is dropped.  The
    entries left at the end take the value 0."""
    by_n: list[dict[int, dict[Partition, int]]] = [{} for _ in range(m + 1)]
    by_n[0][0] = {(): 1}
    grown: dict[tuple[Partition, int], Partition] = {}  # a partial type with k added
    for v in range(d, 0, -1):
        for n in range(m - 1, -1, -1):  # a state feeds only larger n, already passed
            room = m - n
            floor = d - room * (v - 1)  # the least weight values below v can fill
            layer = by_n[n]
            dead = []
            for w, types in layer.items():
                if w < floor:
                    dead.append(w)
                k = floor - w if floor - w > 1 else 1  # the fewest copies of v that reach d
                weight = w + k * v
                while k <= room and weight <= d:
                    target = by_n[n + k].setdefault(weight, {})
                    for shape, count in types.items():
                        new = grown.get((shape, k))
                        if new is None:
                            new = grown[shape, k] = tuple(sorted(shape + (k,), reverse=True))
                        target[new] = target.get(new, 0) + count
                    k += 1
                    weight += v
            for w in dead:
                del layer[w]
    out: Counter = Counter()
    for n, layer in enumerate(by_n):
        for shape, count in layer.get(d, {}).items():
            out[tuple(sorted(shape + (m - n,), reverse=True)) if n < m else shape] += count
    return tuple(sorted(out.items(), reverse=True))


def orbit_type_counts(m: int, d: int) -> Counter:
    """How many orbits of Gamma(m, d) have each multiplicity partition (orbit
    type), in reverse-lex order of the types, counted by a DP over the
    values without visiting any orbit."""
    return Counter(dict(_orbit_types(*_check_m_d(m, d))))


@lru_cache(maxsize=512)  # the 271 classes of m <= 12, the default character cap, fit
def _class_size(lam: Partition) -> int:
    """m! over the order of the centralizer of a permutation of the checked
    cycle type ``lam``: the product over distinct part sizes i of i**m_i * m_i!."""
    centralizer = 1
    for part, count in Counter(lam).items():
        centralizer *= part**count * math.factorial(count)
    return math.factorial(sum(lam)) // centralizer
