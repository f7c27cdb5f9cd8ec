"""Counting non-negative solutions of a1*t1 + ... + an*tn = d, and the same
count read as a symmetric group character.

A permutation with cycle lengths (a1, ..., an) fixes exactly that many
exponent vectors of degree d, so the count is the trace of the permutation
acting on degree-d monomials: a permutation character of the symmetric group
on m = a1 + ... + an points.  This module computes it by dynamic
programming over the coin values, one value per cycle type, and its
irreducible multiplicities by Young's rule: the orbits of one type of
exponent vectors carry the character induced from that type's Young
subgroup, whose multiplicities are the Kostka column K(-, type).  Expanded
back into a class function, those multiplicities must give the values of
the coin DP.

The same equation with the hook lengths of a partition pi as coins gives
those multiplicities directly, one coin DP per pi (``hook_decomposition``);
the Kostka-weighted orbit types (``denumerant_decomposition``) are its
independent cross-check.

The solution counts of all cycle types of S_m come from one post-order
walk over their parts above 1 (``_solution_walk``): no part 1 is walked,
and a type with no room left for a part above 1 runs no coin pass of its
own.  Neither the solution counts nor the decomposition depends on a
character, so each is computed once per (m, d) and kept in a bounded cache
(``_solution_counts``, ``_young_decomposition``) that every dimension
report of that (m, d) reads; ``qchar`` reads the walk as a stream instead
and keeps none.  The public names check (m, d) on every call and hand out
a fresh dict, never the cached one.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate
from operator import itemgetter, mul

# these run on first use: characters only where a class function is built,
# tableaux only where hooks or Kostka numbers are read
from . import characters, tableaux
from .partitions import Partition, _check_int, _check_ints, _check_m_d, _cycle_types, _orbit_types

CoinSystem = tuple[int, ...]


def check_coins(coins: Sequence[int]) -> CoinSystem:
    out = _check_ints(coins, "coin")
    if not out:
        raise ValueError("need at least one coin")
    if any(a < 1 for a in out):
        raise ValueError(f"coin values must be positive, got {out}")
    return out


def denumerant(coins: Sequence[int], d: int) -> int:
    """Number of ways to pay ``d`` with unlimited coins of the given values
    (repeated values allowed, order irrelevant), by the standard
    one-dimensional dynamic program."""
    return _denumerant_counts(coins, d)[d]


def _denumerant_counts(coins: Sequence[int], d: int) -> list[int]:
    """The denumerants of every amount 0..d, by the same dynamic program."""
    coins = check_coins(coins)
    if _check_int(d, "amount") < 0:
        raise ValueError("amount must be non-negative")
    counts = [1] + [0] * d
    for a in coins:
        _add_coin(counts, a)
    return counts


def _add_coin(counts: list[int], a: int) -> None:
    """Extend the solution counts for amounts 0..len-1 by one coin ``a``."""
    for j in range(a, len(counts)):
        counts[j] += counts[j - a]


def denumerant_class_function(m: int, d: int) -> ClassFunction:
    """The trace function of degree-d monomial permutation: its value on a
    cycle type equals the denumerant with that type as coin system."""
    m, d = _check_m_d(m, d)
    return characters.ClassFunction(
        m, dict(zip(_cycle_types(m), _solution_counts(m, d), strict=True))
    )


@lru_cache(maxsize=128)  # every m <= 8, d <= 12 fits, in any order
def _solution_counts(m: int, d: int) -> tuple[int, ...]:
    """The values of :func:`denumerant_class_function` for checked ints m
    and d, in the order of ``_cycle_types(m)``."""
    return tuple(map(itemgetter(2), _solution_walk(m, d)))


def _solution_walk(m: int, d: int) -> Iterator[tuple[Partition, int, int]]:
    """``(P, k, count)`` for each cycle type P + 1^k of S_m, P its parts
    above 1, in the order of ``_cycle_types(m)``: the values of
    :func:`_solution_counts`, each as it is reached, so a caller that stops
    early pays only for what it read.

    The k coins of value 1 pay an amount i in C(i + k - 1, k - 1) ways, so
    the count is the sum over j of A_P[j] * C(d - j + k - 1, k - 1), where
    A_P[j] counts the ways P pays j.  The walk is a depth-first search over
    P alone: P + (c) + ..., for each c >= 2 from the largest down, comes
    before P + 1^k in reverse-lex order, so P yields after its subtree, by
    one dot product of A_P with the reversed counts of 1^k.  A child
    P + (c) with k >= 2 left gets its own coin pass, A_P + (c); one with
    k = 0 or 1 left has no child, and its count is read off A_P: the sum of
    A_P[d - tc] over t >= 0, or of the prefix sums of A_P at those places.
    """
    ones = [[0] * d + [1]]  # ones[k]: the counts for 1^k, reversed
    for _ in range(m):
        ones.append(list(accumulate(reversed(ones[-1])))[::-1])
    stack = []
    # the frame entered next: P, A_P, k, and the largest part P can add
    p, counts, k, top = (), [1] + [0] * d, m, m
    while True:
        # P + (k) and P + (k - 1, 1) come first, and have no children
        if top >= k >= 2:
            yield p + (k,), 0, sum(counts[d::-k])
        if top >= k - 1 >= 2:
            yield p + (k - 1,), 1, sum(list(accumulate(counts))[d::1 - k])
        stack.append((p, counts, k, iter(range(min(top, k - 2), 1, -1))))
        while stack:
            p, counts, k, children = stack[-1]
            c = next(children, 0)
            if c:
                counts = counts.copy()
                _add_coin(counts, c)
                p, k, top = p + (c,), k - c, c
                break
            stack.pop()
            yield p, k, sum(map(mul, counts, ones[k]))
        else:
            return


def denumerant_decomposition(m: int, d: int) -> dict[Partition, int]:
    """Multiplicity of each irreducible character in the denumerant class
    function: the Kostka columns K(-, type) of the orbit types, weighted by
    their orbit counts."""
    return dict(_young_decomposition(*_check_m_d(m, d)))


@lru_cache(maxsize=128)  # as for _solution_counts
def _young_decomposition(m: int, d: int) -> dict[Partition, int]:
    """The multiplicities of :func:`denumerant_decomposition` for checked
    ints m and d, shared by every caller: it is read, never handed out."""
    out = dict.fromkeys(_cycle_types(m), 0)
    for shape, count in _orbit_types(m, d):
        for pi, k in tableaux._kostka_column(shape).items():
            out[pi] += count * k
    return out


def _hook_multiplicity(pi: Partition, d: int) -> int:
    """Multiplicity of chi^pi in the degree-d monomials, by the paper's
    equation with the hook lengths of ``pi`` as coins: the coefficient of
    q^d in s_pi(1, q, q^2, ...) = q^b(pi) / prod over cells (1 - q^hook),
    so the denumerant of d - b(pi), and 0 below b(pi)."""
    amount = d - tableaux._b(pi)
    return denumerant(tableaux._hooks(pi), amount) if amount >= 0 else 0


def hook_decomposition(m: int, d: int) -> dict[Partition, int]:
    """The multiplicities of :func:`denumerant_decomposition` by
    :func:`_hook_multiplicity`: one small coin DP per partition of m, and no
    orbit, Kostka number or character value."""
    m, d = _check_m_d(m, d)
    return {pi: _hook_multiplicity(pi, d) for pi in _cycle_types(m)}
