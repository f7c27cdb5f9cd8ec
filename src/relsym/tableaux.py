"""Semistandard tableaux and Kostka numbers.

A semistandard tableau of shape ``mu`` has weakly increasing rows and
strictly increasing columns.  The Kostka number K(mu, pi) counts those of
content ``pi`` (entry i appears pi[i-1] times); it is nonzero exactly when
``mu`` dominates ``pi``.

Fillings are built value by value as horizontal strips: all cells holding
value i are added left-justified to the rows in one step, which keeps columns
strict by construction (Pieri's rule), one layer of shapes per value in the
iterative ``_layer_walk`` that ``characters`` runs with signed border strips.
A single pair, through ``kostka`` or ``count_fillings``, fills its one given
shape; batch callers read a whole column K(-, pi) from ``_kostka_column``,
which grows all shapes at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache, partial

from .partitions import Partition, _check_ints, check_partition


def _layer_walk(start, sizes, moves) -> dict:
    """Count weighted paths from ``start`` that take one step per entry of
    ``sizes``: every state of a layer goes to each ``(next_state, weight)``
    that ``moves(state, size)`` yields, and the counts times the weights are
    summed per next state.  Returns the last layer."""
    layer = {start: 1}
    for size in sizes:
        grown: dict = {}
        for state, count in layer.items():
            for new, weight in moves(state, size):
                grown[new] = grown.get(new, 0) + weight * count
        layer = grown
    return layer


def _strip_additions(
    shape: Partition, current: tuple[int, ...], count: int
) -> list[tuple[tuple[int, ...], int]]:
    """All ways to grow ``current`` inside ``shape`` by a horizontal strip of
    ``count`` cells, each with weight 1.

    Row i may grow at most to shape[i], and (for i > 0) not past the previous
    length of row i-1, so no two new cells share a column and every new cell
    sits on a strictly smaller entry.  It grows at least by what the rows
    under it cannot take, so every prefix built is completed.
    """
    # new row lengths stay weakly decreasing automatically: the bound by
    # the old length of the row above is the stricter one
    highs = [min(shape[i], current[i - 1] if i > 0 else shape[i]) for i in range(len(current))]
    free = sum(highs) - sum(current)  # the cells that the rows not yet grown can take
    prefixes = [((), count)]
    for low, high in zip(current, highs):
        room = high - low
        free -= room
        prefixes = [  # conditionals, not max and min calls: the Kostka walks spend their time here
            (prefix + (low + take,), rest - take)
            for prefix, rest in prefixes
            for take in range(rest - free if rest > free else 0, (rest if rest < room else room) + 1)
        ]
    return [(prefix, 1) for prefix, rest in prefixes if rest == 0]


def _check_filling(
    mu: Sequence[int], content: Sequence[int]
) -> tuple[Partition, tuple[int, ...]]:
    """A shape and a content composition (zeros allowed) of equal weight."""
    mu = check_partition(mu)
    content = _check_ints(content, "content")
    if any(c < 0 for c in content):
        raise ValueError(f"content entries must be non-negative, got {content}")
    if sum(content) != sum(mu):
        raise ValueError(
            f"content sums to {sum(content)} but the shape has {sum(mu)} cells"
        )
    return mu, content


def count_fillings(mu: Sequence[int], content: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape ``mu`` with the given content
    composition (zeros allowed, any order)."""
    mu, content = _check_filling(mu, content)
    content = sorted(content, reverse=True)  # K(mu, c) does not depend on the order of c
    return _layer_walk((0,) * len(mu), content, partial(_strip_additions, mu)).get(mu, 0)


@lru_cache(maxsize=None)
def _kostka_column(pi: Partition) -> dict[Partition, int]:
    """The non-zero K(mu, pi) for all mu: strips of sizes pi[0], pi[1], ...
    added to the empty shape, which has room for len(pi) rows."""
    bound = (sum(pi),) * len(pi)
    column = _layer_walk((0,) * len(pi), pi, partial(_strip_additions, bound))
    return {tuple(r for r in state if r): count for state, count in column.items()}


def hook_lengths(pi: Sequence[int]) -> tuple[int, ...]:
    """The hook length of every cell of the diagram of ``pi``, row by row:
    the cell itself plus the cells to its right and below it."""
    return _hooks(check_partition(pi))


def _hooks(pi: Partition) -> tuple[int, ...]:
    heights = [0] * (pi[0] if pi else 0)  # the column lengths
    for part in pi:
        for j in range(part):
            heights[j] += 1
    return tuple(
        part - j + heights[j] - i - 1 for i, part in enumerate(pi) for j in range(part)
    )


@lru_cache(maxsize=512)  # every pi of m <= 12, the default character cap, fits
def _degree(pi: Partition) -> int:
    """The degree f^pi of chi^pi by the hook length formula, m! / prod of
    the hook lengths (Frame, Robinson and Thrall), for a checked pi."""
    return math.factorial(sum(pi)) // math.prod(_hooks(pi))


def _b(pi: Partition) -> int:
    """b(pi) = sum of (i - 1) * pi_i, the least entry sum of a semistandard
    tableau of shape ``pi`` with entries from 0: the lowest degree in which
    chi^pi occurs among the monomials."""
    return sum(i * part for i, part in enumerate(pi))


@lru_cache(maxsize=None)
def _kostka_cached(mu: Partition, pi: Partition) -> int:
    return count_fillings(mu, pi)


def kostka(mu: Sequence[int], pi: Sequence[int]) -> int:
    """The Kostka number K(mu, pi) for partitions of equal weight."""
    mu = check_partition(mu)
    return _kostka_cached(mu, check_partition(pi, sum(mu)))
