"""Permutations and finite permutation groups at desk scale.

A permutation of {1..m} is stored as a tuple ``p`` of 0-indexed images:
``p[i]`` is the image of point i.  Groups are given by generators and closed
by breadth-first products; every group here is small enough to hold its full
element list, which later operations (classes, stabilizers, symmetrizing)
iterate directly.  A group never changes, so it works out its conjugacy
classes on the first request and keeps them.  Loops over a group apply each
element as a prebuilt ``itemgetter`` of its images; the action is unchanged.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter

from .config import check_cap, limits
from .partitions import ExponentVector, Partition, _check_ints, _check_m_d, check_exponent_vector

Permutation = tuple[int, ...]


def identity_permutation(m: int) -> Permutation:
    return tuple(range(m))


def _getter(p: Permutation) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """``itemgetter(*p)``, or a tuple-building lambda where that returns a bare entry."""
    return itemgetter(*p) if len(p) > 1 else lambda seq: tuple(seq[i] for i in p)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """The permutation applying ``q`` first, then ``p``."""
    return _getter(q)(p)


def inverse(p: Permutation) -> Permutation:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


def _cycles(p: Permutation) -> list[list[int]]:
    """The cycles of ``p`` as lists of 0-indexed points, fixed points
    included, each starting at its smallest point, in order of that point."""
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = p[i]
        cycles.append(cycle)
    return cycles


def cycle_type(p: Permutation) -> Partition:
    """Cycle lengths of ``p``, sorted descending (fixed points included)."""
    return tuple(sorted(map(len, _cycles(p)), reverse=True))


def apply_to_exponents(p: Permutation, alpha: Sequence[int]) -> ExponentVector:
    """The coordinate-permutation action on exponent vectors: entry i of the
    result is entry p[i] of the input."""
    return _getter(p)(alpha)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, m: int) -> Permutation:
    """Parse cycle notation like ``"(1 2)(3 4)"`` into a permutation of m
    points.  ``"()"`` is the identity; points are 1-indexed."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation string")
    consumed = "".join(_CYCLE_RE.findall(stripped))
    if re.sub(r"[()\s]", "", stripped) != re.sub(r"\s", "", consumed):
        raise ValueError(f"malformed cycle notation: {text!r}")
    images = list(range(m))
    used: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        points = [int(tok) for tok in body.split()]
        if not points:
            continue
        for x in points:
            if not 1 <= x <= m:
                raise ValueError(f"point {x} out of range 1..{m} in {text!r}")
            if x in used:
                raise ValueError(f"point {x} repeated in {text!r}")
            used.add(x)
        for i, x in enumerate(points):
            images[x - 1] = points[(i + 1) % len(points)] - 1
    return tuple(images)


def parse_generators(text: str, m: int) -> list[Permutation]:
    """Parse a comma-separated list of permutations in cycle notation."""
    parts = [piece for piece in text.split(",") if piece.strip()]
    if not parts:
        raise ValueError("no generators given")
    return [parse_permutation(piece, m) for piece in parts]


def format_permutation(p: Permutation) -> str:
    """Canonical cycle notation: cycles sorted by smallest point, fixed
    points omitted, identity rendered ``"()"``."""
    cycles = [cycle for cycle in _cycles(p) if len(cycle) > 1]
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycles)


class PermutationGroup:
    """A permutation group given by generators, with its full element list.

    Elements are enumerated once on construction (breadth-first closure,
    then sorted for a deterministic order) and treated as immutable
    afterwards.
    """

    def __init__(self, generators: Iterable[Permutation], m: int) -> None:
        m, _ = _check_m_d(m)
        gens = [_check_ints(g, "permutation") for g in generators]
        for g in gens:
            if sorted(g) != list(range(m)):
                raise ValueError(f"not a permutation of {m} points: {g}")
        cap = limits().max_group_order
        identity = identity_permutation(m)
        elements = {identity}
        frontier = [identity]
        while frontier:
            new_frontier = []
            for g in gens:
                for h in frontier:
                    prod = compose(g, h)
                    if prod not in elements:
                        elements.add(prod)
                        new_frontier.append(prod)
                        # compared inline, so the closure makes no call per element
                        if len(elements) > cap:
                            check_cap(
                                "max_group_order", len(elements), "the group order is at least"
                            )
            frontier = new_frontier
        self.m = m
        self.generators = tuple(gens)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._element_set = elements
        self._classes: list[tuple[Permutation, ...]] | None = None  # on first request

    @classmethod
    def symmetric(cls, m: int) -> "PermutationGroup":
        m, _ = _check_m_d(m)
        if m == 1:
            return cls([identity_permutation(1)], 1)
        gens = [parse_permutation("(1 2)", m)]
        if m > 2:
            gens.append(tuple((i + 1) % m for i in range(m)))
        return cls(gens, m)

    def __contains__(self, p: Permutation) -> bool:
        return tuple(p) in self._element_set

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        gens = ", ".join(format_permutation(g) for g in self.generators)
        return f"PermutationGroup(order={self.order}, m={self.m}, generators=[{gens}])"

    def conjugacy_classes(self) -> list[tuple[Permutation, ...]]:
        """Conjugacy classes as sorted tuples, in order of their smallest
        element, so the identity class (the least permutation) comes first.
        Worked out on the first call and kept; every call returns a new list."""
        if self._classes is None:
            conjugators = [(g, _getter(inverse(g))) for g in self.elements]
            remaining = set(self.elements)
            classes = []
            for x in self.elements:
                if x not in remaining:
                    continue
                after_x = _getter(x)
                orbit = {after_inverse(after_x(g)) for g, after_inverse in conjugators}  # g x g^-1
                remaining -= orbit
                classes.append(tuple(sorted(orbit)))  # x is its least element
            self._classes = classes
        return list(self._classes)

    def stabilizer(self, alpha: Sequence[int]) -> "PermutationGroup":
        """The subgroup fixing the exponent vector ``alpha`` under the
        coordinate-permutation action."""
        alpha = check_exponent_vector(alpha, self.m)
        fixed = [g for g in self.elements if apply_to_exponents(g, alpha) == alpha]
        return PermutationGroup(fixed, self.m)
