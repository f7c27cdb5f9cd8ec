"""Host speed, sampled through a run so that its times can be scaled.

A shared virtual machine runs the same pure-Python code up to twice as fast
at one moment as a few minutes later, in CPU time as much as in wall time.
So the benchmark times a fixed unit of pure-Python work (building the
partitions of 20 as tuples, the kind of work relsym does) next to what it
measures: after every child process it starts, and every ``EVERY_S``
seconds between the library calls of a sweep.  It reports each time
multiplied by ``REFERENCE_UNIT_S / mean time of the units around it``: the
seconds the work would have taken on a host where one unit takes
``REFERENCE_UNIT_S``.

Imports nothing beyond ``time``, so that the sweep process, which samples
between its library calls, pays no import for it.
"""

from __future__ import annotations

import time

# one unit's time on a quiet 2-vCPU x86-64 host running CPython 3.11
REFERENCE_UNIT_S = 0.01
# a unit is run whenever the run is this far ahead of the units
EVERY_S = 0.25
_REPEATS = 4


def _partitions(n: int, top: int) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    return [
        (first,) + rest
        for first in range(min(n, top), 0, -1)
        for rest in _partitions(n - first, first)
    ]


def unit() -> float:
    """Seconds taken by one unit of the fixed work."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _partitions(20, 20)
    return time.perf_counter() - start


class Sampler:
    """Runs a unit whenever the run has got ``EVERY_S`` ahead of them, so
    that the units sample the whole run evenly."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.samples: list[float] = []

    def keep_pace(self) -> float:
        """Run the units due; returns the seconds they took."""
        spent = 0.0
        while len(self.samples) * EVERY_S <= time.perf_counter() - self.started:
            self.samples.append(unit())
            spent += self.samples[-1]
        return spent


def scale(samples: list[float]) -> float:
    """Factor that turns seconds measured next to these units into
    reference seconds."""
    return REFERENCE_UNIT_S * len(samples) / sum(samples)
