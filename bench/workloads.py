"""Seeded inputs for the three workloads.

Every query is drawn from a fixed, finite pool, so the reference digests in
``references.json`` cover every seed.  A CLI query is a tuple of argv strings
in which ``{chars}`` stands for the directory of character files the
benchmark writes; its text, placeholder included, is the reference key.  A
library call is a small JSON list executed by ``child.py``.

The sizes that set the cost of a ``cli-large`` query are fixed inside the
ranges the workload is meant to cover; the seed varies only inputs that
leave the cost nearly unchanged (the character of ``dim``, the even degree
of ``qchar``, the table degree of ``character``).  Drawing the sizes
themselves would change a pass's cost up to threefold from seed to seed,
and ``vanish``, the costliest query with ``decompose``, is fixed so that
the slowest queries, and so ``query_s.p90`` and ``peak_rss_mb``, do not
depend on the seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-large", "cli-small", "lib-sweep")


def partitions(n: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of ``n`` in reverse-lexicographic order, starting at (n,)."""
    if n == 0:
        return [()]
    top = n if max_part is None else min(n, max_part)
    return [
        (first,) + rest
        for first in range(top, 0, -1)
        for rest in partitions(n - first, first)
    ]


def fmt(parts) -> str:
    return ",".join(str(x) for x in parts)


# ---------------------------------------------------------------- CLI pools

def _large_pools() -> dict[str, list[tuple[str, ...]]]:
    return {
        "decompose": [("decompose", "--m", "12", "--d", "28")],
        "qchar": [("qchar", "--m", "36", "--d", str(d)) for d in (38, 40)],
        "vanish": [("vanish", "--m", "24", "--d", "50", "--partition", "24")],
        "dim": [
            ("dim", "--m", "11", "--d", "26", "--partition", fmt(pi))
            for pi in partitions(11)
        ],
        "character": [("character", "--table", str(m)) for m in (11, 12)],
    }


def _cycles(text: str, m: int) -> tuple[int, ...]:
    """0-indexed image tuple of a permutation in 1-indexed cycle notation."""
    images = list(range(m))
    for body in text.strip("()").split(")("):
        points = [int(tok) for tok in body.split()]
        for i, x in enumerate(points):
            images[x - 1] = points[(i + 1) % len(points)] - 1
    return tuple(images)


# Groups of order <= 24 for ``symmetrize``: points, generators, class
# representatives, and the integer character table over those classes.
_S3 = [[1, 1, 1], [1, -1, 1], [2, 0, -1]]
SYMMETRIZE_GROUPS = {
    "C2": (2, "(1 2)", ["()", "(1 2)"], [[1, 1], [1, -1]]),
    "S3": (3, "(1 2),(1 2 3)", ["()", "(1 2)", "(1 2 3)"], _S3),
    "V4": (
        4,
        "(1 2)(3 4),(1 3)(2 4)",
        ["()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"],
        [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
    ),
    "D4": (
        4,
        "(1 2 3 4),(1 3)",
        ["()", "(1 3)(2 4)", "(1 2 3 4)", "(1 3)", "(1 2)(3 4)"],
        [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ],
    ),
    "S4": (
        4,
        "(1 2),(1 2 3 4)",
        ["()", "(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4)"],
        [
            [1, 1, 1, 1, 1],
            [1, -1, 1, 1, -1],
            [2, 0, 2, -1, 0],
            [3, 1, -1, 0, -1],
            [3, -1, -1, 0, 1],
        ],
    ),
    "S3xS2": (
        5,
        "(1 2),(1 2 3),(4 5)",
        ["()", "(1 2)", "(1 2 3)", "(4 5)", "(1 2)(4 5)", "(1 2 3)(4 5)"],
        [a + [x * s for x in a] for a in _S3 for s in (1, -1)],
    ),
}


def write_character_files(directory: Path) -> None:
    """One JSON file per (group, character): class representative -> value."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, (_, _, reps, table) in SYMMETRIZE_GROUPS.items():
        for k, row in enumerate(table):
            path = directory / f"{name}_{k}.json"
            path.write_text(json.dumps(dict(zip(reps, row))), encoding="utf-8")


MALFORMED = [
    ("dim", "--m", "3", "--d", "2", "--partition", "2,2"),
    ("dim", "--m", "3", "--d", "2", "--partition", "1,2"),
    ("kostka", "--shape", "3,2", "--content", "1,1"),
    ("character", "--partition", "2,1", "--class", "2"),
    ("character",),
    ("denumerant", "--coins", "0,1", "--amount", "3"),
    ("denumerant", "--coins", "a,b", "--amount", "3"),
    ("decompose", "--m", "0", "--d", "3"),
    ("qchar", "--m", "3"),
    ("vanish", "--m", "3", "--d", "-1", "--partition", "3"),
    ("frobnicate",),
    ("symmetrize", "--generators", "(1 2 3)", "--character", "{chars}/S3_2.json",
     "--alpha", "1,0"),
]


def _small_pools() -> dict[str, list[tuple[str, ...]]]:
    small = range(1, 9)
    pools: dict[str, list[tuple[str, ...]]] = {
        "denumerant": [
            ("denumerant", "--coins", fmt(lam), "--amount", str(amount), *series)
            for n in range(1, 7)
            for lam in partitions(n)
            for amount in range(0, 25, 3)
            for series in ((), ("--series",))
        ],
        "qchar": [
            ("qchar", "--m", str(m), "--d", str(d)) for m in small for d in range(13)
        ],
        "decompose": [
            ("decompose", "--m", str(m), "--d", str(d))
            for m in small
            for d in range(13)
        ],
        "kostka": [
            ("kostka", "--shape", fmt(shape), "--content", fmt(content))
            for n in range(1, 7)
            for shape in partitions(n)
            for mu in partitions(n)
            for content in sorted({mu, mu[::-1]})
        ],
        "character": [
            ("character", "--partition", fmt(pi), "--class", fmt(lam))
            for m in range(1, 7)
            for pi in partitions(m)
            for lam in partitions(m)
        ]
        + [("character", "--table", str(m)) for m in small],
        "dim": [
            ("dim", "--m", str(m), "--d", str(d), "--partition", fmt(pi))
            for m in small
            for d in range(9)
            for pi in partitions(m)
        ]
        + [
            ("dim", "--m", str(m), "--d", str(d), "--partition", fmt(pi), "--verify")
            for m in range(1, 5)
            for d in range(6)
            for pi in partitions(m)
        ],
        "vanish": [
            ("vanish", "--m", str(m), "--d", str(d), "--partition", fmt(pi))
            for m in small
            for d in range(11)
            for pi in partitions(m)
        ],
        "symmetrize": [
            ("symmetrize", "--generators", gens, "--character",
             f"{{chars}}/{name}_{k}.json", "--alpha", fmt(alpha))
            for name, (m, gens, _, table) in SYMMETRIZE_GROUPS.items()
            for k in range(len(table))
            for alpha in itertools.product(range(3), repeat=m)
            if sum(alpha) <= 3
        ],
    }
    return pools


LARGE_POOLS = _large_pools()
SMALL_POOLS = _small_pools()
SMALL_PER_COMMAND = 12
SMALL_MALFORMED = 5

# ---------------------------------------------------------------- library calls

SWEEP_MAX_M = 8
SWEEP_MAX_D = 12
# (m, d) for the exact-rank reports: |Gamma(m, d)| stays near 210
RANK_SIZES = ((2, 40), (3, 19), (4, 9), (5, 6))
GROUP_MAX_D = 4
SWEEP_GROUPS = {
    "S4": (4, ["(1 2)", "(1 2 3 4)"]),
    "D5": (5, ["(1 2 3 4 5)", "(2 5)(3 4)"]),
    "D6": (6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"]),
    "S3xS2": (5, ["(1 2)", "(1 2 3)", "(4 5)"]),
    "S5": (5, ["(1 2)", "(1 2 3 4 5)"]),
    "S3wrS2": (6, ["(1 2)", "(1 2 3)", "(1 4)(2 5)(3 6)"]),
}


def group_call(name: str, max_d: int = GROUP_MAX_D) -> list:
    m, gens = SWEEP_GROUPS[name]
    return ["group", name, m, [list(_cycles(g, m)) for g in gens], max_d]


def _sweep_calls() -> list[list]:
    calls = [
        ["report", m, d, list(pi)]
        for m in range(1, SWEEP_MAX_M + 1)
        for d in range(SWEEP_MAX_D + 1)
        for pi in partitions(m)
    ]
    calls += [["report_rank", m, d, list(pi)] for m, d in RANK_SIZES for pi in partitions(m)]
    return calls + [group_call(name) for name in SWEEP_GROUPS]


# ---------------------------------------------------------------- generation

@dataclass(frozen=True)
class Plan:
    """What one pass of a workload runs: CLI queries or library calls."""

    queries: tuple[tuple[str, ...], ...] = ()
    calls: tuple = ()


SMOKE_CLI = {
    "cli-large": [
        ("decompose", "--m", "5", "--d", "6"),
        ("qchar", "--m", "6", "--d", "7"),
        ("vanish", "--m", "4", "--d", "6", "--partition", "4"),
        ("dim", "--m", "4", "--d", "5", "--partition", "2,2"),
        ("character", "--table", "5"),
    ],
    "cli-small": [
        ("denumerant", "--coins", "2,1", "--amount", "9", "--series"),
        ("kostka", "--shape", "3,2", "--content", "1,2,2"),
        ("character", "--partition", "2,1", "--class", "3"),
        ("dim", "--m", "3", "--d", "2", "--partition", "2,1", "--verify"),
        ("symmetrize", "--generators", "(1 2),(1 2 3)", "--character",
         "{chars}/S3_2.json", "--alpha", "1,1,0"),
        ("qchar", "--m", "3"),
    ],
}
SMOKE_CALLS = [
    ["report", 3, 4, [2, 1]],
    ["report", 2, 5, [1, 1]],
    ["report_rank", 2, 40, [2]],
    group_call("S4", 2),
]


def plan(workload: str, seed: int, smoke: bool = False) -> Plan:
    """The inputs of one pass; the same (workload, seed) gives the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lib-sweep":
        if smoke:
            return Plan(calls=tuple(map(json.dumps, SMOKE_CALLS)))
        # the seed orders the calls, which decides the calls that find the
        # caches cold; the set of calls is fixed, as a sample of the grid
        # would change the share of costly calls from seed to seed
        calls = _sweep_calls()
        rng.shuffle(calls)
        return Plan(calls=tuple(map(json.dumps, calls)))
    if smoke:
        return Plan(queries=tuple(SMOKE_CLI[workload]))
    if workload == "cli-large":
        queries = [rng.choice(pool) for pool in LARGE_POOLS.values()]
    else:
        queries = [
            rng.choice(pool) for pool in SMALL_POOLS.values() for _ in range(SMALL_PER_COMMAND)
        ]
        queries += rng.sample(MALFORMED, SMALL_MALFORMED)
    rng.shuffle(queries)
    return Plan(queries=tuple(queries))


def query_key(query: tuple[str, ...]) -> str:
    return " ".join(query)


def reference_domain() -> tuple[list[tuple[str, ...]], list[list], set[str]]:
    """Every CLI query and library call any seed can draw, smoke inputs
    included, plus the keys of the queries that must exit 1."""
    queries = [q for pool in LARGE_POOLS.values() for q in pool]
    queries += [q for pool in SMALL_POOLS.values() for q in pool]
    queries += MALFORMED
    for smoke in SMOKE_CLI.values():
        queries += [q for q in smoke if q not in queries]
    return queries, _sweep_calls(), {query_key(q) for q in MALFORMED}
