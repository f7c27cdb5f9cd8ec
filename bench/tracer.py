"""Span tracer for relsym's public functions.

``install`` rebinds every traced function, in every ``relsym`` module that
binds it, to a timing wrapper; a binding is replaced only when it is the
very function object the defining module exports.  Classes are traced by
wrapping the method on the class object, which every module shares.  Spans
(name, start, end, parent) are kept in arrays and written out by ``dump``;
``aggregate`` turns a dump into per-function calls, inclusive seconds and
self seconds (duration minus the time covered by direct child spans).

Private recursive helpers are not wrapped.  Their work is read from the
``cache_info()`` of their memo caches; a cache that no longer exists is
reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter
from functools import wraps
from pathlib import Path

# layer (module) -> traced names; "Class" traces construction,
# "Class.method" a method
FUNCTIONS = {
    "cli": ["main"],
    "partitions": [
        "enumerate_partitions",
        "orbit_representatives",
        "enumerate_gamma",
        "multiplicity_partition",
        "dominates",
    ],
    "tableaux": ["kostka", "count_fillings"],
    "characters": [
        "character_table",
        "irreducible_character_value",
        "restricted_trivial_inner_product",
        "induced_trivial_character",
        "inner_product",
    ],
    "denumerant": ["denumerant", "denumerant_class_function", "denumerant_decomposition"],
    "dimensions": [
        "dimension_report",
        "dim_via_orbit_sum",
        "dim_via_inner_product",
        "dim_via_decomposition",
        "is_nonvanishing",
    ],
    "symmetrizer": [
        "dimension_by_rank",
        "dimension_by_character_sum",
        "symmetrize_monomial",
        "norm_squared",
        "sn_character_spec",
        "CharacterSpec",
    ],
    "groups": [
        "PermutationGroup",
        "PermutationGroup.conjugacy_classes",
        "PermutationGroup.stabilizer",
    ],
    "irreducibles": ["integer_irreducible_characters"],
}

SPAN_NAMES = [f"{layer}.{name}" for layer, names in FUNCTIONS.items() for name in names]

# metric prefix -> (module, memo-cached helper, whether to report its size)
CACHES = {
    "characters.mn_cache": ("characters", "_mn_value", True),
    "characters.restricted_cache": ("characters", "_restricted_trivial_cached", False),
    "tableaux.kostka_cache": ("tableaux", "_kostka_cached", False),
}

COUNTERS = [
    "partitions.orbit_representatives.items",
    "partitions.enumerate_gamma.items",
    "symmetrizer.dimension_by_rank.cells",
    "groups.PermutationGroup.elements",
] + [
    f"{prefix}.{field}"
    for prefix, (_, _, sized) in CACHES.items()
    for field in (("hits", "misses", "size") if sized else ("hits", "misses"))
]


def _items(tracer, name, args, kwargs, result):
    return len(result)


def _cells(tracer, name, args, kwargs, result):
    """|Gamma(m, d)| squared: the entries of the dense rank matrix."""
    bound = tracer.signatures[name].bind(*args, **kwargs)
    m, d = bound.arguments["group"].m, bound.arguments["d"]
    return math.comb(d + m - 1, m - 1) ** 2


def _elements(tracer, name, args, kwargs, result):
    return args[0].order


# span name -> (counter suffix, how to count one call)
_COUNTING = {
    "partitions.orbit_representatives": ("items", _items),
    "partitions.enumerate_gamma": ("items", _items),
    "symmetrizer.dimension_by_rank": ("cells", _cells),
    "groups.PermutationGroup": ("elements", _elements),
}


class Tracer:
    def __init__(self) -> None:
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.absent: set[str] = set()
        self.signatures: dict[str, inspect.Signature] = {}

    def wrap(self, name: str, fn):
        idx = SPAN_NAMES.index(name)
        suffix, count = _COUNTING.get(name, (None, None))
        if count is _cells:
            self.signatures[name] = inspect.signature(fn)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack
        )
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                counter = f"{name}.{suffix}"
                try:
                    self.counters[counter] += count(self, name, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    # the counted code changed shape; say so rather than fail
                    self.absent.add(counter)
            return result

        return traced

    def install(self) -> None:
        """Import relsym and its CLI, then rebind every traced callable."""
        importlib.import_module("relsym.cli")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "relsym" or key.startswith("relsym.")
        ]
        for layer, names in FUNCTIONS.items():
            defining = sys.modules.get(f"relsym.{layer}")
            for name in names:
                full = f"{layer}.{name}"
                owner_name, _, method = name.partition(".")
                original = getattr(defining, owner_name, None)
                if original is None:
                    self.absent.add(full)
                    continue
                if isinstance(original, type):
                    attr = method or "__init__"
                    fn = original.__dict__.get(attr)
                    if fn is None:
                        self.absent.add(full)
                        continue
                    setattr(original, attr, self.wrap(full, fn))
                    continue
                wrapper = self.wrap(full, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def read_caches(self) -> None:
        for prefix, (module, helper, sized) in CACHES.items():
            fn = getattr(sys.modules.get(f"relsym.{module}"), helper, None)
            info = getattr(fn, "cache_info", None)
            fields = ("hits", "misses", "size") if sized else ("hits", "misses")
            if info is None:
                self.absent.update(f"{prefix}.{f}" for f in fields)
                continue
            info = info()
            self.counters[prefix + ".hits"] += info.hits
            self.counters[prefix + ".misses"] += info.misses
            if sized:
                self.counters[prefix + ".size"] += info.currsize

    def dump(self, prefix: Path) -> None:
        """Write the spans (binary arrays) and the counters (JSON)."""
        self.read_caches()
        with open(prefix.with_suffix(".spans"), "wb") as handle:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(handle)
        prefix.with_suffix(".json").write_text(
            json.dumps(
                {
                    "spans": len(self.span_name),
                    "counters": dict(self.counters),
                    "absent": sorted(self.absent),
                }
            ),
            encoding="utf-8",
        )


def aggregate(prefix: Path) -> dict:
    """Per-span-name calls, s and self_s, plus counters, from one dump."""
    meta = json.loads(prefix.with_suffix(".json").read_text(encoding="utf-8"))
    n = meta["spans"]
    span_name, parent, start, end = array("H"), array("i"), array("d"), array("d")
    with open(prefix.with_suffix(".spans"), "rb") as handle:
        for arr in (span_name, parent, start, end):
            arr.fromfile(handle, n)
    duration = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += duration[i]
    calls = [0] * len(SPAN_NAMES)
    total = [0.0] * len(SPAN_NAMES)
    own = [0.0] * len(SPAN_NAMES)
    for i, idx in enumerate(span_name):
        calls[idx] += 1
        total[idx] += duration[i]
        own[idx] += duration[i] - covered[i]
    out = {}
    for idx, name in enumerate(SPAN_NAMES):
        if name in meta["absent"]:
            continue
        out[name + ".calls"] = calls[idx]
        out[name + ".s"] = total[idx]
        out[name + ".self_s"] = own[idx]
    out.update({name: 0 for name in COUNTERS})
    out.update(meta["counters"])
    for name in meta["absent"]:
        out.pop(name, None)
    return {"metrics": out, "absent": meta["absent"]}
