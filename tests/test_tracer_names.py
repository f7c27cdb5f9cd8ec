"""The benchmark's span tracer names relsym functions and memo caches by
string; a rename in relsym that the tracer does not follow would silently
drop their counters.  The tracer is loaded from its file, not installed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("relsym_bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in tracer.FUNCTIONS.items() for name in names
])
def test_traced_function_resolves(layer, name):
    owner, _, method = name.partition(".")
    found = getattr(importlib.import_module(f"relsym.{layer}"), owner)
    if method:
        found = getattr(found, method)
    assert callable(found)


@pytest.mark.parametrize("module, helper", [
    (module, helper) for module, helper, _ in tracer.CACHES.values()
])
def test_traced_cache_has_cache_info(module, helper):
    cached = getattr(importlib.import_module(f"relsym.{module}"), helper)
    assert callable(cached.cache_info)
