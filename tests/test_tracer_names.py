"""The benchmark's span tracer names relsym functions and memo caches by
string; a rename in relsym that the tracer does not follow would silently
drop their counters.  The tracer is loaded from its file, not installed."""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("relsym_bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _resolve(layer, name):
    owner, _, method = name.partition(".")
    found = getattr(importlib.import_module(f"relsym.{layer}"), owner)
    return getattr(found, method) if method else found


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in tracer.FUNCTIONS.items() for name in names
])
def test_traced_function_resolves(layer, name):
    assert callable(_resolve(layer, name))


def _bound_names(count):
    """The argument names a counter reads from a signature binding, as
    ``bound.arguments["name"]``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(count)))
    return {
        node.slice.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "arguments"
        and isinstance(node.slice, ast.Constant)
    }


def test_the_guard_sees_the_cells_counter_binding():
    assert _bound_names(tracer._cells) == {"group", "d"}


@pytest.mark.parametrize("span, count", [
    (span, count) for span, (_, count) in tracer._COUNTING.items() if _bound_names(count)
])
def test_counter_binds_parameters_the_function_has(span, count):
    layer, _, name = span.partition(".")
    parameters = inspect.signature(_resolve(layer, name)).parameters
    assert _bound_names(count) <= set(parameters)


@pytest.mark.parametrize("module, helper", [
    (module, helper) for module, helper, _ in tracer.CACHES.values()
])
def test_traced_cache_has_cache_info(module, helper):
    cached = getattr(importlib.import_module(f"relsym.{module}"), helper)
    assert callable(cached.cache_info)
