"""Every memo in relsym is an ``lru_cache``, whose ``cache_info()`` the
benchmark tracer and the tests can read.  A module-level dict, list or set,
or a lock guarding one, would be a cache that nothing can see or bound."""

import ast
import importlib
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "relsym"

_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_LOCKS = {"Lock", "RLock", "Semaphore", "BoundedSemaphore", "Condition"}


def _is_hidden_cache(value):
    if isinstance(value, _CONTAINERS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        return (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "threading"
            and func.attr in _LOCKS
        )
    return False


def _module_bindings(tree):
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and node.value:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield [ast.unparse(t) for t in targets], node.value, node.lineno


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    hidden = [
        f"{path.name}:{lineno} {', '.join(names)}"
        for names, value, lineno in _module_bindings(tree)
        if _is_hidden_cache(value)
    ]
    assert not hidden, "module-level containers or locks: " + "; ".join(hidden)


def test_the_guard_sees_a_table_cache_and_its_lock():
    tree = ast.parse(
        "import threading\n"
        "_TABLE_CACHE: dict[int, dict] = {}\n"
        "_TABLE_LOCK = threading.Lock()\n"
        "ROUTES = ('a', 'b')\n"
    )
    found = [names for names, value, _ in _module_bindings(tree) if _is_hidden_cache(value)]
    assert found == [["_TABLE_CACHE"], ["_TABLE_LOCK"]]


# the unbounded memos that remain; each is to be bounded or scoped, and no
# new one may join them
_UNBOUNDED = {
    "_mn_value",
    "_ribbons_removed",
    "_restricted_trivial_cached",
    "_kostka_cached",
    "_walked_partitions",
}


def _called_name(node):
    """``lru_cache`` for ``lru_cache`` and ``functools.lru_cache`` alike."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _is_unbounded_memo(decorator):
    """``@cache``, a bare ``@lru_cache`` (whose bound is not written down)
    and ``@lru_cache(maxsize=None)`` or ``@lru_cache(None)``."""
    if not isinstance(decorator, ast.Call):
        return _called_name(decorator) in ("cache", "lru_cache")
    if _called_name(decorator.func) != "lru_cache":
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)


def _unbounded_memos(tree):
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(map(_is_unbounded_memo, node.decorator_list))
    ]


def test_no_new_unbounded_memo():
    found = {
        name
        for path in _SRC.glob("*.py")
        for name in _unbounded_memos(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found <= _UNBOUNDED, f"new unbounded memos: {sorted(found - _UNBOUNDED)}"


def test_the_memo_guard_sees_every_unbounded_form():
    tree = ast.parse(
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\ndef a(x): pass\n"
        "@lru_cache\ndef b(x): pass\n"
        "@lru_cache(maxsize=None)\ndef c(x): pass\n"
        "@functools.lru_cache(None)\ndef d(x): pass\n"
        "class K:\n    @functools.cache\n    def e(self): pass\n"
        "@lru_cache(maxsize=128)\ndef bounded(x): pass\n"
        "@lru_cache(64)\ndef bounded_too(x): pass\n"
        "@staticmethod\ndef plain(x): pass\n"
    )
    assert sorted(_unbounded_memos(tree)) == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("module, name, maxsize", [
    ("denumerant", "_solution_counts", 128),
    ("denumerant", "_young_decomposition", 128),
    ("partitions", "_orbit_types", 128),
    ("tableaux", "_kostka_column", 512),
    ("tableaux", "_strips", 1024),
    ("characters", "young_subgroup_classes", 512),
    ("tableaux", "_degree", 512),
    ("dimensions", "_character_row", 512),
    ("dimensions", "_weighted_counts", 128),
    ("symmetrizer", "_orbit_structure", 64),
    ("symmetrizer", "_symmetric_group", 8),
])
def test_the_shared_report_caches_are_bounded(module, name, maxsize):
    cached = getattr(importlib.import_module(f"relsym.{module}"), name)
    assert cached.cache_info().maxsize == maxsize


def test_the_ribbon_memo_lives_for_one_table(monkeypatch):
    # character_table(m) memoizes _ribbons_added in an lru_cache it makes
    # inside the call and drops on return: it is no shared memo, so it has
    # no bound to pin, one table computes each (shape, r) once, and the next
    # table computes its moves afresh
    characters = importlib.import_module("relsym.characters")
    config = importlib.import_module("relsym.config")
    assert not hasattr(characters._ribbons_added, "cache_info")
    moves = []
    moved_beads = characters._moved_beads

    def counted(shape, shift, pad):
        moves.append((shape, shift))
        return moved_beads(shape, shift, pad)

    monkeypatch.setattr(characters, "_moved_beads", counted)
    # above the default cap, where a shared memo of 1,024 entries made
    # 14,224 moves for these 5,632
    with config.use_limits(max_character_table_m=20):
        characters.character_table(20)
    assert len(moves) == len(set(moves)) == 5632
    moves.clear()
    characters.character_table(8)
    first = list(moves)
    characters.character_table(8)
    assert first and moves == first + first
