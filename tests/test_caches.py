"""Every memo in relsym is an ``lru_cache``, whose ``cache_info()`` the
benchmark tracer and the tests can read.  A module-level dict, list or set,
or a lock guarding one, would be a cache that nothing can see or bound."""

import ast
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
