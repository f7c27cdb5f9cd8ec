"""No function in relsym calls itself, directly or from a function nested in
it: Python's recursion limit would then cap input sizes with no flag to
raise it, so every walk over shapes, strips or vectors is a loop."""

import ast
from pathlib import Path

import pytest

_SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "relsym").glob("*.py"))


def _self_calls(tree: ast.AST) -> list[tuple[str, int]]:
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                # a method calling itself through self or cls
                name = callee.attr if callee.value.id in ("self", "cls") else None
            else:
                name = callee.id if isinstance(callee, ast.Name) else None
            if name == func.name:
                found.append((func.name, node.lineno))
    return found


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_function_calls_itself(path):
    assert _self_calls(ast.parse(path.read_text(encoding="utf-8"))) == []
