"""``tests/oracles.py`` is the independent side of every cross-check, so it
imports nothing from the package under test, absolutely or relatively."""

import ast
from pathlib import Path

ORACLES = Path(__file__).with_name("oracles.py")


def _package_imports(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if a.name.split(".")[0] == "relsym")
        elif isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "relsym":
                yield "." * node.level + (node.module or "")


def test_oracles_import_nothing_from_the_package():
    assert list(_package_imports(ORACLES.read_text())) == []


def test_the_import_check_sees_every_form():
    for source in (
        "import relsym",
        "import os, relsym.tableaux as t",
        "from relsym import kostka",
        "from relsym.characters import _row",
        "def f():\n    from relsym.linalg import kernel",
        "from . import groups",
        "from .partitions import dominates",
    ):
        assert list(_package_imports(source)), source
    assert list(_package_imports("import math\nimport relsymx\nfrom fractions import Fraction")) == []
