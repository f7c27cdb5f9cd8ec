"""Every cap is checked by ``config.check_cap``, which reads the cap in
force, compares and raises.  A ``ResourceLimitError`` raised anywhere else
would be a cap check written twice, with its own message and without the
structured fields."""

import ast
import pickle
from pathlib import Path

import pytest

from relsym.characters import character_table
from relsym.config import use_limits
from relsym.errors import ResourceLimitError
from relsym.groups import PermutationGroup
from relsym.partitions import enumerate_gamma

_SRC = Path(__file__).resolve().parent.parent / "src" / "relsym"


def _raises_resource_limit(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "ResourceLimitError":
                yield node.lineno


@pytest.mark.parametrize(
    "path", sorted(p for p in _SRC.glob("*.py") if p.name != "config.py"), ids=lambda p: p.name
)
def test_only_config_raises_resource_limit_errors(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [f"{path.name}:{lineno}" for lineno in _raises_resource_limit(tree)]
    assert not found, "ResourceLimitError built outside config.check_cap: " + "; ".join(found)


def test_the_guard_sees_a_hand_written_cap_raise():
    tree = ast.parse(
        "if size > cap:\n"
        "    raise ResourceLimitError('too big')\n"
        "raise errors.ResourceLimitError('too big')\n"
    )
    assert sorted(_raises_resource_limit(tree)) == [2, 3]


@pytest.mark.parametrize(
    "caps, call, fields, lead",
    [
        (
            {"max_gamma": 2},
            lambda: enumerate_gamma(3, 2),
            ("max_gamma", 6, 2, "--max-gamma"),
            "the number of vectors in Gamma(3, 2) is 6",
        ),
        (
            {"max_group_order": 3},
            lambda: PermutationGroup.symmetric(3),
            ("max_group_order", 4, 3, "--max-elements or RELSYM_MAX_ELEMENTS"),
            "the group order is at least 4",
        ),
        (
            {},
            lambda: character_table(13),
            ("max_character_table_m", 13, 12, None),
            "the degree m of a character row or table is 13",
        ),
    ],
    ids=["max_gamma", "max_group_order", "max_character_table_m"],
)
def test_cap_errors_carry_and_name_their_fields(caps, call, fields, lead):
    with use_limits(**caps), pytest.raises(ResourceLimitError) as raised:
        call()
    exc = raised.value
    assert (exc.cap, exc.requested, exc.limit, exc.flag) == fields
    cap, _, limit, flag = fields
    raise_it = f"raise it with {flag}" if flag else "no command-line flag raises it"
    assert str(exc) == f"{lead}, exceeding the cap of {limit} (Limits.{cap}; {raise_it})"
    copy = pickle.loads(pickle.dumps(exc))
    assert (str(copy), copy.cap, copy.requested, copy.limit, copy.flag) == (str(exc), *fields)
