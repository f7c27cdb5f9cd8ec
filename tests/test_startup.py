"""Every relsym process imports the whole package before it parses its
arguments, so what that import pulls in is paid by every query."""

import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"

# stdlib modules the package does not need at start-up: dataclasses pulls
# in inspect, and through it ast, dis and tokenize
_HEAVY = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")

_MODULES = sorted(
    ["relsym"] + [f"relsym.{path.stem}" for path in (_SRC / "relsym").glob("*.py")
                  if path.stem != "__init__"]
)


def test_cold_import_stays_light_and_complete():
    code = (
        "import json, sys\n"
        "import relsym, relsym.cli\n"
        "relsym.cli.build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert sorted(loaded.intersection(_HEAVY)) == []
    # the benchmark tracer finds every layer in sys.modules right after import
    assert len(_MODULES) == 13
    assert sorted(m for m in loaded if m == "relsym" or m.startswith("relsym.")) == _MODULES


# every name relsym re-exported when it imported all its layers at once, by
# the layer that defines it
_PUBLIC = {
    "characters": (
        "ClassFunction", "character_table", "induced_trivial_character", "inner_product",
        "irreducible_character_value", "restricted_trivial_inner_product",
    ),
    "config": ("limits", "use_limits"),
    "denumerant": (
        "denumerant", "denumerant_class_function", "denumerant_decomposition",
        "hook_decomposition",
    ),
    "dimensions": (
        "DimensionReport", "dim_via_decomposition", "dim_via_hook_denumerant",
        "dim_via_inner_product", "dim_via_orbit_sum", "dimension_report", "is_nonvanishing",
    ),
    "errors": ("ConsistencyError", "ResourceLimitError"),
    "groups": ("PermutationGroup",),
    "irreducibles": ("integer_irreducible_characters",),
    "partitions": (
        "dominates", "enumerate_gamma", "enumerate_partitions", "multiplicity_factorial",
        "multiplicity_partition", "orbit_representatives", "orbit_type_counts",
    ),
    "symmetrizer": (
        "CharacterSpec", "SymmetrizedPolynomial", "dimension_by_character_sum",
        "dimension_by_rank", "norm_squared", "sn_character_spec", "symmetrize_monomial",
    ),
    "tableaux": ("hook_lengths", "kostka"),
}

# one first call per thread, each into a layer that has not run yet
_FIRST_TOUCH = (
    ("kostka", ((3, 2), (2, 2, 1))),
    ("character_table", (5,)),
    ("denumerant", ((1, 2, 5), 12)),
    ("dimension_report", (4, 3, (2, 2))),
    ("hook_decomposition", (5, 6)),
    ("is_nonvanishing", (5, 4, (3, 1, 1))),
)

_LAYERS_RUN = (
    "import io, json, sys\n"
    "import relsym, relsym.cli\n"
    "stdout, sys.stdout, sys.stderr = sys.stdout, io.StringIO(), io.StringIO()\n"
    "code = relsym.cli.main(json.loads(sys.argv[1]))\n"
    "ran = sorted(name.partition('.')[2] for name, module in sys.modules.items()\n"
    "             if name.startswith('relsym.') and type(module) is not relsym._Layer)\n"
    "stdout.write(json.dumps([code, ran, 'fractions' in sys.modules]))\n"
)

_CORE = ["cli", "config", "errors", "partitions", "tableaux"]
_RANK_STACK = {"groups", "irreducibles", "linalg", "symmetrizer"}
_LIBRARY = [m.partition(".")[2] for m in _MODULES if m != "relsym"]
# stands for a character file written under the test's tmp_path
_CHARACTER_FILE = "<character file>"


def _fresh(code, *args, stdin=None):
    """Run ``code`` in a fresh ``python -S`` that compiles relsym from source."""
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        env=env, input=stdin, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_threads_that_first_touch_layers_at_once_all_succeed():
    import relsym

    code = (
        "import json, sys, threading\n"
        "sys.setswitchinterval(1e-6)\n"
        "import relsym\n"
        f"calls = {_FIRST_TOUCH!r}\n"
        "barrier = threading.Barrier(len(calls))\n"
        "results, errors = {}, []\n"
        "def call(name, args):\n"
        "    barrier.wait()\n"
        "    try:\n"
        "        results[name] = repr(getattr(relsym, name)(*args))\n"
        "    except Exception as exc:\n"
        "        errors.append(f'{name}: {exc!r}')\n"
        "threads = [threading.Thread(target=call, args=c, daemon=True) for c in calls]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(30)\n"
        "alive = sum(t.is_alive() for t in threads)\n"
        "print(json.dumps({'errors': errors, 'alive': alive, 'results': results}))\n"
    )
    expected = {name: repr(getattr(relsym, name)(*args)) for name, args in _FIRST_TOUCH}
    for _ in range(20):
        assert json.loads(_fresh(code)) == {"errors": [], "alive": 0, "results": expected}


@pytest.mark.parametrize(
    "argv, ran, not_ran, no_fractions",
    [
        (["frobnicate"], ["cli"], set(), True),
        (["kostka", "--shape", "3,2"], ["cli"], set(), True),
        (["kostka", "--shape", "3,2", "--content", "2,2,1"], _CORE, set(), True),
        (["vanish", "--m", "5", "--d", "4", "--partition", "3,1,1"],
         sorted(_CORE + ["dimensions"]), set(), True),
        (["denumerant", "--coins", "1,2,5", "--amount", "12"], None,
         {"characters", "tableaux"}, False),
        (["qchar", "--m", "6", "--d", "5"],
         ["cli", "config", "denumerant", "errors", "partitions"], set(), True),
        (["dim", "--m", "5", "--d", "4", "--partition", "3,1,1"], None, _RANK_STACK, False),
        (["dim", "--m", "4", "--d", "3", "--partition", "2,2", "--verify"],
         [m for m in _LIBRARY if m != "irreducibles"], set(), False),
        (["symmetrize", "--generators", "(1 2),(1 2 3)", "--character", _CHARACTER_FILE,
          "--alpha", "2,0,0"],
         [m for m in _LIBRARY if m not in ("dimensions", "irreducibles")], set(), False),
    ],
    ids=["unknown-command", "missing-option", "kostka", "vanish", "denumerant", "qchar", "dim",
         "dim-verify", "symmetrize"],
)
def test_a_query_runs_only_the_layers_it_reaches(argv, ran, not_ran, no_fractions, tmp_path):
    if _CHARACTER_FILE in argv:
        character = tmp_path / "character.json"
        character.write_text(json.dumps({"()": 2, "(1 2)": 0, "(1 2 3)": -1}))
        argv = [str(character) if arg == _CHARACTER_FILE else arg for arg in argv]
    code, layers, fractions = json.loads(_fresh(_LAYERS_RUN, json.dumps(argv)))
    assert code == (1 if ran == ["cli"] else 0)
    if ran is not None:
        assert layers == ran
    assert not_ran.isdisjoint(layers)
    if no_fractions:
        assert not fractions


def test_public_names_are_their_layers_objects():
    pairs = [(name, layer) for layer, names in _PUBLIC.items() for name in names]
    code = (
        "import importlib, json, types\n"
        "import relsym\n"
        f"pairs = {pairs!r}\n"
        "wrong = [name for name, layer in pairs if getattr(relsym, name)\n"
        "         is not getattr(importlib.import_module('relsym.' + layer), name)]\n"
        "star = {}\n"
        "exec('from relsym import *', star)\n"
        "print(json.dumps({\n"
        "    'wrong': wrong, 'star': sorted(star.keys() - {'__builtins__'}), 'dir': dir(relsym),\n"
        "    'function': isinstance(relsym.denumerant, types.FunctionType),\n"
        "    'version': relsym.__version__,\n"
        "}))\n"
    )
    out = json.loads(_fresh(code))
    names = sorted(name for name, _ in pairs)
    assert len(names) == 39
    assert out["wrong"] == []
    assert out["star"] == names
    assert set(names) <= set(out["dir"])
    assert out["function"] and out["version"] == "0.1.0"


def test_records_unpickle_in_a_fresh_process():
    import relsym
    from relsym.config import Limits

    spec = relsym.sn_character_spec(3, (2, 1))
    records = [
        Limits(max_gamma=5),
        relsym.ClassFunction(2, {(2,): 0, (1, 1): Fraction(1, 2)}),
        relsym.dimension_report(3, 2, (2, 1), verify_rank=True),
        relsym.symmetrize_monomial(spec.group, spec, (1, 1, 0)),
    ]
    code = "import pickle, sys\nprint(repr(pickle.loads(sys.stdin.buffer.read())))\n"
    assert _fresh(code, stdin=pickle.dumps(records)).decode() == repr(records) + "\n"


def test_running_the_cli_module_warns_nothing():
    # runpy warns when the module it runs is already in sys.modules
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "relsym.cli", "qchar", "--m", "3", "--d", "2",
         "--json"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["command"] == "qchar"
