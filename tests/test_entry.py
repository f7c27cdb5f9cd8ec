"""The program entry ``relsym.cli.run`` against ``relsym.cli.main``: the
entry freezes the collector once main has answered, and nothing a user
sees changes with it."""

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relsym.cli as cli

_SRC = Path(__file__).resolve().parent.parent / "src"

# makes the decompose handler's hook multiplicity fail its check, in a
# fresh interpreter started without -S
_FORCE_CONSISTENCY_ERROR = (
    "import importlib\n"
    "from relsym.errors import ConsistencyError\n"
    "def boom(*args, **kwargs):\n"
    "    raise ConsistencyError('forced')\n"
    "importlib.import_module('relsym.denumerant')._hook_multiplicity = boom\n"
)


def _boom(*args, **kwargs):
    from relsym.errors import ConsistencyError

    raise ConsistencyError("forced")


@pytest.mark.parametrize(
    "argv, expected",
    [(["qchar", "--m", "3", "--d", "2"], 0), (["qchar", "--m", "x", "--d", "2"], 1)],
    ids=["answer", "argparse-error"],
)
def test_run_freezes_the_collector_and_returns_mains_code(argv, expected, monkeypatch, capsys):
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["relsym", *argv])
    try:
        code = cli.run()
        frozen = gc.get_freeze_count()
    finally:
        gc.unfreeze()
    out, err = capsys.readouterr()
    assert code == expected
    assert frozen > 0
    assert (cli.main(argv), *capsys.readouterr()) == (code, out, err)


def test_main_leaves_the_collector_as_it_was(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["dim", "--m", "4", "--d", "3", "--partition", "2,2", "--json"]) == 0
    assert cli.main(["qchar", "--m", "x", "--d", "2"]) == 1
    assert gc.get_freeze_count() == before
    assert gc.isenabled()


def _env(tmp_path, sitecustomize=None):
    """The environment of a fresh ``python -m relsym.cli`` that runs
    ``sitecustomize``, if given, before it."""
    path = str(_SRC)
    if sitecustomize is not None:
        (tmp_path / "sitecustomize.py").write_text(sitecustomize)
        path = os.pathsep.join([str(tmp_path), path])
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as stdout is by default
    return env


@pytest.mark.parametrize(
    "argv, expected, patched",
    [
        (["qchar", "--m", "7", "--d", "6", "--json"], 0, False),
        (["dim", "--help"], 0, False),
        (["dim", "--m", "5", "--d", "4", "--partition", "3,1,1", "--json"], 0, False),
        (["character", "--table", "4"], 0, False),
        (["dim", "--m", "5", "--d", "4", "--partition", "3,x", "--json"], 1, False),
        (["qchar", "--m", "x", "--d", "2", "--json"], 1, False),
        (["character", "--table", "13", "--json"], 2, False),
        (["decompose", "--m", "3", "--d", "2", "--json"], 3, True),
    ],
    ids=["qchar", "help", "dim", "character-text", "bad-input", "argparse-error", "cap",
         "consistency"],
)
def test_the_module_entry_prints_what_main_prints(
    argv, expected, patched, tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal's width
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", *argv],
        env=_env(tmp_path, _FORCE_CONSISTENCY_ERROR if patched else None),
        capture_output=True, timeout=60,
    )
    if patched:
        module = importlib.import_module("relsym.denumerant")
        monkeypatch.setattr(module, "_hook_multiplicity", _boom)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == expected
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())


def test_the_module_entry_leaves_quietly_when_its_reader_goes(tmp_path, capsys):
    # 288 KB of rows, more than a pipe holds: the reader leaves after 4 KB
    argv = ["qchar", "--m", "24", "--d", "24", "--json"]
    with subprocess.Popen(
        [sys.executable, "-m", "relsym.cli", *argv], env=_env(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        head = proc.stdout.read(4096)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert cli.main(argv) == 0
    out, _ = capsys.readouterr()
    assert (code, err, head) == (0, b"", out.encode()[:4096])


def test_the_module_entry_runs_the_atexit_handlers(tmp_path):
    handler = "import atexit, sys\natexit.register(sys.stderr.write, 'atexit ran\\n')\n"
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", "qchar", "--m", "3", "--d", "2"],
        env=_env(tmp_path, handler), capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (
        0, b"(3): 0, (2,1): 2, (1,1,1): 6\n", b"atexit ran\n"
    )
