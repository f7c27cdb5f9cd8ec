import contextlib
import errno
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import hook_length_dimension
import relsym.cli as cli
import relsym.dimensions as dimensions
from relsym.cli import main
from relsym.denumerant import denumerant_class_function, denumerant_decomposition
from relsym.partitions import enumerate_gamma


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_denumerant(capsys):
    code, out, _ = run(capsys, "denumerant", "--coins", "1,2", "--amount", "4")
    assert code == 0
    assert out.strip() == "3"


def test_denumerant_series(capsys):
    code, out, _ = run(capsys, "denumerant", "--coins", "1,2", "--amount", "5", "--series")
    assert code == 0
    assert out.strip() == "1 1 2 2 3 3"


def test_qchar(capsys):
    code, out, _ = run(capsys, "qchar", "--m", "3", "--d", "2")
    assert code == 0
    assert out.strip() == "(3): 0, (2,1): 2, (1,1,1): 6"


def test_decompose(capsys):
    code, out, _ = run(capsys, "decompose", "--m", "3", "--d", "2")
    assert code == 0
    assert out.strip() == "(3): 2, (2,1): 2, (1,1,1): 0"


def test_kostka(capsys):
    code, out, _ = run(capsys, "kostka", "--shape", "3,2", "--content", "2,2,1")
    assert code == 0
    assert out.strip() == "2"
    # content may be any composition
    code, out, _ = run(capsys, "kostka", "--shape", "3,2", "--content", "1,2,2")
    assert code == 0
    assert out.strip() == "2"


def test_character_value_and_table(capsys):
    code, out, _ = run(capsys, "character", "--partition", "2,1", "--class", "3")
    assert code == 0
    assert out.strip() == "-1"
    code, out, _ = run(capsys, "character", "--table", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "classes: (2) (1,1)"
    assert lines[1] == "(2): 1 1"
    assert lines[2] == "(1,1): -1 1"


def test_character_needs_arguments(capsys):
    code, _, err = run(capsys, "character")
    assert code == 1
    assert "need either" in err


@pytest.mark.parametrize(
    "extra", [("--partition", "2,1"), ("--class", "3"), ("--partition", "2,1", "--class", "3")]
)
def test_character_table_takes_no_partition_or_class(capsys, extra):
    code, out, err = run(capsys, "character", "--table", "3", *extra)
    assert (code, out) == (1, "")
    assert err == "error: --table takes neither --partition nor --class\n"


@pytest.mark.parametrize(
    "argv, size",
    [
        (("qchar", "--m", "24", "--d", "24", "--json"), 10),
        (("qchar", "--m", "30", "--d", "5"), 10),
        (("qchar", "--m", "3", "--d", "2"), 0),
    ],
    ids=["json", "text", "closed-at-once"],
)
def test_a_reader_closing_the_pipe_is_not_an_error(argv, size):
    # 288 KB and 153 KB of output, more than a pipe holds, are still being
    # written when the reader goes; 29 bytes stay in stdout's buffer until
    # the last flush, and the reader has gone long before that
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as stdout is by default
    with subprocess.Popen(
        [sys.executable, "-m", "relsym.cli", *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(size)) == size
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")


def _until_its_reader_goes(command, *flags, m=64, d=5):
    """Seconds that ``command --m m --d d`` runs when its reader leaves
    after 100 bytes; it must exit 0 with nothing on stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONUNBUFFERED", None)
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "relsym.cli", command, "--m", str(m), "--d", str(d), *flags],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (0, b"")
    return time.perf_counter() - start


def test_qchar_stops_when_its_reader_goes():
    # p(64) = 1,741,630 rows, streamed: the reader leaves after 100 bytes,
    # and qchar stops at its next full pipe instead of counting every row
    assert _until_its_reader_goes("qchar", "--json") < 2


def test_qchar_text_stops_when_its_reader_goes():
    # the text line is streamed in batches of rows too, not joined first
    assert _until_its_reader_goes("qchar") < 2


def test_qchar_at_a_large_m_stops_when_its_reader_goes():
    # no table sized by the p(1000) rows that are never read is built before
    # the first: the walk's tails stay 1^c here (see _tail_limit)
    assert _until_its_reader_goes("qchar", "--json", m=1000, d=0) < 2


def test_decompose_stops_when_its_reader_goes():
    # one hook coin DP per partition as the walk reaches it: no dict of all
    # p(64) multiplicities is built before the first row goes out
    assert _until_its_reader_goes("decompose", "--json") < 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
def test_a_failed_write_of_the_answer_is_one_line_and_exit_1(mode):
    src = Path(__file__).resolve().parent.parent / "src"
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "relsym.cli", "qchar", "--m", "3", "--d", "2", *mode],
            env={**os.environ, "PYTHONPATH": str(src)}, stdout=full, stderr=subprocess.PIPE,
            timeout=60,
        )
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert done.returncode == 1
    assert done.stderr.decode() == f"error: cannot write the output: {reason}\n"


def test_dim_verify(capsys):
    code, out, _ = run(capsys, "dim", "--m", "3", "--d", "2", "--partition", "2,1", "--verify")
    assert code == 0
    assert "dimension: 4" in out
    assert "matrix rank:    4" in out
    assert "witness: (2,0,0)" in out


def test_dim_verify_group_cap_binds_on_a_cached_group(capsys):
    argv = ("dim", "--m", "3", "--d", "2", "--partition", "2,1", "--verify")
    assert run(capsys, *argv)[0] == 0  # S3 and its orbit structure at d = 2 are now cached
    assert run(capsys, *argv, "--max-elements", "1") == (
        2,
        "",
        "resource limit: the group order is at least 2, exceeding the cap of 1 "
        "(Limits.max_group_order; raise it with --max-elements or RELSYM_MAX_ELEMENTS)\n",
    )
    assert run(capsys, *argv, "--max-gamma", "5") == (
        2,
        "",
        "resource limit: the number of vectors in Gamma(3, 2) is 6, exceeding the cap of 5 "
        "(Limits.max_gamma; raise it with --max-gamma)\n",
    )


def test_vanish(capsys):
    code, out, _ = run(capsys, "vanish", "--m", "3", "--d", "2", "--partition", "1,1,1")
    assert code == 0
    assert out.strip() == "vanishes (no witness)"
    code, out, _ = run(capsys, "vanish", "--m", "3", "--d", "3", "--partition", "1,1,1")
    assert code == 0
    assert out.strip() == "non-vanishing (witness (2,1,0))"


def test_vanish_below_b_answers_at_once():
    # b(1^40) = 0 + 1 + ... + 39 = 780 > 400: the space vanishes, and the
    # answer needs no orbit of Gamma(40, 400)
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["vanish", "--m", "40", "--d", "400", "--partition", ",".join(["1"] * 40)]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=25,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout, done.stderr) == (0, "vanishes (no witness)\n", "")
    assert elapsed < 1.0


@pytest.mark.parametrize("m, d, witness", [
    (20, 120, "39,9,8,8,7,7,6,6,5,5,4,4,3,3,2,2,1,1,0,0"),
    (40, 400, "39,19," + ",".join(f"{v},{v}" for v in range(18, -1, -1))),
])
def test_vanish_above_b_answers_at_once(m, d, witness):
    # b(2^(m/2)) = 2 * (0 + 1 + ... + (m/2 - 1)) <= d: the witness is built
    # from pi; the first witnessing orbit lies far down the reverse-lex order
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["vanish", "--m", str(m), "--d", str(d), "--partition", ",".join(["2"] * (m // 2))]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=25,
    )
    elapsed = time.perf_counter() - start
    expected = f"non-vanishing (witness ({witness}))\n"
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    assert elapsed < 2.0


@pytest.mark.parametrize("n", [20, 31])
def test_character_on_the_identity_of_a_staircase_answers_at_once(n):
    # chi^pi(1^m) = f^pi: the unit cycles are finished by the hook length
    # formula, where a walk removing one cell per layer ran past 15 s
    src = Path(__file__).resolve().parent.parent / "src"
    pi = tuple(range(n, 0, -1))
    ones = ",".join(["1"] * sum(pi))
    argv = ["character", "--partition", ",".join(map(str, pi)), "--class", ones, "--json"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=25,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["result"] == {"value": hook_length_dimension(pi)}
    assert elapsed < 1.0


def test_decompose_at_m_40_answers_in_seconds():
    # p(40) = 37,338 coin DPs with hook lengths as coins; streaming the
    # orbits and filling Kostka columns took about 14 s here
    src = Path(__file__).resolve().parent.parent / "src"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", "decompose", "--m", "40", "--d", "40"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=25,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, "")
    assert elapsed < 2.0
    rows = re.findall(r"\(([\d,]+)\): (\d+)", done.stdout)
    assert len(rows) == 37338
    # the trivial character: the 37,338 partitions of 40
    assert rows[0] == ("40", "37338")
    total = sum(
        hook_length_dimension(tuple(map(int, p.split(",")))) * int(mult) for p, mult in rows
    )
    assert total == math.comb(79, 39)


@pytest.mark.parametrize("d, pi, dimension", [
    (200, "5,4,3", 8228740698488640),
    (120, "2,2,2,2,2,2", 35475563112),
])
def test_dim_at_m_12_past_d_100_answers_at_once(d, pi, dimension):
    # Gamma(12, 200) has 7.2e9 orbits, but 72 orbit types; streaming the
    # orbits for their types was killed at a 20 s timeout
    src = Path(__file__).resolve().parent.parent / "src"
    argv = ["dim", "--m", "12", "--d", str(d), "--partition", pi, "--json"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "relsym.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=25,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stderr) == (0, "")
    envelope = json.loads(done.stdout)
    assert [value for name, value in envelope["result"].items() if name.startswith("dim_")] == [
        dimension
    ] * len(dimensions.ROUTES)
    assert all(passed for _, passed in envelope["cross_checks"])
    assert dimension == dimensions.dim_via_hook_denumerant(12, d, tuple(map(int, pi.split(","))))
    assert elapsed < 1.0


def test_symmetrize(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"()": 2, "(1 2)": 0, "(1 2 3)": -1}))
    code, out, _ = run(
        capsys,
        "symmetrize",
        "--generators",
        "(1 2),(1 2 3)",
        "--character",
        str(path),
        "--alpha",
        "1,1,0",
    )
    assert code == 0
    assert "norm_squared: 2/3" in out
    assert "(1,1,0): 2/3" in out


def test_symmetrize_missing_file(capsys):
    code, _, err = run(
        capsys,
        "symmetrize",
        "--generators",
        "(1 2)",
        "--character",
        "/nonexistent/chi.json",
        "--alpha",
        "1,0",
    )
    assert code == 1
    assert "error" in err


def test_symmetrize_rejects_boolean_character_values(capsys, tmp_path):
    # JSON true is a Python bool, which is an int subclass
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"()": True, "(1 2)": True}))
    code, out, err = run(
        capsys, "symmetrize", "--generators", "(1 2)", "--character", str(path),
        "--alpha", "1,0",
    )
    assert code == 1
    assert out == ""
    assert "must be an integer" in err


@pytest.mark.parametrize(
    "text, complaint",
    [
        # two notations of one transposition with contradictory values
        ('{"()": 1, "(1 2)": 1, "(2 1)": -1}', "repeats an earlier permutation"),
        # a verbatim repeated key, which json.load would silently overwrite
        ('{"()": 1, "(1 2)": 1, "(1 2)": -1}', "repeats the key"),
    ],
)
def test_symmetrize_rejects_repeated_character_keys(capsys, tmp_path, text, complaint):
    path = tmp_path / "chi.json"
    path.write_text(text)
    code, out, err = run(
        capsys, "symmetrize", "--generators", "(1 2)", "--character", str(path),
        "--alpha", "1,0",
    )
    assert code == 1
    assert out == ""
    assert complaint in err


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "denumerant", "--coins", "1,0", "--amount", "4")
    assert code == 1
    assert "positive" in err
    code, _, _ = run(capsys, "decompose", "--m", "3")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("qchar", "--m", "3", "--d", "-1"), "d must be non-negative, got -1"),
        (("decompose", "--m", "0", "--d", "3"), "m must be at least 1, got 0"),
        (("vanish", "--m", "3", "--d", "-1", "--partition", "3"),
         "d must be non-negative, got -1"),
        (("dim", "--m", "3", "--d", "2", "--partition", "2,2"),
         "(2, 2) is a partition of 4, not 3"),
        (("character", "--partition", "2,1", "--class", "2"), "(2,) is a partition of 2, not 3"),
    ],
    ids=["qchar-d", "decompose-m", "vanish-d", "dim-partition", "character-class"],
)
def test_input_errors_name_the_flag_and_the_value(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_resource_exit_code(capsys):
    code, _, err = run(
        capsys, "dim", "--m", "3", "--d", "2", "--partition", "2,1", "--verify",
        "--max-gamma", "2",
    )
    assert code == 2
    assert "resource limit" in err
    code, _, err = run(capsys, "character", "--table", "13")
    assert code == 2


def test_consistency_exit_code(capsys, monkeypatch):
    from relsym.errors import ConsistencyError

    def boom(*args, **kwargs):
        raise ConsistencyError("forced")

    # the handler imports it from its layer when it runs; ``relsym.denumerant``
    # is the function, so the layer is taken from the import system
    monkeypatch.setattr(importlib.import_module("relsym.denumerant"), "_hook_multiplicity", boom)
    code, _, err = run(capsys, "decompose", "--m", "3", "--d", "2")
    assert code == 3
    assert "internal consistency" in err


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("RELSYM_MAX_ELEMENTS", "3")
    code, _, err = run(
        capsys, "symmetrize", "--generators", "(1 2),(1 2 3)",
        "--character", "/nonexistent", "--alpha", "1,1,0",
    )
    assert code == 2
    assert "group order is at least 4, exceeding the cap of 3" in err


def test_malformed_env_var_cap_is_named(capsys, monkeypatch):
    monkeypatch.setenv("RELSYM_MAX_ELEMENTS", "abc")
    code, out, err = run(capsys, "qchar", "--m", "3", "--d", "2")
    assert code == 1
    assert out == ""
    assert "RELSYM_MAX_ELEMENTS" in err and "'abc'" in err
    assert "--max-elements" not in err
    # an explicit flag still overrides the malformed variable
    code, out, _ = run(capsys, "qchar", "--m", "3", "--d", "2", "--max-elements", "5")
    assert code == 0
    assert out.strip() == "(3): 0, (2,1): 2, (1,1,1): 6"


@pytest.mark.parametrize(
    "argv, env",
    [
        (("dim", "--m", "3", "--d", "2", "--partition", "2,1", "--max-gamma", "0"), None),
        (("qchar", "--m", "3", "--d", "2", "--max-elements", "-1"), None),
        (("qchar", "--m", "3", "--d", "2"), "0"),
    ],
)
def test_non_positive_caps_rejected(capsys, monkeypatch, argv, env):
    if env is not None:
        monkeypatch.setenv("RELSYM_MAX_ELEMENTS", env)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "must be a positive integer" in err


def _ones(n):
    return ",".join(["1"] * n)


@pytest.mark.parametrize(
    "argv, value",
    [
        (("character", "--partition", "500", "--class", _ones(500)), 1),
        (("kostka", "--shape", "1000", "--content", _ones(1000)), 1),
        # (n, n) has a Catalan number C_n of standard tableaux, so of degree
        (("kostka", "--shape", "500,500", "--content", _ones(1000)), math.comb(1000, 500) // 501),
        (("character", "--partition", "250,250", "--class", _ones(500)), math.comb(500, 250) // 251),
    ],
    ids=["character-500", "kostka-1000", "kostka-500-500", "character-250-250"],
)
def test_deep_inputs_answer(capsys, argv, value):
    assert run(capsys, *argv) == (0, f"{value}\n", "")


def test_cli_caps_stay_in_their_thread(capsys, monkeypatch):
    entered, release = threading.Event(), threading.Event()

    def blocking_report(*args, **kwargs):
        entered.set()
        release.wait(10)
        return enumerate_gamma(3, 2)  # over this thread's cap of 2

    monkeypatch.setattr(dimensions, "dimension_report", blocking_report)
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(
            main(["dim", "--m", "3", "--d", "2", "--partition", "2,1", "--max-gamma", "2"])
        )
    )
    worker.start()
    try:
        assert entered.wait(10)
        assert len(enumerate_gamma(3, 2)) == 6
    finally:
        release.set()
        worker.join(10)
    assert codes == [2]
    assert "exceeding the cap of 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("denumerant", "--coins", "1,2", "--amount", "4"),
        ("denumerant", "--coins", "3,2,1", "--amount", "6", "--series"),
        ("qchar", "--m", "4", "--d", "3"),
        ("decompose", "--m", "4", "--d", "3"),
        ("kostka", "--shape", "2,1", "--content", "1,1,1"),
        ("character", "--table", "4"),
        ("character", "--partition", "3,1", "--class", "2,2"),
        ("dim", "--m", "4", "--d", "3", "--partition", "2,2", "--verify"),
        ("vanish", "--m", "4", "--d", "2", "--partition", "2,2"),
    ],
)
def test_json_round_trip(capsys, argv):
    code = main([*argv, "--json"])
    out = capsys.readouterr().out
    assert code == 0
    envelope = json.loads(out)
    assert set(envelope) == {"command", "inputs", "result", "cross_checks"}
    rendered = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    assert rendered == out


def test_streamed_envelope_is_the_one_shot_dump(capsys):
    # qchar's rows come from a template in batches of rows; denumerant's
    # series goes through the encoder in batches of its chunks.  Each is long
    # enough that its envelope goes out in more than one batch.
    code, out, err = run(capsys, "qchar", "--m", "24", "--d", "24", "--json")
    assert (code, err) == (0, "")
    envelope = json.loads(out)
    assert out == json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    assert len(envelope["result"]["classes"]) > cli._ROW_BATCH
    argv = ("denumerant", "--coins", "1", "--amount", "5000", "--series", "--json")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    envelope = json.loads(out)
    assert envelope["result"]["series"] == [1] * 5001
    assert out == json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(envelope)
    assert sum(1 for _ in chunks) > cli._JSON_BATCH


def test_json_mode_builds_no_text(capsys, monkeypatch):
    class NoText(str):
        # the partition template, which fails as soon as text is made from it
        def __mod__(self, values):
            raise RuntimeError("text rendered")

        __add__ = __mod__

    monkeypatch.setattr(cli, "_PARTITION", NoText(cli._PARTITION))
    argvs = [
        ("qchar", "--m", "3", "--d", "2"),
        ("decompose", "--m", "3", "--d", "2"),
        ("character", "--table", "5"),
        ("dim", "--m", "3", "--d", "2", "--partition", "2,1"),
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["command"] == argv[0]
    # text mode does render through the patched template, and with it back
    # it prints as before
    for argv in argvs:
        with pytest.raises(RuntimeError, match="text rendered"):
            main(list(argv))
    monkeypatch.undo()
    assert run(capsys, "qchar", "--m", "3", "--d", "2") == (
        0, "(3): 0, (2,1): 2, (1,1,1): 6\n", ""
    )


def _reference_per_partition(command, m, d):
    """The ``qchar`` / ``decompose`` envelope as it was printed before rows
    came from a template: one dict per row, then one indenting dump."""
    if command == "qchar":
        values = denumerant_class_function(m, d).values
        key, names = "classes", ("cycle_type", "value")
    else:
        values = denumerant_decomposition(m, d)
        key, names = "multiplicities", ("partition", "multiplicity")
    envelope = {
        "command": command,
        "inputs": {"m": m, "d": d},
        "result": {key: [{names[0]: list(p), names[1]: int(v)} for p, v in values.items()]},
        "cross_checks": [],
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["qchar", "decompose"])
def test_per_partition_rows_are_the_reference_dump(capsys, command):
    # every m <= 9 with d <= 12, (1, 0) among them
    for m in range(1, 10):
        for d in range(13):
            reference = _reference_per_partition(command, m, d)
            assert run(capsys, command, "--m", str(m), "--d", str(d), "--json") == (
                0, reference, ""
            )


def test_qchar_text_rows_are_the_class_function(capsys):
    for m in range(1, 10):
        for d in range(13):
            values = denumerant_class_function(m, d).values
            text = ", ".join(f"({','.join(map(str, p))}): {v}" for p, v in values.items())
            assert run(capsys, "qchar", "--m", str(m), "--d", str(d)) == (0, text + "\n", "")


@pytest.mark.parametrize("m,d", [(9, 0), (14, 1), (20, 4)])
def test_qchar_rows_with_tails_of_twos_are_the_class_function(capsys, m, d):
    # sizes where the walk takes tails 2^b 1^c, the root's tails among them
    assert importlib.import_module("relsym.denumerant")._tail_limit(m, d) == 2
    values = denumerant_class_function(m, d).values
    text = ", ".join(f"({','.join(map(str, p))}): {v}" for p, v in values.items())
    assert run(capsys, "qchar", "--m", str(m), "--d", str(d)) == (0, text + "\n", "")
    reference = _reference_per_partition("qchar", m, d)
    assert run(capsys, "qchar", "--m", str(m), "--d", str(d), "--json") == (0, reference, "")


def test_qchar_text_goes_out_in_batches(monkeypatch):
    writes = []

    class Recording(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recording()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["qchar", "--m", "24", "--d", "24"]) == 0
    values = denumerant_class_function(24, 24).values
    assert len(values) > cli._ROW_BATCH
    text = ", ".join(f"({','.join(map(str, p))}): {v}" for p, v in values.items())
    assert out.getvalue() == text + "\n"
    assert len(writes) > 2  # more than one write of rows, then the newline


def test_qchar_builds_no_class_function(capsys, monkeypatch):
    import relsym.characters

    def refuse(self, *args):
        raise RuntimeError("a ClassFunction was built")

    reference = _reference_per_partition("qchar", 6, 5)
    monkeypatch.setattr(relsym.characters.ClassFunction, "__init__", refuse)
    assert run(capsys, "qchar", "--m", "6", "--d", "5", "--json") == (0, reference, "")
    for json_flag in ((), ("--json",)):
        assert run(capsys, "qchar", "--m", "0", "--d", "5", *json_flag) == (
            1, "", "error: m must be at least 1, got 0\n"
        )


def test_qchar_leaves_no_cache_entry(capsys):
    from relsym.partitions import _walked_partitions

    # the package re-exports the function denumerant under the module's name
    caches = (_walked_partitions, importlib.import_module("relsym.denumerant")._solution_counts)
    for cache in caches:
        cache.cache_clear()
    code, out, err = run(capsys, "qchar", "--m", "36", "--d", "40", "--json")
    assert (code, err) == (0, "") and len(json.loads(out)["result"]["classes"]) == 17977
    assert [cache.cache_info().currsize for cache in caches] == [0, 0]


def test_decompose_leaves_no_cache_entry(capsys):
    from relsym.partitions import _walked_partitions

    _walked_partitions.cache_clear()
    code, out, err = run(capsys, "decompose", "--m", "20", "--d", "10", "--json")
    assert (code, err) == (0, "") and len(json.loads(out)["result"]["multiplicities"]) == 627
    assert _walked_partitions.cache_info().currsize == 0


@pytest.mark.parametrize("command", ["qchar", "decompose"])
@pytest.mark.parametrize("m, d", [(24, 24), (36, 40)])
def test_per_partition_rows_are_the_reference_dump_at_size(capsys, command, m, d):
    # the reference's decompose reads the Kostka columns the run cached
    out = run(capsys, command, "--m", str(m), "--d", str(d), "--json")
    assert out == (0, _reference_per_partition(command, m, d), "")
    (rows,) = json.loads(out[1])["result"].values()
    assert len(rows) > cli._ROW_BATCH


def test_per_partition_rows_skip_the_encoder(capsys, monkeypatch):
    references = {cmd: _reference_per_partition(cmd, 5, 4) for cmd in ("qchar", "decompose")}

    def no_encoder(self, o, _one_shot=False):
        raise RuntimeError("encoder reached")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", no_encoder)
    for command, reference in references.items():
        assert run(capsys, command, "--m", "5", "--d", "4", "--json") == (0, reference, "")
    # every other command still encodes its result
    with pytest.raises(RuntimeError, match="encoder reached"):
        main(["kostka", "--shape", "3,2", "--content", "2,2,1", "--json"])


def test_json_symmetrize_round_trip(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"()": 1, "(1 2)": -1}))
    code = main([
        "symmetrize", "--generators", "(1 2)", "--character", str(path),
        "--alpha", "2,0", "--json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["norm_squared"] == "1/2"
    rendered = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    assert rendered == out


_MALFORMED = st.sampled_from(["", "a", "1,,2", "-1"])

# the file-free subcommands: their integer options, list options and flags
_SUBCOMMANDS = {
    "denumerant": (("--amount",), ("--coins",), ("--series",)),
    "qchar": (("--m", "--d"), (), ()),
    "decompose": (("--m", "--d"), (), ()),
    "kostka": ((), ("--shape", "--content"), ()),
    "character": (("--table",), ("--partition", "--class"), ()),
    "dim": (("--m", "--d"), ("--partition",), ("--verify",)),
    "vanish": (("--m", "--d"), ("--partition",), ()),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    int_options, list_options, flags = _SUBCOMMANDS[command]
    # integers are often n and lists often partitions of n, so that sizes,
    # shapes, contents and classes often agree and the command runs
    n = draw(st.integers(1, 6))

    def partition_of_n():
        cuts = [0, *(i for i in range(1, n) if draw(st.booleans())), n]
        return sorted((b - a for a, b in zip(cuts, cuts[1:])), reverse=True)

    def value(option):
        if not draw(st.integers(0, 7)):
            return draw(_MALFORMED)
        if option in int_options or option == "--max-gamma":
            return str(draw(st.sampled_from([n, n, draw(st.integers(0, 6))])))
        if draw(st.integers(0, 3)):
            return ",".join(map(str, partition_of_n()))
        return ",".join(map(str, draw(st.lists(st.integers(0, 6), min_size=1, max_size=4))))

    argv = [command]
    for option in (*int_options, *list_options, "--max-gamma"):
        if draw(st.integers(0, 7)):  # usually present
            argv += [option, value(option)]
    argv += [flag for flag in flags + ("--json",) if draw(st.booleans())]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and "--json" in argv:
        assert json.loads(out.getvalue())["command"] == argv[0]


_PINNED_ENVELOPES = [
    (
        ("denumerant", "--coins", "1,2", "--amount", "4"),
        {"coins": [1, 2], "amount": 4, "series": False},
        {"count": 3},
    ),
    (
        ("denumerant", "--coins", "1,2", "--amount", "5", "--series"),
        {"coins": [1, 2], "amount": 5, "series": True},
        {"series": [1, 1, 2, 2, 3, 3]},
    ),
    (
        ("qchar", "--m", "3", "--d", "2"),
        {"m": 3, "d": 2},
        {"classes": [
            {"cycle_type": [3], "value": 0},
            {"cycle_type": [2, 1], "value": 2},
            {"cycle_type": [1, 1, 1], "value": 6},
        ]},
    ),
    (
        ("decompose", "--m", "3", "--d", "2"),
        {"m": 3, "d": 2},
        {"multiplicities": [
            {"partition": [3], "multiplicity": 2},
            {"partition": [2, 1], "multiplicity": 2},
            {"partition": [1, 1, 1], "multiplicity": 0},
        ]},
    ),
    (
        ("kostka", "--shape", "3,2", "--content", "2,2,1"),
        {"shape": [3, 2], "content": [2, 2, 1]},
        {"kostka": 2},
    ),
    (
        ("character", "--table", "3"),
        {"table": 3},
        {
            "classes": [[3], [2, 1], [1, 1, 1]],
            "rows": [
                {"partition": [3], "values": [1, 1, 1]},
                {"partition": [2, 1], "values": [-1, 0, 2]},
                {"partition": [1, 1, 1], "values": [1, -1, 1]},
            ],
        },
    ),
    (
        ("character", "--partition", "2,1", "--class", "3"),
        {"partition": [2, 1], "class": [3]},
        {"value": -1},
    ),
    (
        ("vanish", "--m", "3", "--d", "3", "--partition", "1,1,1"),
        {"m": 3, "d": 3, "partition": [1, 1, 1]},
        {"nonvanishing": True, "witness": [2, 1, 0]},
    ),
]

_DIM_VERIFY = ("dim", "--m", "3", "--d", "2", "--partition", "2,1", "--verify")


def _assert_envelope(out, command, inputs, result, cross_checks):
    envelope = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "cross_checks": cross_checks,
    }
    assert out == json.dumps(envelope, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, inputs, result", _PINNED_ENVELOPES)
def test_json_envelope_is_pinned(capsys, argv, inputs, result):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    _assert_envelope(out, argv[0], inputs, result, [])


def test_dim_verify_output_is_pinned(capsys):
    code, out, err = run(capsys, *_DIM_VERIFY, "--json")
    assert (code, err) == (0, "")
    _assert_envelope(
        out,
        "dim",
        {"m": 3, "d": 2, "partition": [2, 1], "verify": True},
        {
            "m": 3,
            "d": 2,
            "partition": [2, 1],
            "dim_orbit_sum": 4,
            "dim_inner_product": 4,
            "dim_decomposition": 4,
            "rank_dimension": 4,
            "nonvanishing_witness": [2, 0, 0],
        },
        [
            ["orbit_sum equals inner_product", True],
            ["orbit_sum equals decomposition", True],
            ["non-vanishing matches positivity", True],
            ["rank equals formulas", True],
        ],
    )
    code, out, err = run(capsys, *_DIM_VERIFY)
    assert (code, err) == (0, "")
    assert out == (
        "m=3 d=2 partition=(2,1)\n"
        "dimension: 4\n"
        "  orbit sum:      4\n"
        "  inner product:  4\n"
        "  decomposition:  4\n"
        "  matrix rank:    4\n"
        "witness: (2,0,0)\n"
    )


def test_symmetrize_output_is_pinned(capsys, tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"()": 2, "(1 2)": 0, "(1 2 3)": -1}))
    argv = ("symmetrize", "--generators", "(1 2),(1 2 3)", "--character", str(path),
            "--alpha", "1,1,0")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    _assert_envelope(
        out,
        "symmetrize",
        {"generators": "(1 2),(1 2 3)", "character": str(path), "alpha": [1, 1, 0]},
        {
            "coefficients": [
                {"exponent": [0, 1, 1], "coefficient": "-1/3"},
                {"exponent": [1, 0, 1], "coefficient": "-1/3"},
                {"exponent": [1, 1, 0], "coefficient": "2/3"},
            ],
            "norm_squared": "2/3",
        },
        [],
    )
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "(0,1,1): -1/3\n(1,0,1): -1/3\n(1,1,0): 2/3\nnorm_squared: 2/3\n"


def test_one_point_queries_are_pinned(capsys, tmp_path):
    argv = ("dim", "--m", "1", "--d", "3", "--partition", "1", "--verify")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    _assert_envelope(
        out,
        "dim",
        {"m": 1, "d": 3, "partition": [1], "verify": True},
        {
            "m": 1,
            "d": 3,
            "partition": [1],
            "dim_orbit_sum": 1,
            "dim_inner_product": 1,
            "dim_decomposition": 1,
            "rank_dimension": 1,
            "nonvanishing_witness": [3],
        },
        [
            ["orbit_sum equals inner_product", True],
            ["orbit_sum equals decomposition", True],
            ["non-vanishing matches positivity", True],
            ["rank equals formulas", True],
        ],
    )
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"()": 1}))
    argv = ("symmetrize", "--generators", "()", "--character", str(path), "--alpha", "3")
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    _assert_envelope(
        out,
        "symmetrize",
        {"generators": "()", "character": str(path), "alpha": [3]},
        {"coefficients": [{"exponent": [3], "coefficient": 1}], "norm_squared": 1},
        [],
    )
    assert run(capsys, *argv) == (0, "(3): 1\nnorm_squared: 1\n", "")


def _symmetrize_s3(tmp_path):
    path = tmp_path / "chi.json"
    path.write_text(json.dumps({"()": 2, "(1 2)": 0, "(1 2 3)": -1}))
    return ("symmetrize", "--generators", "(1 2),(1 2 3)", "--character", str(path),
            "--alpha", "1,1,0")


def test_symmetrize_symmetrizes_the_monomial_once(capsys, tmp_path, monkeypatch):
    symmetrizer = importlib.import_module("relsym.symmetrizer")
    original = symmetrizer.symmetrize_monomial
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(symmetrizer, "symmetrize_monomial", counting)
    for extra in ((), ("--json",)):
        calls.clear()
        code, _, err = run(capsys, *_symmetrize_s3(tmp_path), *extra)
        assert (code, err, len(calls)) == (0, "", 1)


def test_symmetrize_checks_the_norm_it_prints(capsys, tmp_path, monkeypatch):
    symmetrizer = importlib.import_module("relsym.symmetrizer")
    original = symmetrizer.symmetrize_monomial

    def own_coefficient_off_by_one(group, chi, alpha):
        poly = original(group, chi, alpha)
        coefficients = dict(poly.coefficients)
        coefficients[alpha] += 1
        return symmetrizer.SymmetrizedPolynomial(poly.m, poly.d, coefficients)

    monkeypatch.setattr(symmetrizer, "symmetrize_monomial", own_coefficient_off_by_one)
    code, out, err = run(capsys, *_symmetrize_s3(tmp_path))
    assert (code, out) == (3, "")
    assert "norm mismatch for (1, 1, 0)" in err


@pytest.mark.parametrize(
    "command",
    ["denumerant", "qchar", "decompose", "kostka", "character", "dim", "vanish", "symmetrize"],
)
def test_help_ends_with_the_shared_options(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    options = [line.split()[0].rstrip(",") for line in out.splitlines() if line.startswith("  -")]
    assert options[0] == "-h"
    assert options[-3:] == ["--json", "--max-elements", "--max-gamma"]


_DIM_WITHOUT_RANK = [
    (
        ("dim", "--m", "6", "--d", "3", "--partition", "4,2"),
        {"m": 6, "d": 3, "partition": [4, 2], "verify": False},
        {
            "m": 6,
            "d": 3,
            "partition": [4, 2],
            "dim_orbit_sum": 18,
            "dim_inner_product": 18,
            "dim_decomposition": 18,
            "rank_dimension": None,
            "nonvanishing_witness": [2, 1, 0, 0, 0, 0],
        },
        [
            ["orbit_sum equals inner_product", True],
            ["orbit_sum equals decomposition", True],
            ["non-vanishing matches positivity", True],
        ],
        "m=6 d=3 partition=(4,2)\n"
        "dimension: 18\n"
        "  orbit sum:      18\n"
        "  inner product:  18\n"
        "  decomposition:  18\n"
        "witness: (2,1,0,0,0,0)\n",
    ),
    (
        ("dim", "--m", "3", "--d", "2", "--partition", "1,1,1"),
        {"m": 3, "d": 2, "partition": [1, 1, 1], "verify": False},
        {
            "m": 3,
            "d": 2,
            "partition": [1, 1, 1],
            "dim_orbit_sum": 0,
            "dim_inner_product": 0,
            "dim_decomposition": 0,
            "rank_dimension": None,
            "nonvanishing_witness": None,
        },
        [
            ["orbit_sum equals inner_product", True],
            ["orbit_sum equals decomposition", True],
            ["non-vanishing matches positivity", True],
        ],
        "m=3 d=2 partition=(1,1,1)\n"
        "dimension: 0\n"
        "  orbit sum:      0\n"
        "  inner product:  0\n"
        "  decomposition:  0\n"
        "witness: none\n",
    ),
    (
        # --verify outside the rank window: m = 7
        ("dim", "--m", "7", "--d", "3", "--partition", "5,2", "--verify"),
        {"m": 7, "d": 3, "partition": [5, 2], "verify": True},
        {
            "m": 7,
            "d": 3,
            "partition": [5, 2],
            "dim_orbit_sum": 28,
            "dim_inner_product": 28,
            "dim_decomposition": 28,
            "rank_dimension": None,
            "nonvanishing_witness": [2, 1, 0, 0, 0, 0, 0],
        },
        [
            ["orbit_sum equals inner_product", True],
            ["orbit_sum equals decomposition", True],
            ["non-vanishing matches positivity", True],
        ],
        "m=7 d=3 partition=(5,2)\n"
        "dimension: 28\n"
        "  orbit sum:      28\n"
        "  inner product:  28\n"
        "  decomposition:  28\n"
        "witness: (2,1,0,0,0,0,0)\n",
    ),
]


_NO_RANK_NOTE = (
    "note: --verify ran no exact rank check;"
    " it runs only at m <= 6 and |Gamma(m, d)| <= 1000\n"
)


@pytest.mark.parametrize("argv, inputs, result, cross_checks, text", _DIM_WITHOUT_RANK)
def test_dim_without_rank_output_is_pinned(capsys, argv, inputs, result, cross_checks, text):
    # --verify outside the rank window says on stderr that the rank did not run
    err = _NO_RANK_NOTE if "--verify" in argv else ""
    code, out, json_err = run(capsys, *argv, "--json")
    assert (code, json_err) == (0, err)
    _assert_envelope(out, "dim", inputs, result, cross_checks)
    assert run(capsys, *argv) == (0, text, err)


def test_long_series_takes_the_linear_dp(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "denumerant", "--coins", ",".join(["1"] * 10), "--amount", "5000", "--series"
    )
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    values = out.split()
    assert len(values) == 5001
    assert values[-1] == str(math.comb(5009, 9))


@pytest.mark.parametrize("m, d, partition", [(13, 80, "7,6"), (40, 400, "40")])
def test_dim_checks_the_character_cap_before_any_route(capsys, m, d, partition):
    start = time.perf_counter()
    code, out, err = run(capsys, "dim", "--m", str(m), "--d", str(d), "--partition", partition)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        f"resource limit: the degree m of a character row or table is {m}, exceeding"
        " the cap of 12 (Limits.max_character_table_m; no command-line flag raises it)\n"
    )
