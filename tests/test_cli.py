import json

import pytest

from relsym.cli import main


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


def test_dim_verify(capsys):
    code, out, _ = run(capsys, "dim", "--m", "3", "--d", "2", "--partition", "2,1", "--verify")
    assert code == 0
    assert "dimension: 4" in out
    assert "matrix rank:    4" in out
    assert "witness: (2,0,0)" in out


def test_vanish(capsys):
    code, out, _ = run(capsys, "vanish", "--m", "3", "--d", "2", "--partition", "1,1,1")
    assert code == 0
    assert out.strip() == "vanishes (no witness)"
    code, out, _ = run(capsys, "vanish", "--m", "3", "--d", "3", "--partition", "1,1,1")
    assert code == 0
    assert out.strip() == "non-vanishing (witness (2,1,0))"


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


def test_input_error_exit_code(capsys):
    code, _, err = run(capsys, "denumerant", "--coins", "1,0", "--amount", "4")
    assert code == 1
    assert "positive" in err
    code, _, _ = run(capsys, "decompose", "--m", "3")
    assert code == 1
    code, _, _ = run(capsys, "nonsense")
    assert code == 1


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
    import relsym.cli as cli
    from relsym.errors import ConsistencyError

    def boom(*args, **kwargs):
        raise ConsistencyError("forced")

    monkeypatch.setattr(cli, "denumerant_decomposition", boom)
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
    assert "group order exceeds" in err


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
