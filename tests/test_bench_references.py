"""Every CLI query and library call the benchmark can draw answers as
``bench/references.json`` records, checked by the benchmark's own digest.
The benchmark's modules are loaded from their files, not installed; nothing
under ``bench/`` is written."""

import importlib.util
import json
import signal
import sys
from pathlib import Path

from relsym.cli import main

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"relsym_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered first: the dataclasses of workloads.py look their module up
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# child.py imports its sibling ``speed`` by its bare name
sys.modules.setdefault("speed", _load("speed"))
child = _load("child")
workloads = _load("workloads")


def test_every_cli_query_matches_its_reference(capsys, tmp_path):
    workloads.write_character_files(tmp_path)
    references = json.loads((_BENCH / "references.json").read_text(encoding="utf-8"))
    queries, _, _ = workloads.reference_domain()
    wrong = []
    for query in queries:
        argv = [arg.replace("{chars}", str(tmp_path)) for arg in query]
        code = main([*argv, "--json"])
        key = workloads.query_key(query)
        got = child.cli_reference(code, capsys.readouterr().out)
        if got != references[key]:
            wrong.append((key, got, references[key]))
    assert len(queries) > 3000
    assert wrong == []


def test_every_library_call_matches_its_reference():
    references = json.loads((_BENCH / "references.json").read_text(encoding="utf-8"))
    _, calls, _ = workloads.reference_domain()
    previous = signal.getsignal(signal.SIGALRM)  # run_calls installs its own
    try:
        results = child.run_calls([json.dumps(call) for call in calls])
    finally:
        signal.signal(signal.SIGALRM, previous)
    wrong = [
        (key, got, error, references.get(key))
        for key, got, _, error in results
        if got != references.get(key)
    ]
    assert len(results) > 1200
    assert wrong == []
