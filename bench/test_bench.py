"""Tests of the benchmark itself, at smoke sizes."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFS = json.loads(run.REFERENCES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_is_correct_quick_and_named(workload, trace):
    start = time.perf_counter()
    result, _ = run.run_workload(workload, 0, 1, trace, smoke=True)
    assert time.perf_counter() - start < 60
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name in result["metrics"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 7)
    assert workloads.plan(workload, 7) != workloads.plan(workload, 8)


def test_every_seed_has_references():
    for seed in range(25):
        for workload in ("cli-large", "cli-small"):
            for query in workloads.plan(workload, seed).queries:
                assert workloads.query_key(query) in REFS
        for line in workloads.plan("lib-sweep", seed).calls:
            kind, *rest = json.loads(line)
            if kind != "group":
                m, d, pi = rest
                assert f"{kind} {m} {d} {workloads.fmt(pi)}" in REFS


@pytest.mark.parametrize(
    "workload, key",
    [
        ("cli-small", "kostka --shape 3,2 --content 1,2,2"),
        ("lib-sweep", "report 3 4 2,1"),
    ],
)
def test_corrupted_or_missing_reference_fails(workload, key):
    corrupted = dict(REFS)
    corrupted[key] = REFS[key][:-16] + "0123456789abcdef"
    result, lines = run.run_workload(workload, 0, 0, False, smoke=True, refs=corrupted)
    assert not result["correct"] and result["failed"] >= 1
    assert any("FAILED wrong result" in line and key in line for line in lines)

    del corrupted[key]
    result, lines = run.run_workload(workload, 0, 0, False, smoke=True, refs=corrupted)
    assert not result["correct"]
    assert any("unverified" in line for line in lines)


def test_query_past_its_timeout_is_killed_and_failed(tmp_path):
    start = time.perf_counter()
    with run.Spawner(tmp_path) as spawner:
        outcome = spawner.run([sys.executable, "-c", "import time; time.sleep(60)"], {}, 0.5)
    assert outcome.timed_out and time.perf_counter() - start < 30
    assert run.check_cli("any", outcome, {"any": "0:"}) == "timeout"

    result, _ = run.run_workload("cli-small", 0, 0, False, smoke=True, query_timeout=1e-3)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_missing_counters_are_reported_absent(monkeypatch):
    monkeypatch.setitem(
        tracer.CACHES, "characters.gone_cache", ("characters", "_no_such_helper", True)
    )
    traced = tracer.Tracer()
    traced.read_caches()
    assert {f"characters.gone_cache.{f}" for f in ("hits", "misses", "size")} <= traced.absent
    streaming = traced.wrap("partitions.orbit_representatives", lambda m, d: iter(()))
    streaming(2, 3)
    assert "partitions.orbit_representatives.items" in traced.absent


def test_times_are_scaled_to_the_reference_host_speed():
    # a host twice as slow as the reference halves the measured seconds
    assert speed.scale([2 * speed.REFERENCE_UNIT_S] * 3) == pytest.approx(0.5)
    sampler = speed.Sampler()
    assert sampler.keep_pace() > 0 and len(sampler.samples) == 1
    assert sampler.keep_pace() == 0


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and "failed_frac 0.0000" in proc.stderr


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
