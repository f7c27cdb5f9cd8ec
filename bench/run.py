"""Benchmark of the relsym package, driven from outside as one closed-loop
client: one query at a time, each CLI query in a fresh interpreter.

    python3 bench/run.py --workload cli-large --seed 0 --seconds 40 --trace 0

Workloads are ``cli-large``, ``cli-small`` and ``lib-sweep`` (see
``workloads.py`` and README.md).  A run repeats passes over the seeded
inputs until ``--seconds`` is spent, checking every answer against
``references.json``, and times ``setup_s`` (a fresh interpreter importing
relsym and building the CLI parser) between queries throughout.  Times are
scaled to a reference host speed sampled next to them (``speed.py``), so
that the host's drift cancels.  With ``--trace 1`` it alternates untraced
and traced passes and reports per-layer metrics instead.  A human-readable
report goes to stderr; the last line of stdout is the JSON result.
``--smoke`` swaps in tiny inputs for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import speed
import tracer
import workloads
from child import cli_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references.json"

# no run may last longer than this, whatever the program does
HARD_BUDGET_S = 150.0
QUERY_TIMEOUT_S = {"cli-large": 60.0, "cli-small": 20.0, "lib-sweep": 120.0}
SETUP_SAMPLES = 9
# a set-up probe runs between queries whenever the run is this far ahead
# of the probes, so that probes sample the whole run, not one moment of it
SETUP_EVERY_S = 2.0
SETUP_CODE = "import relsym, relsym.cli; relsym.cli.build_parser()"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_s.p50": "s",
    "query_s.p90": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no program, no references)."""


@dataclass
class Outcome:
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool


class Spawner:
    """Runs children one at a time through ``spawner.py``, a lean helper
    process, so that each child's peak RSS and CPU from ``os.wait4`` are its
    own: neither this process's memory nor an earlier query's shows up."""

    def __init__(self, workdir: Path) -> None:
        self.out = workdir / "child.stdout"
        self.err = workdir / "child.stderr"
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def run(self, argv: list[str], env: dict, timeout: float) -> Outcome:
        """Run one child to completion, or kill it after ``timeout`` seconds."""
        request = {"argv": argv, "env": env, "stdout": str(self.out),
                   "stderr": str(self.err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline() or '{"error": "spawner died"}')
        if "error" in reply:
            raise SetupError(reply["error"])
        return Outcome(
            stdout=self.out.read_text(encoding="utf-8", errors="replace"),
            stderr=self.err.read_text(encoding="utf-8", errors="replace"),
            **reply,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def check_cli(key: str, outcome: Outcome, refs: dict) -> str | None:
    """Why a CLI query failed, or None when its answer matches the reference."""
    if outcome.timed_out:
        return "timeout"
    if "Traceback" in outcome.stderr:
        return "traceback"
    expected = refs.get(key)
    if expected is None:
        return "unverified"
    try:
        got = cli_reference(outcome.exit_code, outcome.stdout)
    except (ValueError, KeyError, TypeError):
        return "unparsable output"
    if got.split(":")[0] != expected.split(":")[0]:
        return f"exit {outcome.exit_code}"
    return None if got == expected else "wrong result"


def is_seconds(metric: str) -> bool:
    return metric.endswith(".s") or metric.endswith("_s")


@dataclass
class PassResult:
    cpu_s: float = 0.0
    # wall time per query or library call, in plan order (nan: not run)
    samples: list[float] = field(default_factory=list)
    # wall time per child process: each CLI query, or the one sweep process
    processes: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    # the pass's time before scaling to reference seconds
    raw_wall_s: float = 0.0

    def fail(self, key: str, reason: str) -> None:
        self.failures.append((key, reason))

    def add_layers(self, dump_prefix: Path, factor: float) -> None:
        found = tracer.aggregate(dump_prefix)
        for name, value in found["metrics"].items():
            if is_seconds(name):
                value *= factor
            if name.endswith(".size"):
                self.layers[name] = max(self.layers.get(name, 0), value)
            else:
                self.layers[name] = self.layers.get(name, 0) + value
        self.absent.update(found["absent"])


class Bench:
    def __init__(self, workload: str, refs: dict, workdir: Path, spawner: Spawner,
                 query_timeout=None):
        self.spawner = spawner
        self.refs = refs
        self.workdir = workdir
        self.deadline = time.perf_counter() + HARD_BUDGET_S
        self.query_timeout = query_timeout or QUERY_TIMEOUT_S[workload]
        self.env = {
            k: v for k, v in os.environ.items()
            if not k.startswith("RELSYM_") and k not in ("PYTHONPATH", "PYTHONSTARTUP")
        }
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.chars = workdir / "chars"
        workloads.write_character_files(self.chars)
        self.serial = 0
        # set-up probe times, in reference seconds and as measured
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.units = [speed.unit()]
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def probe(self) -> None:
        """Check that relsym imports from this checkout (and compile it)."""
        code = "import relsym, relsym.cli; print(relsym.__file__)"
        outcome = self.spawner.run([sys.executable, "-c", code], self.env, 60.0)
        expected = ROOT / "src" / "relsym" / "__init__.py"
        if outcome.exit_code != 0 or Path(outcome.stdout.strip()).resolve() != expected:
            raise SetupError(f"relsym does not import from {expected}: {outcome.stderr.strip()}")

    def run_child(self, cmd: list[str], timeout: float) -> tuple[Outcome, float]:
        """Run one child; returns its outcome and the factor that turns its
        seconds into reference seconds, from the host-speed units run right
        before and right after it (``speed.py``)."""
        outcome = self.spawner.run(cmd, self.env, timeout)
        self.units.append(speed.unit())
        return outcome, speed.scale(self.units[-2:])

    def setup_probe(self) -> None:
        outcome, factor = self.run_child([sys.executable, "-c", SETUP_CODE], 60.0)
        if outcome.exit_code != 0:
            raise SetupError(f"set-up probe failed: {outcome.stderr.strip()}")
        self.setup.append(outcome.wall_s * factor)
        self.raw_setup.append(outcome.wall_s)

    def keep_probing(self) -> None:
        """Run set-up probes until they keep pace with the elapsed time."""
        elapsed = time.perf_counter() - self.started
        while len(self.setup) < 1 + elapsed / SETUP_EVERY_S:
            self.setup_probe()

    def _trace_prefix(self) -> Path:
        self.serial += 1
        return self.workdir / f"trace{self.serial}"

    def cli_pass(self, plan: workloads.Plan, traced: bool) -> PassResult:
        result = PassResult()
        for query in plan.queries:
            key = workloads.query_key(query)
            argv = [a.replace("{chars}", str(self.chars)) for a in query] + ["--json"]
            result.attempted += 1
            timeout = min(self.query_timeout, self.remaining())
            if timeout <= 0:
                result.fail(key, "run budget spent")
                result.samples.append(math.nan)
                result.processes.append(math.nan)
                continue
            self.keep_probing()
            prefix = self._trace_prefix() if traced else None
            if traced:
                cmd = [sys.executable, str(BENCH / "child.py"), "cli", str(prefix), *argv]
            else:
                cmd = [sys.executable, "-m", "relsym.cli", *argv]
            outcome, factor = self.run_child(cmd, timeout)
            result.samples.append(outcome.wall_s * factor)
            result.processes.append(outcome.wall_s * factor)
            result.raw_wall_s += outcome.wall_s
            result.rss_mb.append(outcome.rss_mb)
            result.cpu_s += outcome.cpu_s
            reason = check_cli(key, outcome, self.refs)
            if reason:
                result.fail(key, reason)
            if traced and prefix.with_suffix(".json").exists():
                result.add_layers(prefix, factor)
        return result

    def sweep_pass(self, plan: workloads.Plan, traced: bool) -> PassResult:
        result = PassResult()
        calls = self.workdir / "calls.jsonl"
        results = self.workdir / "results.json"
        calls.write_text("\n".join(plan.calls), encoding="utf-8")
        results.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "child.py"), "sweep", str(calls), str(results)]
        prefix = self._trace_prefix() if traced else None
        if traced:
            cmd.append(str(prefix))
        timeout = min(self.query_timeout, self.remaining())
        outcome = self.spawner.run(cmd, self.env, timeout)
        result.cpu_s = outcome.cpu_s
        result.rss_mb.append(outcome.rss_mb)
        if outcome.exit_code != 0 or not results.exists():
            reason = "timeout" if outcome.timed_out else f"sweep exited {outcome.exit_code}"
            result.processes.append(outcome.wall_s)
            result.attempted = len(plan.calls)
            for line in plan.calls:
                result.fail(line, reason)
            return result
        found = json.loads(results.read_text(encoding="utf-8"))
        # the host-speed units the sweep ran between its calls scale its
        # times, and are not the program's time
        factor = speed.scale(found["speed"])
        self.units += found["speed"]
        result.raw_wall_s = outcome.wall_s - math.fsum(found["speed"])
        result.processes.append(result.raw_wall_s * factor)
        for key, got, seconds, error in found["calls"]:
            result.attempted += 1
            result.samples.append(seconds * factor)
            expected = self.refs.get(key)
            if error:
                result.fail(key, error)
            elif expected is None:
                result.fail(key, "unverified")
            elif got != expected:
                result.fail(key, "wrong result")
        if traced:
            result.add_layers(prefix, factor)
        return result

    def run_pass(self, plan: workloads.Plan, traced: bool) -> PassResult:
        if plan.calls:
            return self.sweep_pass(plan, traced)
        return self.cli_pass(plan, traced)

    def measure(self, plan: workloads.Plan, seconds: float, trace: bool):
        """Untraced (and, with ``trace``, traced) passes until the next
        round would overrun ``seconds``; at least one round."""
        self.probe()
        plain: list[PassResult] = []
        traced: list[PassResult] = []
        start = time.perf_counter()
        while True:
            self.keep_probing()
            plain.append(self.run_pass(plan, traced=False))
            if trace:
                traced.append(self.run_pass(plan, traced=True))
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(plain)
            if elapsed + per_round > seconds or self.remaining() < per_round:
                return plain, traced


def means_per_position(rows: list[list[float]]) -> list[float]:
    """Each query's mean wall time over the passes that ran it.

    A shared machine alternates between a fast and a slow speed for seconds
    at a time.  The median of a few samples then jumps from one speed to the
    other as the share of slow samples crosses one half, while the mean moves
    with that share; so a query's passes are averaged, and the medians are
    taken across the workload's queries."""
    out = []
    for times in itertools.zip_longest(*rows, fillvalue=math.nan):
        measured = [t for t in times if not math.isnan(t)]
        if measured:
            out.append(statistics.fmean(measured))
    return out


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    refs: dict | None = None,
    query_timeout: float | None = None,
) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    if not (ROOT / "src" / "relsym" / "__init__.py").is_file():
        raise SetupError(f"no relsym package under {ROOT / 'src'}")
    if refs is None:
        if not REFERENCES.is_file():
            raise SetupError(f"missing {REFERENCES.name}")
        refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    plan = workloads.plan(workload, seed, smoke)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        with Spawner(workdir) as spawner:
            bench = Bench(workload, refs, workdir, spawner, query_timeout)
            plain, traced = bench.measure(plan, seconds, trace)
            while len(bench.setup) < (1 if smoke else SETUP_SAMPLES):
                bench.setup_probe()
            setup = bench.setup
            raw_setup = statistics.median(bench.raw_setup)
            units = bench.units
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    per_query = means_per_position([p.samples for p in plain])
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": math.fsum(means_per_position([p.processes for p in plain])),
        "query_s.p50": statistics.median(per_query),
        "query_s.p90": _p90(per_query),
        "peak_rss_mb": max(r for p in plain for r in p.rss_mb),
    }
    per_pass = f"each the mean of {len(plain)} passes"
    samples = {
        "setup_s": f"n={len(setup)} probes",
        "wall_s": f"sum of {len(plain[0].processes)} processes, {per_pass}",
        "query_s.p50": f"n={len(per_query)} queries, {per_pass}",
        "query_s.p90": f"n={len(per_query)} queries, {per_pass}"
        + ("; fewer than ten lie beyond it" if len(per_query) < 100 else ""),
        "peak_rss_mb": f"max over n={sum(len(p.rss_mb) for p in plain)} processes",
    }
    lines = [
        f"workload {workload} seed {seed}: {len(plain)} untraced, {len(traced)} traced "
        f"passes of {plain[0].attempted} queries",
        f"  failed_frac {len(failures) / max(attempted, 1):.4f} "
        f"({len(failures)} of {attempted} attempted)",
    ]
    lines += [
        f"  {name:<12} {value:.6g} {END_TO_END_UNITS[name]} ({samples[name]})"
        for name, value in end_to_end.items()
    ]
    lines.append(
        f"  child cpu per pass {statistics.median(p.cpu_s for p in plain):.4g} s"
    )
    lines.append(
        f"  host speed: {len(units)} units, mean {statistics.fmean(units) * 1e3:.4g} ms "
        f"(reference {speed.REFERENCE_UNIT_S * 1e3:.4g} ms); unscaled setup_s "
        f"{raw_setup:.6g}, wall_s {statistics.fmean(p.raw_wall_s for p in plain):.6g}"
    )
    for key, reason in failures[:20]:
        lines.append(f"  FAILED {reason}: {key}")
    if trace:
        metrics = {}
        absent = set().union(*(p.absent for p in traced))
        names = sorted(set().union(*(p.layers for p in traced)) - absent)
        for name in names:
            value = statistics.median_low(p.layers.get(name, 0) for p in traced)
            unit = "s" if is_seconds(name) else "count"
            metrics[name] = {"value": value, "unit": unit}
        traced_wall = math.fsum(means_per_position([p.processes for p in traced]))
        for name, value in (
            ("trace.wall_s", traced_wall),
            ("trace.untraced_wall_s", end_to_end["wall_s"]),
            ("trace.overhead_s", traced_wall - end_to_end["wall_s"]),
        ):
            metrics[name] = {"value": value, "unit": "s"}
        lines.append(f"  tracing overhead {traced_wall - end_to_end['wall_s']:.4g} s per pass")
        if absent:
            lines.append("  absent (not reported): " + ", ".join(sorted(absent)))
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
    unverified = sum(1 for _, reason in failures if reason == "unverified")
    if unverified:
        lines.append(f"  unverified: {unverified} answers have no reference")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
        )
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
