"""Steadiness report: run one workload once per seed, untraced and for
``run_seconds`` as BENCHMARK.json sets, and print for every metric its
median, quartiles and spread (interquartile range as a share of the median)
next to its bound in BENCHMARK.json.

    python3 bench/steady.py --workload cli-large --runs 10 --first-seed 1

Runs go one after another, each a separate ``run.py`` process.  Exits 1 if
any run fails or reports a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads
from run import BENCH, ROOT


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        shown = " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s")
    print(f"{'metric':<48} {'unit':<6} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for name in sorted(values):
        if len(values[name]) < 2:
            continue
        med, q1, q3, share = spread(values[name])
        bound = bounds[name]
        flag = "ok" if share < bound / 3 else ("within" if share <= bound else "WIDE")
        print(f"{name:<48} {units[name]:<6} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
              f"{share:>7.3f} {bound:>6} {flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
