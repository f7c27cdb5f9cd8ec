"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 bench/child.py cli TRACE_PREFIX ARGV...
        install the tracer, run ``relsym.cli.main(ARGV)``, write the spans
        to TRACE_PREFIX.spans/.json and exit with main's code.

    python3 bench/child.py sweep CALLS RESULTS [TRACE_PREFIX]
        run the library calls listed (one JSON list per line) in CALLS and
        write ``{"calls": [[key, digest, seconds, error], ...], "speed":
        [seconds, ...]}`` to RESULTS: the calls, and the host-speed units
        (``speed.py``) run between them; with TRACE_PREFIX, traced as above.

Untraced CLI queries do not come through here: they run ``python -m
relsym.cli`` directly, as a user would.
"""

from __future__ import annotations

import hashlib
import json
import signal
import sys
import time
from pathlib import Path

import speed

# a library call still running after this many seconds is abandoned
CALL_TIMEOUT_S = 60.0

REPORT_FIELDS = (
    "m",
    "d",
    "pi",
    "dim_orbit_sum",
    "dim_inner_product",
    "dim_decomposition",
    "nonvanishing_witness",
    "rank_dimension",
)


def digest(value) -> str:
    """First 16 hex digits of the SHA-256 of the canonical JSON of ``value``."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def cli_reference(exit_code: int, stdout: str) -> str:
    """``"<exit code>:<digest of the envelope's result>"``; the digest is
    empty for a failing exit.  ``inputs`` and ``cross_checks`` are left out:
    the inputs of ``symmetrize`` hold a file path."""
    if exit_code != 0:
        return f"{exit_code}:"
    return f"0:{digest(json.loads(stdout)['result'])}"


def _fmt(parts) -> str:
    return ",".join(str(x) for x in parts)


def _report(relsym, m, d, pi, verify):
    report = relsym.dimension_report(m, d, tuple(pi), verify_rank=verify)
    out = {}
    for field in REPORT_FIELDS:
        value = getattr(report, field)
        out[field] = list(value) if isinstance(value, tuple) else value
    return out


def expand(call: list):
    """Yield ``(key, thunk)`` for one call line; a group line expands into
    the group, its integer irreducibles and the rank / character-sum pairs,
    in order, because the later calls use the earlier results."""
    import relsym

    kind = call[0]
    if kind in ("report", "report_rank"):
        _, m, d, pi = call
        yield (
            f"{kind} {m} {d} {_fmt(pi)}",
            lambda: _report(relsym, m, d, pi, kind == "report_rank"),
        )
        return
    _, name, m, gens, max_d = call
    state = {}

    def build():
        group = relsym.PermutationGroup([tuple(g) for g in gens], m)
        state["group"] = group
        return {
            "order": group.order,
            "class_sizes": sorted(len(c) for c in group.conjugacy_classes()),
        }

    def irreducibles():
        group = state["group"]
        found = relsym.integer_irreducible_characters(group)
        state["specs"] = [
            relsym.CharacterSpec.from_class_values(group, dict(zip(ch["classes"], ch["values"])))
            for ch in found
        ]
        return [
            {"classes": [list(p) for p in ch["classes"]], "values": ch["values"],
             "degree": ch["degree"]}
            for ch in found
        ]

    yield f"group {name}", build
    yield f"irreducibles {name}", irreducibles
    for k in range(len(state.get("specs", ()))):
        for d in range(max_d + 1):
            spec = state["specs"][k]
            yield (
                f"rank {name} {k} {d}",
                lambda spec=spec, d=d: relsym.dimension_by_rank(spec.group, spec, d),
            )
            yield (
                f"charsum {name} {k} {d}",
                lambda spec=spec, d=d: relsym.dimension_by_character_sum(spec.group, spec, d),
            )


class CallTimeout(BaseException):
    """Raised by the alarm inside a library call that ran too long."""


def _alarm(signum, frame):
    raise CallTimeout()


def run_calls(lines: list[str], timeout: float = CALL_TIMEOUT_S, sampler=None):
    """Run every call, timing each; a failing call yields its error text.
    With a ``speed.Sampler``, host-speed units run between the calls."""
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    for line in lines:
        for key, thunk in expand(json.loads(line)):
            if sampler is not None:
                sampler.keep_pace()
            error = None
            value = None
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                value = thunk()
            except CallTimeout:
                error = "timeout"
            except Exception as exc:  # recorded as a failed call, the sweep goes on
                error = f"{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
            results.append([key, None if error else digest(value), seconds, error])
    return results


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        import relsym.cli

        try:
            code = relsym.cli.main(argv[2:])
        finally:
            sys.stdout.flush()
            tracer.dump(Path(argv[1]))
        return code
    if mode == "sweep":
        calls, results = Path(argv[1]), Path(argv[2])
        tracer = None
        if len(argv) > 3:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        sampler = speed.Sampler()
        out = run_calls(calls.read_text(encoding="utf-8").splitlines(), sampler=sampler)
        sampler.keep_pace()
        if tracer is not None:
            tracer.dump(Path(argv[3]))
        results.write_text(
            json.dumps({"calls": out, "speed": sampler.samples}),
            encoding="utf-8",
        )
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
