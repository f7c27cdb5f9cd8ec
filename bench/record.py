"""Record the reference answers every seed of every workload is checked
against, from the relsym found under ``src/``:

    python3 bench/record.py

CLI queries run in this process through ``relsym.cli.main``; library calls
through the same code ``child.py`` uses.  Writes ``references.json``, a flat
map from query key to ``"<exit code>:<result digest>"`` (CLI) or result
digest (library call).  Refuses to write when a query that must succeed
fails, a malformed one does not exit 1, or a rank disagrees with the
character sum.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads
from child import cli_reference, run_calls
from run import REFERENCES, ROOT

sys.path.insert(0, str(ROOT / "src"))


def record() -> dict[str, str]:
    import relsym.cli

    queries, calls, malformed = workloads.reference_domain()
    refs: dict[str, str] = {}
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        chars = Path(tmp)
        workloads.write_character_files(chars)
        for query in queries:
            key = workloads.query_key(query)
            argv = [a.replace("{chars}", str(chars)) for a in query] + ["--json"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = relsym.cli.main(argv)
            if code != (1 if key in malformed else 0):
                raise SystemExit(f"{key}: exit {code}: {err.getvalue().strip()}")
            refs[key] = cli_reference(code, out.getvalue())
    for key, got, _, error in run_calls([json.dumps(c) for c in calls], timeout=600.0):
        if error:
            raise SystemExit(f"{key}: {error}")
        refs[key] = got
    for key in [k for k in refs if k.startswith("rank ")]:
        if refs[key] != refs["charsum " + key[len("rank "):]]:
            raise SystemExit(f"{key}: rank and character sum disagree")
    return refs


if __name__ == "__main__":
    refs = record()
    REFERENCES.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} references to {REFERENCES.name}")
