"""Every relsym process imports the whole package before it parses its
arguments, so what that import pulls in is paid by every query."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
