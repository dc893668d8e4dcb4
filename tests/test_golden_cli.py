"""tools/golden_cli.py runs clean: every case exits within the CLI's 0/2/3/4
contract, and every file-writing case gives the same bytes when rerun over
its own outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_cli_runs_clean(tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "golden_cli.py"), str(tmp_path / "in"), str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out / "parse-bom-states" / "exit").read_text() == "0\n"
    assert json.loads((out / "pattern-upper-json-map" / "MAP.JSON").read_text())["states"]
    assert (out / "profile-1-port-loads" / "stderr").read_text() == (
        "error: need a 2-port network, got 1 ports\n"
    )
