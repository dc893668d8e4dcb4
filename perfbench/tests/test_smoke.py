"""Smoke test of the benchmark: every workload runs a handful of checked ops.

Each workload runs once in ``--smoke --trace 1`` mode, which exercises the
untraced loop, the traced loop and the per-layer report, and must report
every metric that ``BENCHMARK.json`` names with no failed op.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TIMEOUT_S = 600


def _start(*args, cwd=ROOT):
    # Relative to the working directory, as the benchmark command is given.
    return subprocess.Popen([sys.executable, f"{BENCH.name}/run.py", *args], cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc):
    out, err = proc.communicate(timeout=TIMEOUT_S)
    return proc.returncode, out.splitlines(), err


def test_smoke_every_workload_reports_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    procs = {
        w["name"]: _start("--workload", w["name"], "--seed", "7", "--seconds", "1",
                          "--trace", "1", "--smoke")
        for w in spec["workloads"]
    }
    untraced = _start("--workload", "design_sweep", "--seed", "8", "--seconds", "1",
                      "--trace", "0", "--smoke")
    for name, proc in procs.items():
        code, lines, err = _finish(proc)
        assert code == 0, err
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, lines
        assert list(result["metrics"]) == per_layer
        detail = json.loads(next(x for x in lines if x.startswith("detail "))[len("detail "):])
        assert set(detail["end_to_end"]) == end_to_end
        assert all(v > 0 for v in detail["end_to_end"].values())
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        assert calls["import.calls"] >= 1
        assert sum(calls.values()) > calls["import.calls"], f"{name}: no layer call traced"

    code, lines, err = _finish(untraced)
    assert code == 0, err
    result = json.loads(lines[-1])
    assert result["correct"] and set(result["metrics"]) == end_to_end


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines, _ = _finish(_start("--workload", "design_sweep", "--seed", "1",
                                    "--seconds", "1", "--trace", "0", cwd=tmp_path))
    assert code != 0
    assert not any(x.startswith("{") for x in lines)
