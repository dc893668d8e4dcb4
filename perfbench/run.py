#!/usr/bin/env python3
"""risnet benchmark: end-to-end and per-layer timings on seeded fixtures.

Usage (from the repository root):

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1              # every workload, each in a fresh process
    python3 perfbench/run.py --smoke               # a handful of checked ops per workload

One client drives risnet in a closed loop: the next op starts only when the
previous one has finished and been checked. ``--trace 0`` measures the
end-to-end metrics. ``--trace 1`` runs an untraced half and a traced half of
the same ops and reports per-layer metrics from the traced half plus the
tracing overhead. The last stdout line is the JSON result; the lines before
it are a readable table and a ``detail`` record (environment, tail
percentile, output digests). risnet is imported from ``src/`` of the
checkout, so no install is needed.
"""

from __future__ import annotations

import os
import sys

# Cap BLAS/OpenMP pools at the CPUs this process may use, before numpy loads.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli_session", "design_sweep", "wall_patterns")
SETUP_SAMPLES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_FUNCS = {
    "touchstone": ("parse_touchstone", "serialize_touchstone", "load_state_csv", "dump_state_csv"),
    "network": ("profile_from_network",),
    "loads": ("synthesize_stub_lengths", "sp8t_load_profile", "spdt_load_profile"),
    "metrics": ("bandwidth", "select_states"),
    "array": ("steering_codebook", "array_factor.cut", "array_factor.grid"),
    "gating": ("load_sweep_csv", "time_gate", "normalize_to_plate"),
}
LAYERS = (*LAYER_FUNCS, "cli", "import")
CLI_SUBCOMMANDS = ("parse", "synth", "profile", "bandwidth", "pattern", "gate")
COUNTER_UNITS = {
    "touchstone.csv_bytes": "bytes",
    "loads.switch_points": "count",
    "metrics.sigma_points": "count",
    "array.af_terms": "count",
    "array.af_tensor_bytes": "bytes",
}

# The import probe run in a fresh interpreter: reports its own import time,
# the modules import added and whether scipy came with it, right after
# `import risnet` returns. The parent stamps the time the line arrives.
_IMPORT_PROBE = (
    "import sys, time\n"
    "before = set(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import risnet\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t), len(set(sys.modules) - before), int('scipy' in sys.modules), flush=True)\n"
)


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.busy_s": "s", f"{layer}.self_s": "s"})
    for layer, funcs in LAYER_FUNCS.items():
        for fn in funcs:
            units.update({f"{layer}.{fn}.calls": "count", f"{layer}.{fn}.busy_s": "s",
                          f"{layer}.{fn}.self_s": "s"})
    units.update(COUNTER_UNITS)
    for sub in CLI_SUBCOMMANDS:
        units.update({f"cli.{sub}.proc_s": "s", f"cli.{sub}.inproc_s": "s"})
    units.update({"import.risnet_s": "s", "import.modules": "count",
                  "import.scipy_loaded": "count", "trace.overhead": "ratio"})
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload in this process (default: all, each in its own)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one cycle of ops per phase, one setup sample; for a quick check")
    return ap.parse_args(argv)


def measure_setup(env: dict, samples: int) -> list:
    """Fresh interpreters: (spawn-to-import seconds, import seconds, modules, scipy)."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _IMPORT_PROBE], env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        if proc.returncode != 0 or not line:
            raise RuntimeError("import probe failed: `import risnet` did not complete")
        import_s, modules, scipy_loaded = line.split()
        out.append((t1 - t0, float(import_s), int(modules), int(scipy_loaded)))
    return out


def run_phase(wl, tracer, seconds: float, min_ops: int, max_ops, traced: bool) -> list:
    """Closed loop over the workload's op cycle; returns one record per op."""
    records = []
    t_end = time.perf_counter() + seconds
    i = 0
    while (len(records) < min_ops or time.perf_counter() < t_end) and (
        max_ops is None or len(records) < max_ops
    ):
        inputs = wl.prepare(i)
        kind = wl.kinds[i % len(wl.kinds)]
        tracer.op_id = i
        error = None
        t0 = time.perf_counter()
        try:
            with tracer.span(f"op.{kind}"):
                out = wl.run(i, inputs)
            latency = time.perf_counter() - t0
            with tracer.paused():
                wl.check(i, inputs, out)
            if traced and hasattr(wl, "run_inproc"):
                wl.run_inproc(inputs)
        except Exception:  # an op that fails is counted and the loop goes on
            latency = time.perf_counter() - t0
            error = traceback.format_exc(limit=4)
        records.append({"kind": kind, "latency": latency, "ok": error is None, "error": error})
        i += 1
    return records


def end_to_end(records, setup, peak_rss_mb) -> tuple:
    lat = [r["latency"] for r in records if r["ok"]]
    n = len(records)
    # Highest whole percentile with at least TAIL_BEYOND samples above it at
    # this run length, never below the median (cli_session and design_sweep
    # runs have about 20 ops or fewer).
    pct = max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))
    tail = _percentile(lat, pct)
    metrics = {
        "setup_s": statistics.median(s[0] for s in setup),
        "ops_per_s": len(lat) / sum(r["latency"] for r in records),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    tail_info = {"percentile": pct, "samples": len(lat),
                 "samples_beyond": sum(1 for x in lat if x > tail)}
    return metrics, tail_info


def _percentile(values, pct: float) -> float:
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def per_layer(tracer, setup, untraced, traced) -> dict:
    import spans

    stats = spans.summarize(tracer.spans)
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    stats["import"] = {"calls": len(setup), "busy_s": sum(s[1] for s in setup),
                       "self_s": sum(s[1] for s in setup)}
    values = {}
    for name in per_layer_units():
        head, _, field = name.rpartition(".")
        if field in ("calls", "busy_s", "self_s"):
            values[name] = stats.get(head, zero)[field]
    values.update({k: tracer.counters.get(k, 0) for k in COUNTER_UNITS})
    for sub in CLI_SUBCOMMANDS:
        for mode in ("proc", "inproc"):
            durs = [e - s for n, s, e, _, _ in tracer.spans if n == f"cli.{sub}.{mode}"]
            values[f"cli.{sub}.{mode}_s"] = statistics.median(durs) if durs else 0.0
    values["import.risnet_s"] = statistics.median(s[1] for s in setup)
    values["import.modules"] = setup[0][2]
    values["import.scipy_loaded"] = setup[0][3]
    # Same ops, same order: traced time over untraced time, minus one.
    m = min(len(untraced), len(traced))
    values["trace.overhead"] = (sum(r["latency"] for r in traced[:m])
                                / sum(r["latency"] for r in untraced[:m]) - 1.0)
    return values


def environment(seed: int, setup) -> dict:
    import numpy

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    return {
        "nproc": NPROC,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "git_commit": commit,
        "seed": seed,
        "import.modules": setup[0][2],
        "import.scipy_loaded": setup[0][3],
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import risnet  # noqa: F401  (in-process ops and output checks use it warm)
    parent_import_s = time.perf_counter() - t0
    import spans
    import workloads

    env = workloads.cli_env(ROOT)
    setup = measure_setup(env, 1 if args.smoke else SETUP_SAMPLES)

    tracer = spans.Tracer()
    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        cls = {"cli_session": workloads.CliSession, "design_sweep": workloads.DesignSweep,
               "wall_patterns": workloads.WallPatterns}[args.workload]
        wl = cls(args.seed, workdir, env, tracer)
        cycle = len(wl.kinds)
        max_ops = cycle if args.smoke else None
        seconds = 0.0 if args.smoke else args.seconds
        if args.trace:
            untraced = run_phase(wl, tracer, seconds / 2, cycle, max_ops, traced=False)
            with tracer.installed():
                traced = run_phase(wl, tracer, seconds / 2, cycle, max_ops, traced=True)
            records = untraced + traced
        else:
            records = run_phase(wl, tracer, seconds, cycle, max_ops, traced=False)
        info = wl.info() if hasattr(wl, "info") else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    e2e, tail_info = end_to_end(untraced if args.trace else records, setup, peak_rss_mb)
    failed = sum(1 for r in records if not r["ok"])
    detail = {
        "workload": args.workload, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "environment": environment(args.seed, setup),
        "end_to_end": e2e, "fail_ratio": failed / len(records), "tail": tail_info,
        "ops_by_kind": {k: sum(1 for r in records if r["kind"] == k) for k in wl.kinds},
        "setup_samples_s": [s[0] for s in setup], "parent_import_s": parent_import_s,
        "computed_from_sizes": list(COUNTER_UNITS),
        "errors": [r["error"] for r in records if r["error"]][:3],
        **info,
    }
    if args.trace:
        values = per_layer(tracer, setup, untraced, traced)
        units = per_layer_units()
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values, units = e2e, END_TO_END_UNITS

    print(f"# {args.workload} seed={args.seed} trace={args.trace} ops={len(records)} "
          f"failed={failed}")
    for name, value in e2e.items():
        print(f"{name:<16} {value:>14.6g} {END_TO_END_UNITS[name]}")
    print(f"{'fail_ratio':<16} {failed / len(records):>14.6g} ratio")
    print(f"{'tail_percentile':<16} {tail_info['percentile']:>14d} "
          f"(of {tail_info['samples']} ops, {tail_info['samples_beyond']} beyond)")
    if args.trace:
        for name, value in values.items():
            print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own; a table of all results."""
    ok = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines if not line.startswith("detail ")))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            ok = False
            sys.stderr.write(proc.stderr)
            print(f"# {name}: FAILED (exit {proc.returncode})")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "risnet" / "__init__.py").is_file():
        print(f"error: no risnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
