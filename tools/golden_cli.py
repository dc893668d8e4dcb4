#!/usr/bin/env python3
"""Golden CLI outputs: run a fixed list of ``risnet`` invocations and keep everything they produce.

Usage (from any directory):

    PYTHONPATH=<checkout>/src python3 tools/golden_cli.py IN_DIR OUT_DIR

An empty or missing ``IN_DIR`` is filled once with the seed-5 benchmark
fixtures of ``perfbench/fixtures.py`` (401- and 1601-point unit cells and
switches, a synthesized stub design, state CSVs and gating sweeps), an active
(+14 dB) state CSV, an active 2-port and a few malformed or unsupported files.
A non-empty ``IN_DIR`` is read as it is, so two checkouts can be run on the
same files.
Each invocation runs as ``python -m risnet.cli`` (the ``risnet`` on
PYTHONPATH, by default this checkout's) in its own directory
``OUT_DIR/<case>``, on inputs under the relative path ``in/``. PYTHONUNBUFFERED
is removed from its environment, so stdout is block-buffered, as a user's
usually is, and the CLI's final flush is under test. That directory
then holds the invocation's ``argv``, ``stdout``, ``stderr``, ``exit`` code
and any file it wrote. ``--stamp`` timestamps are replaced by ``<timestamp>``,
so a rerun gives the same bytes. An invocation that writes a file (``--out``
or ``--state-map-out``) then runs a second time in the same directory, over
its first outputs, as a user rerunning a command does; its output files,
stdout, stderr and exit code must come out the same after masking. Compare two
checkouts with ``diff -r OUT_A OUT_B``. PYTHONPATH entries are resolved
against the directory the tool is started from. The tool exits 1 when any
invocation exits with a code outside the CLI's 0/2/3/4 contract (a traceback,
or a ``risnet`` that could not be imported), or when a second run differs from
its first.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 5
TIMESTAMP = re.compile(rb"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00")

LINE = ["--line-width-m", "1.5e-3"]
GATE = ["--t-start-s", "0", "--t-stop-s", "6e-9"]
STEER = ["--theta-deg", "20", "--phi-az-deg", "30"]
WRITES = {"--out", "--state-map-out"}

CASES = {
    "parse-s2p-text": ["parse", "in/uc401.s2p"],
    "parse-s2p-json": ["parse", "in/uc401.s2p", "--format", "json"],
    "parse-s2p-json-out": ["parse", "in/uc1601.s2p", "--format", "json", "--out", "parse.json"],
    "parse-s1p-text": ["parse", "in/dut.s1p"],
    "parse-s1p-json": ["parse", "in/dut.s1p", "--format", "json"],
    "parse-states-text": ["parse", "in/p3_401.csv"],
    "parse-states-json": ["parse", "in/p3_401.csv", "--format", "json"],
    "parse-bom-states": ["parse", "in/bom_p100.csv"],
    "parse-dc-point": ["parse", "in/dc.s1p"],
    "parse-negative-s1p": ["parse", "in/negative.s1p"],
    "parse-negative-states": ["parse", "in/negative_states.csv"],
    "parse-falling": ["parse", "in/falling.s1p"],
    "parse-nan-s": ["parse", "in/nan.s1p"],
    "parse-v2": ["parse", "in/v2.s2p"],
    "parse-active-s2p": ["parse", "in/active.s2p"],
    "parse-binary": ["parse", "in/binary.s2p"],
    "parse-missing": ["parse", "in/missing.s2p"],
    "synth-ideal": ["synth", *LINE],
    "synth-switch": ["synth", "--switch", "in/sw401.s2p", *LINE, "--loss-db-per-m", "3",
                     "--out", "design.json"],
    "synth-band-points": ["synth", *LINE, "--band-low-hz", "3.4e9", "--band-high-hz", "3.8e9",
                          "--n-band-points", "5"],
    "synth-single-frequency": ["synth", *LINE, "--band-low-hz", "3.6e9", "--band-high-hz", "3.6e9"],
    "synth-no-width": ["synth"],
    "profile-ideal-1bit": ["profile", "in/uc401.s2p", "--loads", "ideal-1bit", "--out", "p1.csv"],
    "profile-ideal-3bit": ["profile", "in/uc401.s2p", "--loads", "ideal-3bit", *LINE],
    "profile-design": ["profile", "in/uc1601.s2p", "--loads", "in/design.json", "--out", "p3.csv"],
    "profile-switch": ["profile", "in/uc401.s2p", "--loads", "in/sw401.s2p"],
    "profile-band": ["profile", "in/uc401.s2p", "--loads", "ideal-1bit",
                     "--band-low-hz", "3.3e9", "--band-high-hz", "3.8e9"],
    "profile-stamp": ["profile", "in/uc401.s2p", "--loads", "ideal-1bit", "--stamp"],
    "profile-bad-design": ["profile", "in/uc401.s2p", "--loads", "in/bad_design.json"],
    "bandwidth-json": ["bandwidth", "in/p3_1601.csv"],
    "bandwidth-csv": ["bandwidth", "in/p3_1601.csv", "--format", "csv"],
    "bandwidth-text": ["bandwidth", "in/p3_1601.csv", "--format", "text"],
    "bandwidth-out": ["bandwidth", "in/p3_401.csv", "--out", "bw.json"],
    "bandwidth-2bit-json": ["bandwidth", "in/p3_1601.csv", "--virtual-2bit"],
    "bandwidth-2bit-csv": ["bandwidth", "in/p3_1601.csv", "--virtual-2bit", "--format", "csv"],
    "bandwidth-2bit-text": ["bandwidth", "in/p3_1601.csv", "--virtual-2bit", "--format", "text"],
    "bandwidth-1bit-text": ["bandwidth", "in/p1_401.csv", "--format", "text"],
    "bandwidth-no-band-json": ["bandwidth", "in/p100.csv"],
    "bandwidth-no-band-text": ["bandwidth", "in/p100.csv", "--format", "text"],
    "bandwidth-stamp-json": ["bandwidth", "in/p3_401.csv", "--stamp"],
    "bandwidth-stamp-csv": ["bandwidth", "in/p3_401.csv", "--stamp", "--format", "csv"],
    "bandwidth-stamp-text": ["bandwidth", "in/p3_401.csv", "--stamp", "--format", "text"],
    "bandwidth-negative-states": ["bandwidth", "in/negative_states.csv"],
    "bandwidth-active": ["bandwidth", "in/active.csv"],
    "pattern-stdout": ["pattern", "in/p3_401.csv"],
    "pattern-text": ["pattern", "in/p3_401.csv", *STEER, "--out", "pattern.csv",
                     "--state-map-out", "map.txt"],
    "pattern-json": ["pattern", "in/p3_1601.csv", *STEER, "--format", "json",
                     "--out", "pattern.csv", "--state-map-out", "map.json"],
    "pattern-upper-json-map": ["pattern", "in/p3_401.csv", *STEER, "--out", "pattern.csv",
                               "--state-map-out", "MAP.JSON"],
    "pattern-1bit": ["pattern", "in/p1_401.csv", "--tiles-x", "2", "--tiles-y", "3",
                     "--out", "pattern.csv"],
    "pattern-stamp": ["pattern", "in/p3_401.csv", "--stamp", "--out", "pattern.csv"],
    "pattern-bad-step": ["pattern", "in/p3_401.csv", "--theta-step-deg", "0"],
    # Theta cuts whose sines are not mirrored, so the steering build exponentiates every row.
    "pattern-asymmetric-cut": ["pattern", "in/p3_401.csv", *STEER, "--theta-start-deg", "-30",
                               "--theta-stop-deg", "60", "--theta-step-deg", "0.25"],
    "pattern-unmirrored-step": ["pattern", "in/p3_401.csv", *STEER, "--theta-step-deg", "0.1"],
    "gate-csv": ["gate", "in/dut.csv", *GATE],
    "gate-normalize": ["gate", "in/dut.csv", *GATE, "--normalize", "--reference", "in/plate.csv",
                       "--out", "gated.csv"],
    "gate-s1p-out": ["gate", "in/dut.csv", *GATE, "--out", "gated.s1p"],
    "gate-s1p-in": ["gate", "in/dut.s1p", *GATE],
    "gate-stamp": ["gate", "in/dut.csv", *GATE, "--stamp"],
    "gate-no-reference": ["gate", "in/dut.csv", *GATE, "--normalize"],
    "gate-negative-sweep": ["gate", "in/negative_sweep.csv", *GATE],
    # Resolution and port rules the library checks; the CLI passes them through.
    "bandwidth-bits-mismatch": ["bandwidth", "in/p3_401.csv", "--bits", "2"],
    "bandwidth-1-state": ["bandwidth", "in/states1.csv"],
    "bandwidth-16-states": ["bandwidth", "in/states16.csv"],
    "bandwidth-2bit-bits-3": ["bandwidth", "in/p3_401.csv", "--virtual-2bit", "--bits", "3"],
    "pattern-1-state": ["pattern", "in/states1.csv"],
    "pattern-4-states": ["pattern", "in/states4.csv"],
    "pattern-16-states": ["pattern", "in/states16.csv"],
    "pattern-1bit-8-states": ["pattern", "in/p3_401.csv", "--bits", "1"],
    "pattern-3bit-2-states": ["pattern", "in/p1_401.csv", "--bits", "3"],
    "profile-1-port-cell": ["profile", "in/cell.s1p", "--loads", "ideal-1bit"],
    "profile-1-port-loads": ["profile", "in/uc401.s2p", "--loads", "in/cell.s1p"],
}


def fill(in_dir: Path) -> None:
    """Write the seed-5 fixtures and the malformed inputs into ``in_dir``."""
    sys.path.insert(0, str(ROOT))
    from perfbench import fixtures as fx
    from risnet import gating, loads, network, touchstone

    grids = {n: fx.frequencies(n) for n in fx.GRID_SIZES}
    unit_cells = {n: fx.unit_cell_model(SEED).network(f) for n, f in grids.items()}
    switches = {n: fx.switch_model(SEED).network(f) for n, f in grids.items()}
    line = fx.cli_line(SEED)
    design = loads.synthesize_stub_lengths(switches[1601], line, fx.F_CENTER, fx.BAND)
    files = {"design.json": design.to_json(f_center_hz=fx.F_CENTER)}
    for n, f in grids.items():
        files[f"uc{n}.s2p"] = touchstone.serialize_touchstone(unit_cells[n], "MA", "Hz")
        files[f"sw{n}.s2p"] = touchstone.serialize_touchstone(switches[n], "DB", "Hz")
        profile = network.profile_from_network(unit_cells[n], loads.sp8t_load_profile(design, f))
        files[f"p3_{n}.csv"] = touchstone.dump_state_csv(profile)
    f = grids[401]
    files["p1_401.csv"] = touchstone.dump_state_csv(
        network.profile_from_network(unit_cells[401], loads.spdt_load_profile(None, f))
    )
    files["p100.csv"] = "freq_hz,state,mag_db,phase_deg\n" + "".join(
        f"{fk:.12g},{s},0,{100 * s}\n" for s in range(2) for fk in f[::40]
    )
    files["bom_p100.csv"] = "\ufeff" + files["p100.csv"]
    # +14 dB (|gamma| = 5) on every state: the CLI warns and runs on.
    files["active.csv"] = "freq_hz,state,mag_db,phase_deg\n" + "".join(
        f"{fk:.12g},{s},14,{45 * s}\n" for s in range(8) for fk in f[::40]
    )
    for n in (1, 4, 16):
        files[f"states{n}.csv"] = "freq_hz,state,mag_db,phase_deg\n" + "".join(
            f"{fk:.12g},{s},0,{360 * s / n:g}\n" for s in range(n) for fk in f[::40]
        )
    dut, plate = fx.gate_scene(SEED).sweeps(grids[1601])
    files["dut.csv"] = gating.dump_sweep_csv(dut)
    files["plate.csv"] = gating.dump_sweep_csv(plate)
    files["dut.s1p"] = touchstone.serialize_touchstone(gating.sweep_to_network(dut), "RI", "GHz")

    # S21 = S12 = 1.1: sigma_max 1.1 at every point, so the CLI warns and runs on.
    files["active.s2p"] = "# Hz S RI R 50\n" + "".join(
        f"{fk:.12g} 0 0 1.1 0 1.1 0 0 0\n" for fk in f[::40]
    )
    files["dc.s1p"] = "# Hz S RI R 50\n0 0.5 0\n1e9 0.5 0\n"
    files["cell.s1p"] = "# Hz S RI R 50\n3e9 0.5 0\n4e9 0.5 0\n"
    files["negative.s1p"] = "# Hz S RI R 50\n-2 0 0\n-1 0 0\n0 0 0\n"
    files["negative_states.csv"] = "freq_hz,state,mag_db,phase_deg\n" + "".join(
        f"{fk:g},{s},0,{180 * s}\n" for s in range(2) for fk in (-1e6, 0.0, 1e6)
    )
    files["negative_sweep.csv"] = "freq_hz,re,im\n" + "".join(
        f"{-2e6 + 1e6 * k:.12g},0.5,0\n" for k in range(10)
    )
    files["falling.s1p"] = "# Hz S RI R 50\n2 0 0\n1 0 0\n"
    files["nan.s1p"] = "# Hz S RI R 50\n1e9 nan 0\n2e9 0 0\n"
    files["v2.s2p"] = "[Version] 2.0\n# Hz S RI R 50\n"
    files["bad_design.json"] = "{"
    for name, text in files.items():
        (in_dir / name).write_text(text, encoding="utf-8")
    (in_dir / "binary.s2p").write_bytes(bytes(range(256)))


def store(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` unless it already holds exactly that.

    Masking and a rerun then leave unchanged files alone, and do not pay the
    stall of truncating a file that holds data (see the README, "Output files").
    """
    if not path.exists() or path.read_bytes() != data:
        path.write_bytes(data)


def invoke(argv: list, case: Path, in_dir: Path, env: dict) -> dict:
    """Run one invocation in ``case``; return every file there, timestamps masked."""
    link = case / "in"
    link.symlink_to(in_dir, target_is_directory=True)
    try:
        proc = subprocess.run([sys.executable, "-m", "risnet.cli", *argv], cwd=case, env=env,
                              capture_output=True, timeout=300)
    finally:
        link.unlink()
    store(case / "stdout", proc.stdout)
    store(case / "stderr", proc.stderr)
    store(case / "exit", f"{proc.returncode}\n".encode())
    files = {}
    for path in sorted(case.iterdir()):
        files[path.name] = TIMESTAMP.sub(b"<timestamp>", path.read_bytes())
        store(path, files[path.name])
    return files


def run_case(name: str, argv: list, in_dir: Path, out_dir: Path, env: dict) -> tuple:
    """Exit code of case ``name``, and whether a file-writing case gave the same on a rerun."""
    case = out_dir / name
    case.mkdir(parents=True)
    (case / "argv").write_text(" ".join(argv) + "\n", encoding="utf-8")
    first = invoke(argv, case, in_dir, env)
    same = not WRITES.intersection(argv) or invoke(argv, case, in_dir, env) == first
    return int(first["exit"]), same


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python3 tools/golden_cli.py IN_DIR OUT_DIR", file=sys.stderr)
        return 2
    in_dir, out_dir = (Path(a).resolve() for a in args)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if env.get("PYTHONPATH"):
        # Each case runs in its own directory, where a relative entry finds nothing.
        env["PYTHONPATH"] = os.pathsep.join(
            str(Path(p).resolve()) for p in env["PYTHONPATH"].split(os.pathsep)
        )
    else:
        env["PYTHONPATH"] = str(ROOT / "src")
        sys.path.insert(0, env["PYTHONPATH"])
    in_dir.mkdir(parents=True, exist_ok=True)
    if not any(in_dir.iterdir()):
        fill(in_dir)
    if out_dir.exists() and any(out_dir.iterdir()):
        print(f"error: {out_dir} is not empty", file=sys.stderr)
        return 2
    results = {name: run_case(name, case, in_dir, out_dir, env) for name, case in CASES.items()}
    reruns = sum(bool(WRITES.intersection(case)) for case in CASES.values())
    nonzero = sum(code != 0 for code, _ in results.values())
    print(f"{len(results)} invocations ({nonzero} nonzero exits, {reruns} rerun over their "
          f"outputs) in {out_dir}")
    stray = [f"{name} ({code})" for name, (code, _) in results.items() if code not in (0, 2, 3, 4)]
    if stray:
        print(f"error: exit code outside 0/2/3/4: {', '.join(stray)}", file=sys.stderr)
    changed = [name for name, (_, same) in results.items() if not same]
    if changed:
        print(f"error: a rerun over its own outputs differs: {', '.join(changed)}", file=sys.stderr)
    return 1 if stray or changed else 0


if __name__ == "__main__":
    sys.exit(main())
