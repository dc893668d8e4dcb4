"""The three benchmark workloads, their ops and their per-op output checks.

Each workload cycles through a fixed list of op kinds. ``prepare`` builds
an op's seeded inputs (untimed), ``run`` is the timed op, and ``check``
verifies its outputs (untimed); a failed check raises :class:`CheckError`.
Ops call risnet through module attributes (``loads.sp8t_load_profile``)
so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import fixtures as fx
from risnet import array as rarray
from risnet import cli, gating, loads, metrics, network, touchstone

# Absolute tolerance of the closed-form spot checks on complex gammas.
MOBIUS_TOL = 1e-12
# State CSV text keeps 12 significant digits of dB and degrees.
CSV_TOL = 1e-9
GATE_TOL = 0.02
CLI_TIMEOUT_S = 120
C0 = 299_792_458.0  # speed of light, m/s


class CheckError(Exception):
    """An op's output failed its correctness check."""


def require(cond, message: str):
    if not cond:
        raise CheckError(message)


def mobius(s: np.ndarray, gamma: complex) -> complex:
    """Closed-form reflection of a two-port ``s`` (2x2) terminated in ``gamma``."""
    return s[0, 0] + s[1, 0] * s[0, 1] * gamma / (1.0 - s[1, 1] * gamma)


def sigma_closed_form(phases_deg: np.ndarray) -> float:
    p = np.sort(np.mod(phases_deg, 360.0))
    gaps = np.append(np.diff(p), 360.0 - p[-1] + p[0])
    return float(np.sqrt(np.sum(gaps**3) / (12.0 * 360.0)))


def spot_indices(n: int) -> tuple:
    return (n // 7, n // 2, (6 * n) // 7)


class DesignSweep:
    """In-process design evaluation: synthesis, load cascade, CSV and sigma.

    Each op evaluates one seeded design variant on the 401-point grid and
    then on the 1601-point grid, so every op does the same work. With one
    grid per op the latencies fall in two modes; the median then sits in
    the lower tail of the 1601-point mode, where it moves run to run far
    more than the middle of a single mode does.
    """

    kinds = ("grids401_1601",)

    def __init__(self, seed: int, workdir: Path, env: dict, tracer):
        self.fixtures = fx.DesignFixtures(seed)

    def prepare(self, i: int):
        return tuple(self.fixtures.variant(i, n) for n in fx.GRID_SIZES)

    def run(self, i, variants):
        return tuple(self._evaluate(v) for v in variants)

    def check(self, i, variants, outs):
        for v, out in zip(variants, outs):
            self._check(v, out)

    @staticmethod
    def _evaluate(v):
        design = loads.synthesize_stub_lengths(v.switch, v.line, fx.F_CENTER, fx.BAND)
        text = design.to_json(f_center_hz=fx.F_CENTER)
        reparsed = loads.StubNetworkDesign.from_json(text)
        load = loads.sp8t_load_profile(reparsed, v.frequencies)
        surface = network.profile_from_network(v.unit_cell, load)
        csv_text = touchstone.dump_state_csv(surface)
        reread = touchstone.load_state_csv(csv_text)
        report3 = metrics.bandwidth(reread, 3, fx.F_CENTER)
        report2 = metrics.bandwidth(metrics.select_states(reread, (0, 2, 4, 6)), 2, fx.F_CENTER)
        return design, reparsed, load, surface, reread, report3, report2

    @staticmethod
    def _check(v, out):
        design, reparsed, load, surface, reread, report3, report2 = out
        residuals = [st.residual_deg for st in design.states]
        require(all(r is not None and np.isfinite(r) for r in residuals),
                f"non-finite synthesis residual {residuals}")
        ideal = loads.synthesize_stub_lengths(None, v.line, fx.F_CENTER, fx.BAND)
        worst = max(st.residual_deg for st in ideal.states)
        require(worst < 1.0, f"ideal-switch synthesis residual {worst} deg >= 1 deg")
        require([st.length_m for st in reparsed.states] == [st.length_m for st in design.states],
                "design JSON round trip changed stub lengths")

        # Switch cascade, then unit-cell cascade, against the Moebius formula.
        f = v.frequencies
        for k in spot_indices(f.size):
            require(reparsed.switch.frequencies[k] == f[k], "switch grid drifted in JSON")
            for i_state, st in enumerate(reparsed.states):
                term = loads.stub_reflection(st.length_m, st.termination, f[k], reparsed.line)
                g_load = mobius(reparsed.switch.s[k], term)
                g_surf = mobius(v.unit_cell.s[k], g_load)
                require(abs(load.gamma[i_state, k] - g_load) <= MOBIUS_TOL,
                        f"switch cascade off by {abs(load.gamma[i_state, k] - g_load):.3e}")
                require(abs(surface.gamma[i_state, k] - g_surf) <= MOBIUS_TOL,
                        f"unit-cell cascade off by {abs(surface.gamma[i_state, k] - g_surf):.3e}")
            phases = np.angle(reread.gamma[:, k], deg=True)
            require(abs(report3.sigma_deg[k] - sigma_closed_form(phases)) <= 1e-9, "3-bit sigma")
            require(abs(report2.sigma_deg[k] - sigma_closed_form(phases[[0, 2, 4, 6]])) <= 1e-9,
                    "virtual 2-bit sigma")
        err = float(np.max(np.abs(reread.gamma - surface.gamma)))
        require(err <= CSV_TOL, f"state CSV round trip error {err:.3e}")
        for report in (report3, report2):
            if report.band is not None:
                require(f[0] <= report.band[0] <= fx.F_CENTER <= report.band[1] <= f[-1],
                        f"band {report.band} does not bracket the center")


class WallPatterns:
    """In-process steering codebooks and array factors on three wall sizes.

    The kinds step the direction x cell working set from cache-sized to far
    beyond it: a 6x6 wall over a 361-theta cut (0.2M terms, about 3 MB), a
    24x24 wall over the same cut (3.3M terms, about 53 MB) and a 6x6 wall
    over a 181 x 91 theta-phi grid (9.5M terms, about 150 MB per temporary).
    """

    kinds = ("cut6", "cut24", "grid6")
    _CUT_THETA = np.arange(-90.0, 90.25, 0.5)
    _GRID_THETA = np.linspace(-90.0, 90.0, 181)
    _GRID_PHI = np.linspace(0.0, 180.0, 91)

    def __init__(self, seed: int, workdir: Path, env: dict, tracer):
        self.seed = seed
        self.gammas = fx.state_gammas(seed)
        self.layouts = {6: rarray.build_array(6, 6, 3), 24: rarray.build_array(24, 24, 3)}

    def prepare(self, i: int):
        kind = self.kinds[i % 3]
        theta, phi = fx.steer_direction(self.seed, i)
        if kind == "grid6":
            return kind, self.layouts[6], (theta, phi), self._GRID_THETA, self._GRID_PHI
        return kind, self.layouts[6 if kind == "cut6" else 24], (theta, phi), self._CUT_THETA, phi

    def run(self, i, inputs):
        _, layout, direction, theta, phi = inputs
        state_map, residual = rarray.steering_codebook(layout, self.gammas, direction, fx.F_CENTER)
        af = rarray.array_factor(layout, state_map, self.gammas, fx.F_CENTER, theta, phi)
        return state_map, residual, af

    def check(self, i, inputs, out):
        kind, layout, (theta0, phi0), theta, phi = inputs
        state_map, residual, af = out
        p = np.sort(np.angle(self.gammas, deg=True) % 360.0)
        half_gap = max(np.max(np.diff(p)), 360.0 - p[-1] + p[0]) / 2.0
        require(float(np.max(residual)) <= half_gap + 1e-9,
                f"codebook residual {np.max(residual)} > half gap {half_gap}")
        require(state_map.shape == (layout.cells_y, layout.cells_x), "state map shape")
        mag = np.abs(af)
        require(np.all(np.isfinite(mag)), "non-finite array factor")
        if kind == "grid6":
            j, m = np.unravel_index(int(np.argmax(mag)), mag.shape)
            peak, peak_phi, value = theta[j], phi[m], af[j, m]
        else:
            k = int(np.argmax(mag))
            peak, peak_phi, value = theta[k], phi, af[k]
        ref = direct_sum_af(layout, self.gammas[state_map], peak, peak_phi)
        require(abs(value - ref) <= 1e-9 * abs(ref), f"array factor off the direct sum at {peak}")
        # One grid step, plus the beam squint the codebook's own phase error
        # allows: a linear error ramp of 2*max(residual) across the aperture
        # shifts sin(theta) by that fraction of a wavelength over the aperture.
        extent = (layout.width_m * abs(np.cos(np.deg2rad(phi0)))
                  + layout.height_m * abs(np.sin(np.deg2rad(phi0))))
        du = 2.0 * float(np.max(residual)) / 360.0 * (C0 / fx.F_CENTER) / extent
        tol = float(theta[1] - theta[0]) + np.rad2deg(du / np.cos(np.deg2rad(theta0)))
        off = _angle_between(peak, peak_phi, theta0, phi0)
        require(off <= tol, f"peak {off:.3f} deg from the steer direction, tolerance {tol:.3f}")


def direct_sum_af(layout, gamma_cells: np.ndarray, theta_deg: float, phi_deg: float) -> complex:
    """Far-field sum over cell centers at one direction, cos(theta) element factor."""
    xs = (np.arange(layout.cells_x) + 0.5 - layout.cells_x / 2.0) * layout.pitch_x
    ys = (np.arange(layout.cells_y) + 0.5 - layout.cells_y / 2.0) * layout.pitch_y
    t, p = np.deg2rad(theta_deg), np.deg2rad(phi_deg)
    k0 = 2.0 * np.pi * fx.F_CENTER / C0
    phase = k0 * np.sin(t) * (xs[np.newaxis, :] * np.cos(p) + ys[:, np.newaxis] * np.sin(p))
    return complex(np.sum(gamma_cells * np.exp(1j * phase)) * np.cos(t))


def _angle_between(t1, p1, t2, p2) -> float:
    def unit(t, p):
        t, p = np.deg2rad(t), np.deg2rad(p)
        return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])

    return float(np.rad2deg(np.arccos(np.clip(unit(t1, p1) @ unit(t2, p2), -1.0, 1.0))))


class CliSession:
    """A designer's session: each op is one ``python -m risnet.cli`` subprocess.

    Interpreter start and ``import risnet`` dominate every op, so this is
    the only workload where import time and CLI file I/O block the result.
    """

    kinds = ("parse", "synth", "profile_design", "profile_ideal",
             "bandwidth", "bandwidth_2bit", "pattern", "gate")

    def __init__(self, seed: int, workdir: Path, env: dict, tracer):
        self.env = env
        self.workdir = workdir
        self.tracer = tracer
        self.digests = {}
        self.digest_changes = 0
        w = workdir

        f = fx.frequencies(1601)
        unit_cell = fx.unit_cell_model(seed).network(f)
        switch = fx.switch_model(seed).network(f)
        line = fx.cli_line(seed)
        design = loads.synthesize_stub_lengths(switch, line, fx.F_CENTER, fx.BAND)
        self.scene = fx.gate_scene(seed)
        dut, plate = self.scene.sweeps(f)
        (w / "uc.s2p").write_text(touchstone.serialize_touchstone(unit_cell, "MA", "Hz"))
        (w / "sw.s2p").write_text(touchstone.serialize_touchstone(switch, "DB", "Hz"))
        (w / "design.json").write_text(design.to_json(f_center_hz=fx.F_CENTER))
        (w / "dut.csv").write_text(gating.dump_sweep_csv(dut))
        (w / "plate.csv").write_text(gating.dump_sweep_csv(plate))
        self.steer = fx.steer_direction(seed, 0)

        def p(name):
            return str(w / name)

        self.argv = {
            "parse": ["parse", p("uc.s2p"), "--format", "json", "--out", p("parse.json")],
            "synth": ["synth", "--switch", p("sw.s2p"), "--line-width-m", repr(line.width),
                      "--substrate-height-m", repr(line.substrate_height),
                      "--epsilon-r", repr(line.epsilon_r),
                      "--loss-db-per-m", repr(line.loss_db_per_m), "--out", p("synth.json")],
            "profile_design": ["profile", p("uc.s2p"), "--loads", p("design.json"),
                               "--out", p("p3.csv")],
            "profile_ideal": ["profile", p("uc.s2p"), "--loads", "ideal-1bit", "--out", p("p1.csv")],
            "bandwidth": ["bandwidth", p("p3.csv"), "--out", p("bw3.json")],
            "bandwidth_2bit": ["bandwidth", p("p3.csv"), "--virtual-2bit", "--out", p("bw2.json")],
            "pattern": ["pattern", p("p3.csv"), "--tiles-x", "6", "--tiles-y", "6",
                        "--theta-deg", repr(self.steer[0]), "--phi-az-deg", repr(self.steer[1]),
                        "--out", p("pattern.csv"), "--state-map-out", p("map.txt")],
            "gate": ["gate", p("dut.csv"), "--t-start-s", "0",
                     "--t-stop-s", repr(self.scene.gate_stop_s), "--normalize",
                     "--reference", p("plate.csv"), "--out", p("gated.csv")],
        }
        self.outputs = {
            "parse": ("parse.json",), "synth": ("synth.json",), "profile_design": ("p3.csv",),
            "profile_ideal": ("p1.csv",), "bandwidth": ("bw3.json",),
            "bandwidth_2bit": ("bw2.json",), "pattern": ("pattern.csv", "map.txt"),
            "gate": ("gated.csv",),
        }

    def prepare(self, i: int):
        return self.kinds[i % len(self.kinds)]

    def run(self, i, kind):
        argv = self.argv[kind]
        with self.tracer.span(f"cli.{argv[0]}.proc"):
            return subprocess.run(
                [sys.executable, "-m", "risnet.cli", *argv], cwd=self.workdir, env=self.env,
                capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
            )

    def run_inproc(self, kind):
        """The same argv through ``risnet.cli.main`` in this (warm) process."""
        argv = self.argv[kind]
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span(f"cli.{argv[0]}.inproc"), redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
        require(rc == 0, f"in-process {argv[0]} exited {rc}: {err.getvalue().strip()}")
        with self.tracer.paused():
            self._check_files(kind, out.getvalue())

    def check(self, i, kind, proc):
        require(proc.returncode == 0, f"{kind} exited {proc.returncode}: {proc.stderr.strip()}")
        require("Traceback" not in proc.stderr, f"{kind} wrote a traceback")
        self._check_files(kind, proc.stdout)
        for name in self.outputs[kind]:
            digest = hashlib.sha256((self.workdir / name).read_bytes()).hexdigest()
            if self.digests.setdefault(name, digest) != digest:
                self.digest_changes += 1

    def _read(self, name: str) -> str:
        return (self.workdir / name).read_text(encoding="utf-8")

    def _check_files(self, kind, stdout: str):
        if kind == "parse":
            doc = json.loads(self._read("parse.json"))
            require(doc["n_ports"] == 2 and doc["points"] == 1601, f"parse summary {doc}")
        elif kind == "synth":
            design = loads.StubNetworkDesign.from_json(self._read("synth.json"))
            require(design.switch is not None and len(design.states) == 8, "synth design")
            require(all(np.isfinite(st.residual_deg) for st in design.states),
                    "non-finite synthesis residual")
        elif kind in ("profile_design", "profile_ideal"):
            name, n = ("p3.csv", 8) if kind == "profile_design" else ("p1.csv", 2)
            profile = touchstone.load_state_csv(self._read(name))
            require(profile.n_states == n and profile.frequencies.size == 1601,
                    f"{name}: {profile.n_states} states x {profile.frequencies.size}")
        elif kind in ("bandwidth", "bandwidth_2bit"):
            name, bits = ("bw3.json", 3) if kind == "bandwidth" else ("bw2.json", 2)
            doc = json.loads(self._read(name))
            require(doc["resolution_bits"] == bits and len(doc["sigma_deg"]) == 1601,
                    f"{name} report")
            require(all(np.isfinite(doc["sigma_deg"])), f"{name}: non-finite sigma")
        elif kind == "pattern":
            rows = self._read("pattern.csv").splitlines()
            require(rows[0] == "theta_deg,phi_deg,af_db" and len(rows) == 362, "pattern header")
            cut = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
            peak = cut[int(np.argmax(cut[:, 2])), 0]
            require(abs(peak - self.steer[0]) <= 0.5, f"pattern peak {peak} vs {self.steer[0]}")
            grid = [r.split() for r in self._read("map.txt").splitlines()]
            require(len(grid) == 24 and all(len(r) == 24 for r in grid), "state map shape")
            require(all(0 <= int(s) < 8 for r in grid for s in r), "state map values")
            require("peak_theta_deg" in stdout, "pattern summary missing")
        elif kind == "gate":
            gated = gating.load_sweep_csv(self._read("gated.csv"))
            n = gated.frequencies.size
            inner = slice(int(0.1 * n), int(0.9 * n) + 1)
            err = float(np.max(np.abs(gated.values[inner] - self.scene.gamma_surface)))
            require(err <= GATE_TOL, f"gated echo off by {err:.4f}")

    def info(self) -> dict:
        return {"output_sha256": dict(sorted(self.digests.items())),
                "digest_changes_within_run": self.digest_changes}


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
