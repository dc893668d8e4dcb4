"""Seeded input generator for the benchmark.

Every fixture is built from the workload seed and nothing else: passive,
reciprocal unit-cell and SPDT-switch two-ports at 401 and 1601 points,
seeded stub-bank design variants, a design JSON with an embedded switch,
and multipath DUT / metal-plate sweeps for the gating step. The program
under test only ever sees the generated objects and files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from risnet import gating, loads, touchstone

F_LO = 3.0e9
F_HI = 4.2e9
F_CENTER = 3.6e9
BAND = (3.3e9, 3.8e9)
GRID_SIZES = (401, 1601)
SUBSTRATE_HEIGHT_M = 0.8e-3

# Largest singular value allowed in a generated two-port. Keeping it below 1
# keeps every network strictly passive; with |S22| this small the cascade
# denominator 1 - S22*gamma stays far from zero for any |gamma| <= 1.
_SIGMA_MAX = 0.999


def rng_for(seed: int, *stream) -> np.random.Generator:
    """Independent generator for one named stream of one seed."""
    return np.random.default_rng([seed, *stream])


def frequencies(n: int) -> np.ndarray:
    """Uniform grid over the fixture band, rounded to whole hertz.

    Whole-hertz points survive Touchstone and CSV text round trips exactly,
    so a closed-form check can index the same grid point the program used.
    """
    return np.round(np.linspace(F_LO, F_HI, n))


def _ripple(rng, x, scale, terms=3):
    out = np.zeros_like(x)
    for k in range(1, terms + 1):
        out += rng.normal(0.0, scale / k) * np.cos(np.pi * k * x + rng.uniform(0, 2 * np.pi))
    return out


@dataclass(frozen=True)
class TwoPortModel:
    """Smooth parametric two-port: small port reflections, lossy delay line."""

    s11_mag: float
    s22_mag: float
    s21_db: float
    delay_s: float
    tau11_s: float
    tau22_s: float
    ripple_seed: int

    def network(self, f: np.ndarray, perturb=None) -> touchstone.PortNetwork:
        rng = np.random.default_rng(self.ripple_seed)
        x = (f - F_LO) / (F_HI - F_LO)
        w = 2.0 * np.pi * f
        s11 = self.s11_mag * (1 + _ripple(rng, x, 0.2)) * np.exp(-1j * (w * self.tau11_s + 0.3))
        s22 = self.s22_mag * (1 + _ripple(rng, x, 0.2)) * np.exp(-1j * (w * self.tau22_s - 0.7))
        s21 = 10 ** ((self.s21_db + _ripple(rng, x, 0.05)) / 20) * np.exp(
            -1j * (w * self.delay_s + _ripple(rng, x, 0.02))
        )
        if perturb is not None:
            # Small smooth complex perturbation, as between two measurements
            # of the same part; S12 and S21 are perturbed together.
            s11, s21, s22 = (
                v * (1 + _ripple(perturb, x, 0.01) + 1j * _ripple(perturb, x, 0.01))
                for v in (s11, s21, s22)
            )
        s = np.empty((f.size, 2, 2), dtype=complex)
        s[:, 0, 0] = s11
        s[:, 1, 1] = s22
        s[:, 0, 1] = s21
        s[:, 1, 0] = s21
        sigma = np.linalg.svd(s, compute_uv=False)[:, 0]
        s /= np.maximum(sigma / _SIGMA_MAX, 1.0)[:, None, None]
        return touchstone.PortNetwork(n_ports=2, reference_impedance=50.0, frequencies=f, s=s)


def unit_cell_model(seed: int) -> TwoPortModel:
    rng = rng_for(seed, 1)
    return TwoPortModel(
        s11_mag=rng.uniform(0.08, 0.18),
        s22_mag=rng.uniform(0.05, 0.15),
        s21_db=rng.uniform(-0.6, -0.2),
        delay_s=rng.uniform(80e-12, 160e-12),
        tau11_s=rng.uniform(20e-12, 60e-12),
        tau22_s=rng.uniform(20e-12, 60e-12),
        ripple_seed=int(rng.integers(2**31)),
    )


def switch_model(seed: int) -> TwoPortModel:
    rng = rng_for(seed, 2)
    return TwoPortModel(
        s11_mag=rng.uniform(0.03, 0.08),
        s22_mag=rng.uniform(0.03, 0.08),
        s21_db=rng.uniform(-0.8, -0.3),
        delay_s=rng.uniform(30e-12, 80e-12),
        tau11_s=rng.uniform(5e-12, 20e-12),
        tau22_s=rng.uniform(5e-12, 20e-12),
        ripple_seed=int(rng.integers(2**31)),
    )


def line_variant(rng: np.random.Generator) -> loads.MicrostripLine:
    return loads.MicrostripLine(
        width=rng.uniform(1.2e-3, 2.0e-3),
        substrate_height=SUBSTRATE_HEIGHT_M,
        epsilon_r=rng.uniform(4.2, 4.9),
        loss_db_per_m=rng.uniform(0.0, 8.0),
        reference_frequency=F_CENTER,
    )


@dataclass(frozen=True)
class DesignVariant:
    """One design_sweep input: a line and a perturbed measured switch on one grid."""

    frequencies: np.ndarray
    line: loads.MicrostripLine
    switch: touchstone.PortNetwork
    unit_cell: touchstone.PortNetwork


class DesignFixtures:
    """Base unit cells and switch models for the design sweep, per grid size."""

    def __init__(self, seed: int):
        self.seed = seed
        self.switch = switch_model(seed)
        uc = unit_cell_model(seed)
        self.unit_cells = {n: uc.network(frequencies(n)) for n in GRID_SIZES}

    def variant(self, op: int, n_points: int) -> DesignVariant:
        rng = rng_for(self.seed, 3, op)
        f = frequencies(n_points)
        return DesignVariant(
            frequencies=f,
            line=line_variant(rng),
            switch=self.switch.network(f, perturb=rng),
            unit_cell=self.unit_cells[n_points],
        )


def state_gammas(seed: int) -> np.ndarray:
    """Eight measured-looking states near the 45-degree ladder."""
    rng = rng_for(seed, 4)
    phases = np.deg2rad(45.0 * np.arange(8) + rng.uniform(-6.0, 6.0, 8))
    return rng.uniform(0.75, 0.98, 8) * np.exp(1j * phases)


def steer_direction(seed: int, op: int) -> tuple:
    """(theta, phi) in degrees; theta stays below the onset of grating lobes."""
    rng = rng_for(seed, 5, op)
    return float(rng.uniform(5.0, 20.0)), float(rng.uniform(0.0, 180.0))


@dataclass(frozen=True)
class GateScene:
    """Two-echo scene: the surface (or plate) echo plus room clutter."""

    gamma_surface: complex
    amplitude: complex
    delay_s: float
    clutter: tuple
    gate_stop_s: float

    def sweeps(self, f: np.ndarray) -> tuple:
        dut = gating.synth_multipath(
            [(self.delay_s, self.amplitude * self.gamma_surface), *self.clutter], f
        )
        plate = gating.synth_multipath([(self.delay_s, -self.amplitude), *self.clutter], f)
        return dut, plate


def gate_scene(seed: int) -> GateScene:
    rng = rng_for(seed, 6)
    delay = rng.uniform(1.5e-9, 2.5e-9)
    clutter = tuple(
        (delay + rng.uniform(7e-9, 12e-9), rng.uniform(0.1, 0.4) * np.exp(2j * np.pi * rng.random()))
        for _ in range(2)
    )
    return GateScene(
        gamma_surface=rng.uniform(0.6, 0.95) * np.exp(2j * np.pi * rng.random()),
        amplitude=rng.uniform(0.5, 1.0) * np.exp(2j * np.pi * rng.random()),
        delay_s=delay,
        clutter=clutter,
        gate_stop_s=delay + 4e-9,
    )


def cli_line(seed: int) -> loads.MicrostripLine:
    return line_variant(rng_for(seed, 7))
