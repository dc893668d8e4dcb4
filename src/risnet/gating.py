"""Measurement post-processing: frequency-domain time gating, plate normalization.

Gating runs the classic VNA recipe: taper the band with a Kaiser pre-window,
transform to time (zero-padded 4x for gate-edge placement), multiply by a
Tukey gate over the requested interval, transform back, and divide the
pre-window out again. Band edges (outer 10% each side) are low-confidence
because the window compensation is ill-conditioned there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GateSpanError, InputDataError, ReferenceLevelError, SweepGridError
from .touchstone import (
    PortNetwork,
    _csv_blocks,
    _csv_text,
    _format_rows,
    _frequency_grid,
    _read_numbers,
    _reject_rows,
)

# Zero-padding factor applied before the time-domain transform.
_PAD_FACTOR = 4

# Pre-window compensation floor; avoids blow-up at heavily tapered edges.
_WINDOW_FLOOR = 1e-3

# np.kaiser divides by I0(beta), which overflows float64 above beta ~ 709.
_MAX_KAISER_BETA = 700.0

SWEEP_CSV_HEADER = "freq_hz,re,im"


@dataclass(frozen=True)
class Sweep:
    """Complex values on a uniform frequency grid (at least 8 points)."""

    frequencies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if f.ndim != 1 or f.size < 8:
            raise SweepGridError(f"need at least 8 sweep points, got {f.size}")
        if v.shape != f.shape:
            raise SweepGridError("values and frequencies must have the same length")
        steps = np.diff(_frequency_grid(f, SweepGridError))
        mean_step = float(np.mean(steps))
        if np.any(np.abs(steps - mean_step) > 1e-6 * mean_step):
            raise SweepGridError("frequency grid must be uniform (within 1e-6 relative)")
        _reject_rows(~np.isfinite(v), SweepGridError, "sweep values must be finite")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)

    @property
    def delta_f(self) -> float:
        return float(self.frequencies[1] - self.frequencies[0])

    @property
    def alias_free_span(self) -> float:
        """Unambiguous time span of the sweep, 1/delta_f seconds."""
        return 1.0 / self.delta_f


@dataclass(frozen=True)
class GateSpec:
    """Time-gate interval plus window shaping.

    ``window_shape`` is the Tukey taper fraction of the gate (0 makes the
    gate rectangular); ``pre_window`` is the Kaiser beta applied across the
    band before transforming to time.
    """

    t_start: float
    t_stop: float
    window_shape: float = 0.25
    pre_window: float = 6.0

    def __post_init__(self):
        if not (0.0 <= self.t_start < self.t_stop):
            raise ValueError("need 0 <= t_start < t_stop")
        if not (0.0 <= self.window_shape <= 1.0):
            raise ValueError("window_shape must be in [0, 1]")
        if not (0.0 <= self.pre_window <= _MAX_KAISER_BETA):
            raise ValueError(
                f"pre_window (Kaiser beta) must be in [0, {_MAX_KAISER_BETA:g}], "
                f"got {self.pre_window}"
            )


def synth_multipath(paths, frequencies) -> Sweep:
    """Sum of delayed complex echoes: value(f) = sum_k a_k * exp(-j*2*pi*f*tau_k)."""
    f = np.asarray(frequencies, dtype=float)
    values = np.zeros(f.shape, dtype=complex)
    for delay, amplitude in paths:
        if delay < 0:
            raise ValueError("path delays must be >= 0")
        values = values + amplitude * np.exp(-2j * np.pi * f * delay)
    return Sweep(frequencies=f, values=values)


def _tukey(m: int, alpha: float) -> np.ndarray:
    """Symmetric Tukey window of ``m`` points with taper fraction ``alpha``.

    Follows scipy.signal.windows.tukey operation for operation, so the two
    are bitwise equal: alpha <= 0 is rectangular and alpha >= 1 is scipy's
    Hann window.
    """
    if m <= 1 or alpha <= 0:
        return np.ones(m)
    if alpha >= 1.0:
        return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m))
    n = np.arange(0, m, dtype=float)
    width = int(math.floor(alpha * (m - 1) / 2.0))
    n1 = n[0:width + 1]
    n2 = n[width + 1:m - width - 1]
    n3 = n[m - width - 1:]
    w1 = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * n1 / alpha / (m - 1))))
    w2 = np.ones(n2.shape)
    w3 = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * n3 / alpha / (m - 1))))
    return np.concatenate((w1, w2, w3))


def _finite_sweep(frequencies: np.ndarray, values: np.ndarray, what: str) -> Sweep:
    """``Sweep(frequencies, values)``, naming the first value past the float range."""
    bad = ~np.isfinite(values)
    if bad.any():
        raise SweepGridError(
            f"{what} value at {frequencies[np.argmax(bad)]} Hz is past the float range"
        )
    return Sweep(frequencies=frequencies, values=values)


def time_gate(sweep: Sweep, gate: GateSpec) -> Sweep:
    """Keep only the response inside the gate interval, on the same grid.

    A gated value past the float range raises SweepGridError naming its frequency.
    """
    n = sweep.frequencies.size
    span = sweep.alias_free_span
    if gate.t_start >= span:
        raise GateSpanError(
            f"gate start {gate.t_start} s is outside the alias-free span {span} s"
        )
    w = np.kaiser(n, gate.pre_window)
    m = _PAD_FACTOR * n
    t = np.arange(m) / (m * sweep.delta_f)
    mask = (t >= gate.t_start) & (t <= gate.t_stop)
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise GateSpanError("gate interval narrower than the time-sample spacing")
    g = np.zeros(m)
    g[mask] = _tukey(count, gate.window_shape)
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.fft.ifft(sweep.values * w, n=m)
        gated = np.fft.fft(h * g)[:n] / np.maximum(w, _WINDOW_FLOOR)
    return _finite_sweep(sweep.frequencies, gated, "gated")


def normalize_to_plate(dut: Sweep, reference: Sweep) -> Sweep:
    """Absolute reflection from a measurement and a metal-plate reference.

    Models the plate as a perfect reflector (gamma = -1 at normal
    incidence), so the result is -dut/reference. A result past the float
    range raises SweepGridError naming its frequency.
    """
    if not np.array_equal(dut.frequencies, reference.frequencies):
        raise SweepGridError("measurement and reference must share one frequency grid")
    mags = np.abs(reference.values)
    if np.any(mags <= 1e-9):
        k = int(np.argmin(mags))
        raise ReferenceLevelError(
            f"reference magnitude {mags[k]:.3e} at {reference.frequencies[k]} Hz "
            "too small to normalize against"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = -dut.values / reference.values
    return _finite_sweep(dut.frequencies, values, "normalized")


def low_confidence_edges(sweep: Sweep) -> tuple:
    """Frequencies bounding the trustworthy interior 80% of a gated band."""
    f0 = float(sweep.frequencies[0])
    f1 = float(sweep.frequencies[-1])
    span = f1 - f0
    return f0 + 0.1 * span, f1 - 0.1 * span


def sweep_from_network(net: PortNetwork) -> Sweep:
    """View a 1-port network's S11 as a sweep."""
    if net.n_ports != 1:
        raise InputDataError(f"need a 1-port network, got {net.n_ports} ports")
    return Sweep(frequencies=net.frequencies, values=net.s[:, 0, 0])


def sweep_to_network(sweep: Sweep, reference_impedance: float = 50.0) -> PortNetwork:
    return PortNetwork(
        n_ports=1,
        reference_impedance=reference_impedance,
        frequencies=sweep.frequencies,
        s=sweep.values.reshape(-1, 1, 1),
    )


def _sweep_row(line_no: int, fields: list) -> list:
    fields = [f.strip() for f in fields]
    try:
        return [float(f) for f in fields]
    except ValueError:
        raise SweepGridError(f"non-numeric field in '{','.join(fields)}'", line_no) from None


def load_sweep_csv(text: str) -> Sweep:
    """Read a sweep from CSV with header ``freq_hz,re,im`` (# comments ignored).

    Row faults name their line, and are looked for before those of the whole sweep.
    """
    blocks = _csv_blocks(text, SWEEP_CSV_HEADER, SweepGridError)
    values, _, line_nos = _read_numbers(blocks, _sweep_row)
    table = values.reshape(-1, 3)
    if line_nos.size:  # an empty sweep is Sweep's to report
        _frequency_grid(table[:, 0], SweepGridError, line_nos)
    re_im = table[:, 1:]
    _reject_rows(~np.isfinite(re_im), SweepGridError, "sweep values must be finite", line_nos)
    return Sweep(frequencies=table[:, 0], values=re_im[:, 0] + 1j * re_im[:, 1])


def dump_sweep_csv(sweep: Sweep, comments: tuple = ()) -> str:
    body = _format_rows("%.12g,%.12g,%.12g\n", sweep.frequencies, sweep.values.real,
                        sweep.values.imag)
    return _csv_text(SWEEP_CSV_HEADER, comments, body)
