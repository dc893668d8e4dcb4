"""Two-port arithmetic: sweep interpolation and the load-to-surface cascade.

The core operation maps a load reflection coefficient through a unit cell's
two-port S-parameters (free-space side on port 1, feed side on port 2):

    gamma_surface = S11 + S21 * S12 * gamma_load / (1 - S22 * gamma_load)

Every caller goes through the two broadcasting primitives :func:`interp_s`
and :func:`cascade`; the scalar helpers below are thin views of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FrequencyRangeError, InputDataError, SingularityError
from .touchstone import PortNetwork, ReflectionProfile, _interp_complex

# Denominator magnitudes at or below this are treated as singular.
SINGULARITY_TOL = 1e-12


def interp_s(net: PortNetwork, f) -> np.ndarray:
    """S-matrices of ``net`` at frequencies ``f`` (Hz), shape ``f.shape + (n, n)``.

    Linear interpolation on real and imaginary parts independently; exact on
    grid points. Raises :class:`FrequencyRangeError` if any frequency lies
    outside the sweep (no extrapolation).
    """
    f = np.asarray(f, dtype=float)
    inside = (f >= net.f_min) & (f <= net.f_max)
    if not np.all(inside):
        raise FrequencyRangeError(
            f"frequency {np.ravel(f)[~np.ravel(inside)][0]} Hz not contained in sweep "
            f"[{net.f_min}, {net.f_max}] Hz"
        )
    return _interp_complex(net.frequencies, net.s, f)


def cascade(s: np.ndarray, gamma_load, where=str) -> np.ndarray:
    """Surface reflection of two-ports ``s`` (shape ``(..., 2, 2)``) terminated in ``gamma_load``.

    ``s[..., i, j]`` broadcasts against ``gamma_load``. If any denominator
    1 - S22*gamma_load has magnitude at or below :data:`SINGULARITY_TOL`,
    raises :class:`SingularityError` naming the first such point as
    ``where(index)``, ``index`` being its position in the broadcast shape,
    so a caller can name it by state and frequency.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape[-2:] != (2, 2):
        raise InputDataError(f"need a 2-port network, got {s.shape[-1]} ports")
    den = 1.0 - s[..., 1, 1] * gamma_load
    bad = np.abs(den) <= SINGULARITY_TOL
    if np.any(bad):
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        raise SingularityError(
            f"cascade singular for {where(index)}: denominator magnitude "
            f"{abs(den[index]):.3e} <= {SINGULARITY_TOL} (resonant load/network pairing)"
        )
    # In place, to hold one broadcast-shaped temporary instead of three.
    gamma = s[..., 1, 0] * s[..., 0, 1] * gamma_load
    gamma /= den
    gamma += s[..., 0, 0]
    return gamma


@dataclass(frozen=True)
class TwoPortPoint:
    """A two-port S-matrix at a single frequency."""

    frequency: float
    s11: complex
    s12: complex
    s21: complex
    s22: complex

    def __post_init__(self):
        for name in ("s11", "s12", "s21", "s22"):
            v = getattr(self, name)
            if not (np.isfinite(v.real) and np.isfinite(v.imag)):
                raise ValueError(f"{name} must be finite")


def interpolate_at(net: PortNetwork, f: float) -> np.ndarray:
    """S-matrix of ``net`` at the single frequency ``f`` (Hz); see :func:`interp_s`."""
    return interp_s(net, f)


def two_port_at(net: PortNetwork, f: float) -> TwoPortPoint:
    """Interpolated :class:`TwoPortPoint` of a 2-port network at ``f``."""
    if net.n_ports != 2:
        raise InputDataError(f"need a 2-port network, got {net.n_ports} ports")
    m = interp_s(net, f)
    return TwoPortPoint(frequency=f, s11=m[0, 0], s12=m[0, 1], s21=m[1, 0], s22=m[1, 1])


def cascade_reflection(p: TwoPortPoint, gamma_load: complex) -> complex:
    """Surface reflection of a two-port terminated in ``gamma_load``."""
    s = np.array([[p.s11, p.s12], [p.s21, p.s22]], dtype=complex)
    return complex(cascade(s, gamma_load, lambda _: f"frequency {p.frequency} Hz"))


def profile_from_network(unit_cell: PortNetwork, loads: ReflectionProfile) -> ReflectionProfile:
    """Cascade every load state through the unit-cell two-port.

    Evaluates on the loads' frequency grid, which must lie inside the unit
    cell's sweep. Singularities are reported with the offending state and
    frequency.
    """
    f = loads.frequencies
    gamma = cascade(
        interp_s(unit_cell, f),
        loads.gamma,
        lambda ik: f"state {loads.states[ik[0]]} at {f[ik[1]]} Hz",
    )
    return ReflectionProfile(states=loads.states, frequencies=f, gamma=gamma)
