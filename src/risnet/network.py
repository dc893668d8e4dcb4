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

from .errors import InputDataError, SingularityError
from .touchstone import PortNetwork, ReflectionProfile, _interp_complex

# Denominator magnitudes at or below this are treated as singular.
SINGULARITY_TOL = 1e-12


def interp_s(net: PortNetwork, f) -> np.ndarray:
    """S-matrices of ``net`` at frequencies ``f`` (Hz), shape ``f.shape + (n, n)``.

    Linear interpolation on real and imaginary parts independently; exact on
    grid points. Raises :class:`FrequencyRangeError` if any frequency lies
    outside the sweep (no extrapolation).
    """
    return _interp_complex(net.frequencies, net.s, f)


def cascade(s: np.ndarray, gamma_load, where=str) -> np.ndarray:
    """Surface reflection of two-ports ``s`` (shape ``(..., 2, 2)``) terminated in ``gamma_load``.

    ``s[..., i, j]`` broadcasts against ``gamma_load``. A denominator
    1 - S22*gamma_load at or below :data:`SINGULARITY_TOL` in magnitude raises
    :class:`SingularityError`; a denominator or result past the float range
    raises :class:`InputDataError`. Both name the first such point as
    ``where(index)``, ``index`` being its place in the broadcast shape.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape[-2:] != (2, 2):
        raise InputDataError(f"need a 2-port network, got {s.shape[-1]} ports")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        den = 1.0 - s[..., 1, 1] * gamma_load
        singular = np.abs(den) <= SINGULARITY_TOL
        # In place, to hold one broadcast-shaped temporary instead of three.
        gamma = s[..., 1, 0] * s[..., 0, 1] * gamma_load
        gamma /= den
        gamma += s[..., 0, 0]
    if singular.any() or not (np.isfinite(gamma).all() and np.isfinite(den).all()):
        bad = singular | ~(np.isfinite(gamma) & np.isfinite(den))
        index = tuple(int(i) for i in np.argwhere(bad)[0])
        if not singular[index]:
            raise InputDataError(f"cascade result for {where(index)} is past the float range")
        raise SingularityError(
            f"cascade singular for {where(index)}: denominator magnitude "
            f"{abs(den[index]):.3e} <= {SINGULARITY_TOL} (resonant load/network pairing)"
        )
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


interpolate_at = interp_s  # its single-frequency name


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
