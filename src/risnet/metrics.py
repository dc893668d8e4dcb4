"""Phase-dispersion metrics and bandwidth extraction.

The dispersion of a state set's reflection phases is summarized by

    sigma = sqrt( sum_i(gap_i^3) / (12 * 360) )    [degrees]

over the gaps between adjacent phases on the unit circle (including the
wrap-around gap), and maps to an effective resolution

    n_bit_eff = log2( 360 / (sqrt(12) * sigma) ).

Usable bandwidth is the maximal contiguous interval around a center
frequency on which sigma stays at or below the per-resolution threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .touchstone import ReflectionProfile, _csv_text, _format_rows, _require_in_sweep

# Maximum allowed sigma (degrees) per nominal resolution; used verbatim.
SIGMA_THRESHOLD_DEG = {1: 65.0, 2: 32.5, 3: 16.25}

# Reported bandwidths of comparable published designs, echoed in reports.
LITERATURE_BANDWIDTHS = (
    {"design": "varactor patch, 3.5 GHz", "resolution_bits": 1, "bandwidth_hz": 255e6},
    {"design": "pin-diode dipole, 3.5 GHz", "resolution_bits": 2, "bandwidth_hz": 109e6},
    {"design": "varactor ring FSS, 3.8 GHz", "resolution_bits": 2, "bandwidth_hz": 190e6},
    {"design": "varactor ring FSS, 4.2 GHz", "resolution_bits": 3, "bandwidth_hz": 85e6},
)


@dataclass(frozen=True)
class BandwidthReport:
    """Per-frequency dispersion plus the extracted contiguous band.

    ``band`` is (f_low, f_high) in Hz or None when sigma exceeds the
    threshold at the center frequency. ``min_mag_db`` reports the worst
    (smallest) per-frequency state magnitude; it does not enter the band
    decision, which is phase-only.
    """

    frequencies: np.ndarray
    sigma_deg: np.ndarray
    n_bit_eff: np.ndarray
    threshold_deg: float
    band: tuple | None
    bandwidth_hz: float
    min_mag_db: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "threshold_deg": self.threshold_deg,
            "band_hz": None if self.band is None else {
                "f_low_hz": self.band[0],
                "f_high_hz": self.band[1],
            },
            "bandwidth_hz": self.bandwidth_hz,
            "frequencies_hz": self.frequencies.tolist(),
            "sigma_deg": self.sigma_deg.tolist(),
            "nbit_eff": self.n_bit_eff.tolist(),
            "min_mag_db": self.min_mag_db.tolist(),
            "literature": list(LITERATURE_BANDWIDTHS),
        }

    def to_csv(self, comments: tuple = ()) -> str:
        body = _format_rows("%.12g,%.12g,%.12g\n", self.frequencies, self.sigma_deg,
                            self.n_bit_eff)
        return _csv_text("freq_hz,sigma_deg,nbit_eff", comments, body)


def circular_gaps(phases_deg) -> np.ndarray:
    """Consecutive gaps between phases sorted on the circle (last axis), wrap included.

    Returns as many gaps as input phases; they sum to 360. Invariant under
    input ordering and under rotating every phase by a common offset.
    """
    phases = np.asarray(phases_deg, dtype=float)
    if phases.ndim == 0 or phases.shape[-1] < 2:
        raise ValueError("need at least 2 phases")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases must be finite")
    s = np.sort(np.mod(phases, 360.0), axis=-1)
    return np.concatenate((np.diff(s, axis=-1), 360.0 - s[..., -1:] + s[..., :1]), axis=-1)


def sigma_phase(gaps_deg):
    """Phase standard deviation (degrees) of circular gap lists on the last axis; 1-D: a float."""
    gaps = np.asarray(gaps_deg, dtype=float)
    if np.any(gaps < 0):
        raise ValueError("gaps must be >= 0")
    total = np.sum(gaps, axis=-1)
    off = np.abs(total - 360.0) > 1e-6
    if np.any(off):
        raise ValueError(f"gaps must sum to 360 degrees, got {np.ravel(total)[np.argmax(off)]}")
    sigma = np.sqrt(np.sum(gaps**3, axis=-1) / (12.0 * 360.0))
    return float(sigma) if sigma.ndim == 0 else sigma


def effective_bits(sigma_deg):
    """Effective resolution in bits for sigma (degrees), elementwise; a scalar gives a float."""
    sigma = np.asarray(sigma_deg, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    bits = np.log2(360.0 / (np.sqrt(12.0) * sigma))
    return float(bits) if bits.ndim == 0 else bits


def sigma_threshold(resolution_bits: int) -> float:
    """Maximum allowed sigma (degrees) for a 1-, 2- or 3-bit state set."""
    try:
        return SIGMA_THRESHOLD_DEG[resolution_bits]
    except KeyError:
        raise ValueError(
            f"unsupported resolution {resolution_bits} (expected 1, 2 or 3)"
        ) from None


def select_states(profile: ReflectionProfile, indices) -> ReflectionProfile:
    """Restrict a profile to a subset of its states.

    Dropping every second state of an 8-state profile (indices 0, 2, 4, 6)
    produces the virtual 2-bit variant used for like-for-like comparisons.
    The subset's :class:`ReflectionProfile` rejects a repeated state or a count not a power of two.
    """
    positions = []
    for i in sorted(int(i) for i in indices):
        if i not in profile.states:
            raise InputDataError(f"unknown state index {i}")
        positions.append(profile.states.index(i))
    return ReflectionProfile(
        states=tuple(profile.states[p] for p in positions),
        frequencies=profile.frequencies,
        gamma=profile.gamma[positions, :],
    )


def _sigma_per_frequency(profile: ReflectionProfile) -> np.ndarray:
    """``sigma_phase(circular_gaps(.))`` of the state phases at every frequency.

    Rows are frequencies, so each sum runs along a contiguous row, in the same
    order as for a single column.
    """
    return sigma_phase(circular_gaps(np.ascontiguousarray(np.angle(profile.gamma, deg=True).T)))


def _crossing(f, sigma, k: int, threshold: float) -> float:
    """Frequency where sigma crosses ``threshold`` between grid points k and k+1."""
    return float(f[k] + (sigma[k] - threshold) * (f[k + 1] - f[k]) / (sigma[k] - sigma[k + 1]))


def _passing_band(f, sigma, threshold: float, f_center: float):
    """(f_low, f_high) of the contiguous run around ``f_center`` where sigma passes.

    None when sigma, interpolated at ``f_center``, exceeds ``threshold``.
    The run spans the grid points between the last failing point at or
    below ``f_center`` and the first failing point at or above it; each
    edge is interpolated in the interval where sigma crosses over.
    """
    if float(np.interp(f_center, f, sigma)) > threshold:
        return None
    fails = sigma > threshold
    below = np.flatnonzero(fails[: np.searchsorted(f, f_center, side="right")])
    at_or_above = int(np.searchsorted(f, f_center, side="left"))
    above = np.flatnonzero(fails[at_or_above:])
    f_low = float(f[0]) if below.size == 0 else _crossing(f, sigma, below[-1], threshold)
    if above.size == 0:
        return f_low, float(f[-1])
    return f_low, _crossing(f, sigma, at_or_above + above[0] - 1, threshold)


def bandwidth(profile: ReflectionProfile, resolution_bits: int, f_center: float) -> BandwidthReport:
    """Extract the contiguous band around ``f_center`` where sigma passes.

    Band edges are interpolated linearly in sigma between grid points. When
    sigma already exceeds the threshold at the center, the band is None and
    the bandwidth zero.
    """
    threshold = sigma_threshold(resolution_bits)
    if profile.n_states != 2**resolution_bits:
        raise ValueError(
            f"profile has {profile.n_states} states, expected {2**resolution_bits} "
            f"for {resolution_bits}-bit resolution"
        )
    f = profile.frequencies
    _require_in_sweep(f, f_center)
    sigma = _sigma_per_frequency(profile)
    nbit = effective_bits(sigma)
    min_mag_db = 20.0 * np.log10(np.maximum(np.min(np.abs(profile.gamma), axis=0), 1e-30))

    band = _passing_band(f, sigma, threshold, f_center)
    bw = 0.0 if band is None else band[1] - band[0]
    return BandwidthReport(
        frequencies=f,
        sigma_deg=sigma,
        n_bit_eff=nbit,
        threshold_deg=threshold,
        band=band,
        bandwidth_hz=bw,
        min_mag_db=min_mag_db,
    )
