"""Named numeric thresholds, each probed just inside and just outside its limit.

A threshold that no test sits next to can move by orders of magnitude
unnoticed; ``tools/mutants.py`` moves each of these and expects a failure here.
"""

import numpy as np
import pytest

from risnet import network
from risnet.errors import ReferenceLevelError, SingularityError
from risnet.gating import GateSpec, Sweep, normalize_to_plate, time_gate
from risnet.metrics import bandwidth, sigma_phase
from risnet.touchstone import ReflectionProfile


@pytest.mark.parametrize("exponent, singular", [(-40, True), (-39, False)])
def test_cascade_singularity_tolerance(exponent, singular):
    # 1 - S22 * gamma_load is exactly 2**exponent: 9.1e-13 is at most 1e-12, 1.8e-12 is not.
    s = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=complex)
    gamma_load = 1.0 - 2.0**exponent
    if singular:
        with pytest.raises(SingularityError, match="denominator magnitude 9.095e-13"):
            network.cascade(s, gamma_load)
    else:
        assert network.cascade(s, gamma_load) == pytest.approx(gamma_load / 2.0**exponent)


def test_gate_window_floor_acts_only_below_it():
    # At Kaiser beta 10 the band-edge window is 1/I0(10) = 3.6e-4, under the
    # 1e-3 floor; the next samples in are above it. A gate over the whole time
    # axis with no taper passes the pre-windowed band through unchanged, so
    # the output is v * w / max(w, floor).
    n = 64
    freqs = 3e9 + 1e6 * np.arange(n)
    values = np.exp(1j * np.linspace(0.0, 5.0, n))
    w = np.kaiser(n, 10.0)
    below = w < 1e-3
    assert below.sum() == 2 and below[0] and below[-1]
    assert np.sort(w)[2] < 1e-2  # a floor ten times higher would act here too
    span = 1.0 / 1e6
    out = time_gate(Sweep(freqs, values), GateSpec(0.0, span, 0.0, 10.0)).values
    np.testing.assert_allclose(out[~below], values[~below], rtol=1e-9)
    np.testing.assert_allclose(out[below], values[below] * w[below] / 1e-3, rtol=1e-9)


@pytest.mark.parametrize("excess, accepted", [(0.9e-6, True), (1.1e-6, False)])
def test_sigma_phase_gap_sum_tolerance(excess, accepted):
    gaps = [180.0, 180.0 + excess]
    if accepted:
        assert sigma_phase(gaps) == pytest.approx(np.sqrt(2 * 180.0**3 / (12 * 360.0)))
    else:
        with pytest.raises(ValueError, match="gaps must sum to 360 degrees"):
            sigma_phase(gaps)


@pytest.mark.parametrize("level, accepted", [(0.99e-9, False), (1.01e-9, True)])
def test_plate_reference_floor(level, accepted):
    freqs = 3e9 + 1e6 * np.arange(8)
    dut = Sweep(freqs, np.full(8, 0.5 + 0j))
    reference = Sweep(freqs, np.where(np.arange(8) == 3, level, 1.0) + 0j)
    if accepted:
        assert normalize_to_plate(dut, reference).values[3] == pytest.approx(-0.5 / level)
    else:
        with pytest.raises(ReferenceLevelError, match="reference magnitude 9.900e-10"):
            normalize_to_plate(dut, reference)


def test_min_mag_db_floor():
    # |gamma| of 0 and of 1e-31 sit under the 1e-30 floor and read -600 dB;
    # 1e-29 sits above it.
    freqs = np.linspace(3.3e9, 3.9e9, 4)
    gamma = np.array([[1.0, 0.0, 1e-31, 1e-29], [-1.0, -1.0, -1.0, -1.0]], dtype=complex)
    report = bandwidth(ReflectionProfile((0, 1), freqs, gamma), 1, 3.6e9)
    assert report.min_mag_db[1] == -600.0 and report.min_mag_db[2] == -600.0
    assert report.min_mag_db[3] == pytest.approx(-580.0)
