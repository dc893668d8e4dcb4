"""Property-based checks of the broadcasting network and metrics core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from risnet.errors import FrequencyRangeError
from risnet.metrics import _passing_band, _sigma_per_frequency, circular_gaps, sigma_phase
from risnet.network import cascade, interp_s
from risnet.touchstone import PortNetwork, ReflectionProfile, dump_state_csv, load_state_csv

# Timing varies with host load; the examples themselves are cheap.
property_settings = settings(deadline=None, max_examples=100)

unit = st.floats(-1.0, 1.0, allow_nan=False)
angles = st.floats(-720.0, 720.0, allow_nan=False)


def complex_arrays(shape, elements=unit):
    return arrays(float, shape + (2,), elements=elements).map(
        lambda a: a[..., 0] + 1j * a[..., 1]
    )


@st.composite
def passive_two_ports(draw, n):
    """``n`` two-port S-matrices with largest singular value at most 0.95."""
    m = draw(complex_arrays((n, 2, 2)))
    u, sv, vh = np.linalg.svd(m)
    caps = draw(arrays(float, (n, 1), elements=st.floats(0.0, 0.95)))
    return u @ (np.minimum(sv, caps)[..., None] * vh)


@st.composite
def loads_in_unit_disk(draw, shape):
    mag = draw(arrays(float, shape, elements=st.floats(0.0, 1.0)))
    phase = draw(arrays(float, shape, elements=st.floats(-np.pi, np.pi)))
    return mag * np.exp(1j * phase)


@property_settings
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(passive_two_ports(n), loads_in_unit_disk((3, n)))
))
def test_cascade_matches_moebius_closed_form(case):
    s, gamma = case
    got = cascade(s, gamma)
    s11, s12, s21, s22 = s[:, 0, 0], s[:, 0, 1], s[:, 1, 0], s[:, 1, 1]
    expected = ((s12 * s21 - s11 * s22) * gamma + s11) / (-s22 * gamma + 1.0)
    assert got.shape == gamma.shape
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert np.all(np.abs(got) <= 1.0 + 1e-9)


@st.composite
def networks(draw):
    n = draw(st.integers(1, 12))
    ports = draw(st.sampled_from((1, 2)))
    steps = draw(arrays(float, n, elements=st.floats(1e3, 1e8)))
    freqs = 1e9 + np.cumsum(steps)
    s = draw(complex_arrays((n, ports, ports)))
    return PortNetwork(ports, 50.0, freqs, s)


@property_settings
@given(networks(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_interp_s_exact_on_grid_and_equal_to_np_interp(net, where):
    np.testing.assert_array_equal(interp_s(net, net.frequencies), net.s)
    q = net.f_min + np.asarray(where) * (net.f_max - net.f_min)
    got = interp_s(net, q)
    assert got.shape == q.shape + (net.n_ports, net.n_ports)
    for i in range(net.n_ports):
        for j in range(net.n_ports):
            expected = np.interp(q, net.frequencies, net.s[:, i, j].real) + 1j * np.interp(
                q, net.frequencies, net.s[:, i, j].imag
            )
            np.testing.assert_array_equal(got[:, i, j], expected)


@property_settings
@given(networks())
def test_interp_s_refuses_to_extrapolate(net):
    span = max(net.f_max - net.f_min, 1.0)
    for f in (net.f_min - 1e-3 * span, net.f_max + 1e-3 * span, np.nan):
        with pytest.raises(FrequencyRangeError):
            interp_s(net, [net.f_min, f])


@st.composite
def phase_tables(draw):
    """(n_states, n_frequencies) phase tables in degrees, n_states a power of two."""
    n_states = draw(st.sampled_from((2, 4, 8)))
    n_freqs = draw(st.integers(1, 20))
    return draw(arrays(float, (n_states, n_freqs), elements=angles))


def profile_from_phases(phases_deg):
    n_states, n_freqs = phases_deg.shape
    return ReflectionProfile(
        states=tuple(range(n_states)),
        frequencies=3e9 + 1e6 * np.arange(n_freqs),
        gamma=np.exp(1j * np.deg2rad(phases_deg)),
    )


@property_settings
@given(phase_tables(), st.randoms(use_true_random=False), angles)
def test_sigma_per_frequency_matches_column_oracle_and_invariances(phases, rnd, offset):
    profile = profile_from_phases(phases)
    sigma = _sigma_per_frequency(profile)
    measured = np.angle(profile.gamma, deg=True)
    oracle = [sigma_phase(circular_gaps(measured[:, k])) for k in range(measured.shape[1])]
    np.testing.assert_allclose(sigma, oracle, rtol=1e-12, atol=1e-12)

    order = list(range(phases.shape[0]))
    rnd.shuffle(order)
    permuted = ReflectionProfile(profile.states, profile.frequencies, profile.gamma[order])
    np.testing.assert_array_equal(_sigma_per_frequency(permuted), sigma)

    rotated = profile_from_phases(phases + offset)
    np.testing.assert_allclose(_sigma_per_frequency(rotated), sigma, rtol=0, atol=1e-9)


@st.composite
def profiles(draw):
    n_states = draw(st.sampled_from((1, 2, 4, 8)))
    labels = sorted(draw(st.sets(st.integers(0, 1000), min_size=n_states, max_size=n_states)))
    freqs = sorted(draw(st.sets(st.integers(10**6, 10**10), min_size=1, max_size=12)))
    shape = (n_states, len(freqs))
    mag = draw(arrays(float, shape, elements=st.floats(1e-3, 2.0)))
    phase = draw(arrays(float, shape, elements=st.floats(-np.pi, np.pi)))
    return ReflectionProfile(tuple(labels), np.array(freqs, float), mag * np.exp(1j * phase))


@property_settings
@given(profiles())
def test_state_csv_round_trip(profile):
    back = load_state_csv(dump_state_csv(profile, comments=("round trip",)))
    assert back.states == profile.states
    np.testing.assert_array_equal(back.frequencies, profile.frequencies)
    np.testing.assert_allclose(back.gamma, profile.gamma, rtol=1e-9, atol=1e-12)


def _crossing_walk(f0, s0, f1, s1, threshold):
    return f0 + (s0 - threshold) * (f1 - f0) / (s0 - s1)


def band_by_walk(f, sigma, threshold, f_center):
    """The two-sided grid walk that ``_passing_band`` replaced, kept as its oracle."""
    sigma_center = float(np.interp(f_center, f, sigma))
    if sigma_center > threshold:
        return None
    j0 = int(np.searchsorted(f, f_center, side="right") - 1)
    j0 = min(max(j0, 0), f.size - 1)
    # walk left from the last grid point at or below f_center
    j = j0
    if sigma[j] > threshold:
        # crossing lies between f[j] and f_center inside this interval
        f_low = _crossing_walk(f[j], sigma[j], f[j + 1], sigma[j + 1], threshold)
    else:
        while j > 0 and sigma[j - 1] <= threshold:
            j -= 1
        if j == 0:
            f_low = float(f[0])
        else:
            f_low = float(_crossing_walk(f[j - 1], sigma[j - 1], f[j], sigma[j], threshold))
    # walk right from the first grid point at or above f_center
    j = int(np.searchsorted(f, f_center, side="left"))
    j = min(max(j, 0), f.size - 1)
    if sigma[j] > threshold:
        f_high = _crossing_walk(f[j - 1], sigma[j - 1], f[j], sigma[j], threshold)
    else:
        while j < f.size - 1 and sigma[j + 1] <= threshold:
            j += 1
        if j == f.size - 1:
            f_high = float(f[-1])
        else:
            f_high = float(_crossing_walk(f[j], sigma[j], f[j + 1], sigma[j + 1], threshold))
    return (float(f_low), float(f_high))


@st.composite
def sigma_curves(draw):
    n = draw(st.integers(1, 40))
    threshold = draw(st.sampled_from((65.0, 32.5, 16.25)))
    f = 3e9 + np.cumsum(draw(arrays(float, n, elements=st.floats(1e5, 1e8))))
    # values exactly at the threshold exercise the <= boundary
    level = st.one_of(st.floats(0.0, 2.0), st.just(1.0))
    sigma = threshold * draw(arrays(float, n, elements=level))
    on_grid = draw(st.booleans())
    if on_grid:
        f_center = float(f[draw(st.integers(0, n - 1))])
    else:
        f_center = min(float(f[0] + draw(st.floats(0.0, 1.0)) * (f[-1] - f[0])), f[-1])
    return f, sigma, threshold, f_center


@property_settings
@given(sigma_curves())
def test_passing_band_equals_grid_walk(curve):
    assert _passing_band(*curve) == band_by_walk(*curve)
