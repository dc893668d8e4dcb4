"""Property-based checks of the broadcasting network and metrics core, of stub
synthesis against its closed form, of two-path gating, and of the numeric-text
readers and writers."""

import io
import math
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import risnet.array
from risnet import cli
from risnet.errors import (
    FrequencyRangeError,
    InputDataError,
    StateCsvError,
    SweepGridError,
    TouchstoneParseError,
)
from risnet.gating import (
    SWEEP_CSV_HEADER,
    GateSpec,
    Sweep,
    dump_sweep_csv,
    load_sweep_csv,
    low_confidence_edges,
    normalize_to_plate,
    synth_multipath,
    time_gate,
)
from risnet.loads import (
    _SIGN,
    SP8T_TARGETS_DEG,
    MicrostripLine,
    StubNetworkDesign,
    StubState,
    _lossless_solution_deg,
    _squared_wrap,
    _stub_bank,
    guided_wavelength,
    ideal_sp8t_design,
    sp8t_load_profile,
    stub_reflection,
    synthesize_stub_lengths,
)
from risnet.metrics import (
    BandwidthReport,
    _passing_band,
    _sigma_per_frequency,
    circular_gaps,
    sigma_phase,
)
from risnet.network import cascade, interp_s
from risnet.touchstone import (
    STATE_CSV_HEADER,
    PortNetwork,
    ReflectionProfile,
    _block_rows,
    _format_rows,
    _g_text,
    _pairs_to_complex,
    _parse_option_line,
    _wrap180,
    dump_state_csv,
    load_state_csv,
    parse_touchstone,
    serialize_touchstone,
)

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
def lossless_designs(draw):
    """A lossless microstrip line and a design center frequency inside n78."""
    line = MicrostripLine(
        width=draw(st.floats(0.2e-3, 5e-3)),
        substrate_height=draw(st.floats(0.1e-3, 2e-3)),
        epsilon_r=draw(st.floats(1.0, 12.0)),
    )
    return line, draw(st.floats(3.3e9, 3.8e9))


@property_settings
@given(lossless_designs())
def test_synthesis_at_one_frequency_is_the_closed_form(design):
    line, f_center = design
    got = synthesize_stub_lengths(None, line, f_center, (f_center, f_center)).states
    want = ideal_sp8t_design(line, f_center).states
    lam_g = guided_wavelength(line, f_center)
    tol = lam_g / 2.0 * 1e-9  # the scan-and-narrow search tolerance, period * 1e-9
    assert [s.termination for s in got] == [s.termination for s in want]
    assert [s.termination for s in got].count("open") == 4
    for g, w in zip(got, want):
        assert abs(g.length_m - w.length_m) <= tol
        # The shorter of the open and short solutions is never above 67.5 degrees.
        assert g.length_m <= 67.5 / 360.0 * lam_g + tol


@property_settings
@given(lossless_designs(), st.floats(1e-4, 0.07))
def test_synthesis_on_a_symmetric_band_stays_within_a_degree_at_center(design, half_width):
    line, f_center = design
    band = (f_center * (1.0 - half_width), f_center * (1.0 + half_width))
    states = synthesize_stub_lengths(None, line, f_center, band).states
    assert all(s.residual_deg < 1.0 for s in states)


@st.composite
def stub_banks(draw):
    """A 4 open / 4 short design and a grid of 1-16 frequencies inside 3.0-4.2 GHz.

    The line is lossless or lossy; the switch is ideal or a passive measured
    two-port on a 2-6 point sweep over 3.0-4.2 GHz.
    """
    line = MicrostripLine(
        width=draw(st.floats(0.2e-3, 5e-3)),
        substrate_height=draw(st.floats(0.1e-3, 2e-3)),
        epsilon_r=draw(st.floats(1.0, 12.0)),
        loss_db_per_m=draw(st.just(0.0) | st.floats(0.0, 50.0)),
        reference_frequency=draw(st.floats(1e9, 6e9)),
    )
    terms = draw(st.permutations(["open"] * 4 + ["short"] * 4))
    lengths = draw(st.lists(st.floats(0.0, 0.05), min_size=8, max_size=8))
    switch = None
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        switch = PortNetwork(2, 50.0, np.linspace(3.0e9, 4.2e9, n), draw(passive_two_ports(n)))
    states = tuple(map(StubState, range(8), terms, lengths))
    f = draw(st.lists(st.floats(3.0e9, 4.2e9), min_size=1, max_size=16, unique=True))
    return StubNetworkDesign(states, line, switch), np.array(sorted(f))


@property_settings
@given(stub_banks())
def test_sp8t_profile_is_each_stub_through_the_switch(case):
    design, f = case
    want = []
    for state in design.states:
        g = stub_reflection(state.length_m, state.termination, f, design.line)
        if design.switch is not None:
            g = cascade(interp_s(design.switch, f), g)
        want.append(g)
    got = sp8t_load_profile(design, f)
    assert got.states == tuple(range(8))
    assert got.gamma.tobytes() == np.array(want).tobytes()


@property_settings
@given(stub_banks(), st.floats(3.4e9, 3.7e9), st.floats(0.0, 0.05))
def test_synthesis_residuals_are_the_designs_own_error_at_center(case, f_center, half_width):
    design, _ = case
    band = (f_center * (1.0 - half_width), f_center * (1.0 + half_width))
    got = synthesize_stub_lengths(design.switch, design.line, f_center, band)
    profile = sp8t_load_profile(got, [f_center])
    for i, state in enumerate(got.states):
        want = np.abs(_wrap180(np.angle(profile.gamma[i], deg=True) - 45 * i))
        assert np.array([state.residual_deg]).tobytes() == want.tobytes()


def full_scan_synthesis(switch, line, f_center, band, n_band_points):
    """(lengths, residuals) of a scan and narrow that repeats its work.

    The coarse scan cascades all eight states, every rescan evaluates its 9
    np.linspace points, and the phase error is wrapped with np.remainder.
    """
    f_lo, f_hi = float(band[0]), float(band[1])
    grid = np.array([f_lo]) if f_hi == f_lo else np.linspace(f_lo, f_hi, n_band_points)
    offsets = grid - f_center
    s2 = float(np.sum(offsets**2))
    lam = 0.0 if s2 == 0 else -float(np.sum(offsets)) / s2
    w = np.maximum(1.0 + lam * offsets, 0.0)
    w = w / np.sum(w)
    s_grid = None if switch is None else interp_s(switch, grid)
    terms = [_lossless_solution_deg(target)[0] for target in SP8T_TARGETS_DEG]
    signs = np.array([_SIGN[term] for term in terms])
    targets = np.array(SP8T_TARGETS_DEG)
    rows = np.arange(8)

    def objective(lengths):
        g = _stub_bank(signs, lengths[..., None], grid, line)
        if s_grid is not None:
            g = cascade(s_grid, g, lambda ijk: f"state {ijk[0]} at {grid[ijk[2]]} Hz")
        return np.sum(w * _wrap180(np.angle(g, deg=True) - targets[:, None, None]) ** 2, axis=2)

    period = guided_wavelength(line, f_center) / 2.0
    coarse = np.linspace(0.0, period, 64, endpoint=False)
    k = np.argmin(objective(coarse[None, :]), axis=1)
    edges = np.append(coarse, period)
    a, b = edges[np.maximum(k - 1, 0)], edges[k + 1]
    while (b - a > period * 1e-9).any():
        x = np.linspace(a, b, 9, axis=1)
        k = np.argmin(objective(x), axis=1)
        a, b = x[rows, np.maximum(k - 1, 0)], x[rows, np.minimum(k + 1, 8)]
    lengths = (a + b) / 2.0
    design = StubNetworkDesign(tuple(map(StubState, range(8), terms, lengths.tolist())), line,
                               switch)
    g = sp8t_load_profile(design, [f_center]).gamma[:, 0]
    return lengths, np.abs(_wrap180(np.angle(g, deg=True) - targets))


@property_settings
@given(stub_banks(), st.floats(3.4e9, 3.7e9), st.just(0.0) | st.floats(0.0, 0.05),
       st.integers(2, 40))
def test_synthesis_equals_a_scan_that_repeats_its_work(case, f_center, half_width,
                                                       n_band_points):
    design, _ = case
    band = (f_center * (1.0 - half_width), f_center * (1.0 + half_width))
    got = synthesize_stub_lengths(design.switch, design.line, f_center, band, n_band_points)
    lengths, residuals = full_scan_synthesis(design.switch, design.line, f_center, band,
                                             n_band_points)
    assert np.array([s.length_m for s in got.states]).tobytes() == lengths.tobytes()
    assert np.array([s.residual_deg for s in got.states]).tobytes() == residuals.tobytes()


# Phases at the ends of np.angle's range, signed zeros, and the phases just
# below target - 180, where (d + 180) % 360 rounds v + 360 up to 360.
wrap_phases = st.one_of(
    st.sampled_from([180.0, -180.0, 0.0, -0.0, 5e-324, -5e-324]
                    + [float(np.nextafter(t - 180.0, -np.inf)) for t in (45.0, 90.0, 315.0)]
                    + [float(np.nextafter(t - 180.0, np.inf)) for t in (45.0, 90.0, 315.0)]),
    st.floats(-180.0, 180.0),
)


@property_settings
@given(st.lists(wrap_phases, min_size=1, max_size=16))
def test_squared_wrap_equals_the_remainder_wrap(phases):
    phase = np.array(phases)[np.newaxis, :]
    targets = np.array(SP8T_TARGETS_DEG)[:, np.newaxis]
    assert _squared_wrap(phase, targets).tobytes() == (_wrap180(phase - targets) ** 2).tobytes()


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


@st.composite
def piecewise_linear_sigma(draw):
    """sigma linear between grid points, with the band edges where it crosses the threshold.

    Grid points lo+1..hi pass. The failing points lo and hi+1 are set so that
    sigma crosses the threshold at a drawn place inside the interval to each,
    if there is one (lo = -1 or hi = n-1 runs the band to the grid's end).
    Points further out take any value, so sigma may pass again there. The
    center lies inside the band, on or off the grid, or on a failing slope
    next to it.
    """
    n = draw(st.integers(2, 30))
    threshold = draw(st.sampled_from((65.0, 32.5, 16.25)))
    f = 3e9 + np.cumsum(draw(arrays(float, n, elements=st.floats(1e5, 1e8))))
    lo = draw(st.integers(-1, n - 2))
    hi = draw(st.integers(lo + 1, n - 1))
    sigma = threshold * draw(arrays(float, n, elements=st.floats(0.0, 2.0)))
    sigma[lo + 1:hi + 1] = threshold * draw(arrays(float, hi - lo, elements=st.floats(0.0, 0.99)))
    band, slopes = [float(f[0]), float(f[-1])], []
    for side, out, inner in ((0, lo, lo + 1), (1, hi + 1, hi)):
        if 0 <= out < n:
            t = draw(st.floats(0.01, 0.99))  # from the passing point to the failing one
            sigma[out] = sigma[inner] + (threshold - sigma[inner]) / t
            band[side] = float(f[inner] + t * (f[out] - f[inner]))
            slopes.append((float(f[out]), band[side]))
    if slopes and draw(st.booleans()):
        f_out, f_edge = draw(st.sampled_from(slopes))
        return f, sigma, threshold, f_out + draw(st.floats(0.0, 0.99)) * (f_edge - f_out), None
    if draw(st.booleans()):
        f_center = float(f[draw(st.integers(lo + 1, hi))])
    else:
        f_center = band[0] + draw(st.floats(0.01, 0.99)) * (band[1] - band[0])
    return f, sigma, threshold, f_center, tuple(band)


@property_settings
@given(piecewise_linear_sigma())
def test_passing_band_finds_the_analytic_crossings(case):
    f, sigma, threshold, f_center, expected = case
    got = _passing_band(f, sigma, threshold, f_center)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, rel=1e-9)


# --- Two-path gating ------------------------------------------------------------
#
# The Kaiser pre-window turns each echo into a main lobe plus sidelobes no higher
# than rho(beta) of its peak. With the DUT's main lobe inside the flat top of
# the gate and the clutter's main lobe past the gate, an echo crosses a gate
# edge only through its sidelobes. Before the pre-window is divided out again
# the error is then of the order of rho times the echo amplitudes, and the
# division scales it by 1/w(f), most towards the low-confidence edges (Keysight
# AN 1287-12 on gating windows). The bound is 2 rho (|a_dut| + |a_clutter|) /
# w(f). Over 16 000 drawn scenes the error reached at most 0.68 of it.


def kaiser_lobes(n, beta):
    """Main-lobe half-width (cycles per sample) and peak sidelobe ratio of np.kaiser(n, beta)."""
    pad = 64 * n
    spectrum = np.abs(np.fft.rfft(np.kaiser(n, beta), pad))
    null = int(np.argmax(np.diff(spectrum) > 0))  # the first minimum
    return null / pad, float(spectrum[null:].max() / spectrum[0])


@st.composite
def two_path_scenes(draw):
    """A DUT echo inside the flat top of a gate, a clutter echo past it, and rho."""
    n = draw(st.integers(40, 801))
    freqs = draw(st.floats(1e9, 5e9)) + draw(st.floats(1e5, 2.5e6)) * np.arange(n)
    period = 1.0 / (freqs[1] - freqs[0])  # the alias-free span
    beta, taper = draw(st.floats(0.0, 13.0)), draw(st.floats(0.0, 0.5))
    half_width, rho = kaiser_lobes(n, beta)
    # The main-lobe half-width plus two samples of the 4x zero-padded time axis,
    # by which the edges of the sampled gate may move: at most 0.12 of the
    # period for n >= 40.
    lobe = (half_width + 2 / (4 * n)) * period
    u = [draw(st.floats(0.0, 1.0)) for _ in range(4)]
    t_start = 0.1 * period * u[0]
    flat = 2 * lobe + u[1] * (0.3 * period - 2 * lobe)
    t_stop = t_start + flat / (1.0 - taper)
    tau_dut = t_start + taper * (t_stop - t_start) / 2 + lobe + u[2] * (flat - 2 * lobe)
    tau_clutter = t_stop + lobe + u[3] * (period - t_stop - 2 * lobe)
    a_dut, a_clutter = (draw(st.floats(low, 1.0)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
                        for low in (0.05, 0.0))
    gate = GateSpec(t_start, t_stop, taper, beta)
    return freqs, gate, (tau_dut, a_dut), (tau_clutter, a_clutter), rho


@property_settings
@given(two_path_scenes())
def test_gating_recovers_the_dut_echo_inside_the_confident_band(scene):
    freqs, gate, (tau, a), clutter, rho = scene
    out = time_gate(synth_multipath([(tau, a), clutter], freqs), gate)
    lo, hi = low_confidence_edges(out)
    inside = (freqs >= lo) & (freqs <= hi)
    bound = 2 * rho * (abs(a) + abs(clutter[1])) / np.kaiser(freqs.size, gate.pre_window)
    # A complex error of at most e keeps the amplitude within e and the linear
    # phase within asin(e / |a|).
    error = np.abs(out.values - a * np.exp(-2j * np.pi * freqs * tau))
    assert np.all(error[inside] <= bound[inside] + 1e-12)


@property_settings
@given(st.integers(8, 64).flatmap(lambda n: st.tuples(
    arrays(float, n, elements=st.floats(-8.0, 300.0)),
    arrays(float, n, elements=st.floats(-np.pi, np.pi)))))
def test_a_sweep_normalized_to_itself_is_minus_one(case):
    exponents, phases = case
    sweep = Sweep(3e9 + 1e6 * np.arange(exponents.size), 10.0**exponents * np.exp(1j * phases))
    values = normalize_to_plate(sweep, sweep).values
    assert np.all(np.abs(values + 1.0) <= np.finfo(float).eps)  # one rounding of v / v


# --- Numeric-text layer --------------------------------------------------------
#
# Per-row readers and writers, kept as the oracles of the readers' loadtxt
# fast path and of the one-step writers: every output and every error
# (message and line) must match them.


def oracle_csv_rows(text, header, error):
    names = header.split(",")
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if not header_seen:
            if fields != names:
                raise error(f"expected header '{header}', got '{line}'", line_no)
            header_seen = True
            continue
        if len(fields) != len(names):
            raise error(
                f"expected {len(names)} comma-separated fields, got {len(fields)}", line_no
            )
        yield line_no, fields
    if not header_seen:
        raise error("missing header line", 1)


def oracle_load_state_csv(text):
    rows, line_nos = [], []
    for line_no, fields in oracle_csv_rows(text, STATE_CSV_HEADER, StateCsvError):
        try:
            f_hz, mag_db, phase_deg = float(fields[0]), float(fields[2]), float(fields[3])
            state = int(fields[1])
        except ValueError:
            raise StateCsvError(f"non-numeric field in '{','.join(fields)}'", line_no) from None
        if state < 0:
            raise StateCsvError(f"negative state index {state}", line_no)
        if state >= 2**31:
            raise StateCsvError(f"state index {state} out of range", line_no)
        if not math.isfinite(f_hz):
            raise StateCsvError(f"non-finite frequency {fields[0]}", line_no)
        rows.extend((f_hz, state, mag_db, phase_deg))
        line_nos.append(line_no)
    if not rows:
        raise StateCsvError("no data rows", 1)
    for line_no, f_hz in zip(line_nos, rows[::4]):
        if f_hz < 0:
            raise StateCsvError("frequencies must be non-negative", line_no)
    table = np.array(rows).reshape(-1, 4)
    freqs = np.unique(table[:, 0])
    states = np.unique(table[:, 1])
    k = np.searchsorted(freqs, table[:, 0])
    i = np.searchsorted(states, table[:, 1])
    cell = i * freqs.size + k
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if repeats.size:
        r = int(repeats.min())
        raise StateCsvError(
            f"duplicate row for state {int(table[r, 1])} at {table[r, 0]} Hz", line_nos[r]
        )
    if cell.size != states.size * freqs.size:
        filled = np.zeros(states.size * freqs.size, dtype=bool)
        filled[cell] = True
        missing = np.flatnonzero(~filled)
        s, f = int(states[missing[0] // freqs.size]), freqs[missing[0] % freqs.size]
        raise StateCsvError(
            f"incomplete grid: missing state {s} at {f} Hz "
            f"({missing.size} missing pairs in total)"
        )
    n = states.size
    if n & (n - 1):
        raise StateCsvError(f"state count {n} is not a power of two")
    with np.errstate(all="ignore"):
        values = np.float_power(10.0, table[:, 2] / 20.0) * np.exp(1j * np.deg2rad(table[:, 3]))
    for line_no, v in zip(line_nos, values):
        if not np.isfinite(v):
            raise StateCsvError("gamma entries must be finite", line_no)
    gamma = np.empty((n, freqs.size), dtype=complex)
    gamma[i, k] = values
    return ReflectionProfile(states=tuple(int(s) for s in states), frequencies=freqs, gamma=gamma)


def oracle_load_sweep_csv(text):
    rows = []
    for line_no, fields in oracle_csv_rows(text, SWEEP_CSV_HEADER, SweepGridError):
        try:
            rows.append((line_no, *map(float, fields)))
        except ValueError:
            raise SweepGridError(f"non-numeric field in '{','.join(fields)}'", line_no) from None
    # Rows are checked by line: non-finite frequencies, then negative ones, then
    # their order, then the values; the size and uniform-step checks of Sweep
    # come last.
    for line_no, f, _, _ in rows:
        if not math.isfinite(f):
            raise SweepGridError("frequencies must be finite", line_no)
    for line_no, f, _, _ in rows:
        if f < 0:
            raise SweepGridError("frequencies must be non-negative", line_no)
    for (line_no, f, _, _), prev in zip(rows[1:], rows):
        if f <= prev[1]:
            raise SweepGridError("frequencies must be strictly increasing", line_no)
    for line_no, _, re, im in rows:
        if not (math.isfinite(re) and math.isfinite(im)):
            raise SweepGridError("sweep values must be finite", line_no)
    return Sweep(frequencies=np.array([r[1] for r in rows]),
                 values=np.array([r[2] + 1j * r[3] for r in rows]))


def oracle_parse_touchstone(text):
    option = None
    records = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("["):
            raise TouchstoneParseError(
                f"Touchstone v2 keyword '{line.split()[0]}' not supported "
                "(this reader accepts v1 only)",
                line_no,
            )
        if line.startswith("#"):
            if option is not None:
                raise TouchstoneParseError("duplicate option line", line_no)
            option = _parse_option_line(line, line_no)
            continue
        if "!" in line:
            line = line.split("!", 1)[0].strip()
            if not line:
                continue
        if option is None:
            raise TouchstoneParseError("data before option line", line_no)
        values = []
        for tok in line.split():
            try:
                values.append(float(tok))
            except ValueError:
                raise TouchstoneParseError(f"non-numeric token '{tok}'", line_no) from None
        records.append((line_no, values))
    if option is None:
        raise TouchstoneParseError("missing option line", 1)
    if not records:
        raise TouchstoneParseError("no data records", 1)
    unit, fmt, z0 = option
    n_values = len(records[0][1])
    if n_values not in (3, 9):
        raise TouchstoneParseError(
            f"expected 3 (1-port) or 9 (2-port) values per record, got {n_values}",
            records[0][0],
        )
    n_ports = 1 if n_values == 3 else 2
    # The records before the first one of another length form the frequency
    # grid: it is checked for non-finite values, then for negative ones, then
    # for order, then the record of another length is reported.
    n_points = next((k for k, (_, v) in enumerate(records) if len(v) != n_values), len(records))
    scale = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}[unit]
    freqs = [values[0] * scale for _, values in records[:n_points]]
    for (line_no, _), f_hz in zip(records, freqs):
        if not math.isfinite(f_hz):
            raise TouchstoneParseError("frequencies must be finite", line_no)
    for (line_no, _), f_hz in zip(records, freqs):
        if f_hz < 0:
            raise TouchstoneParseError("frequencies must be non-negative", line_no)
    for (line_no, _), f_hz, prev_f in zip(records[1:], freqs[1:], freqs):
        if f_hz <= prev_f:
            raise TouchstoneParseError("frequencies must be strictly increasing", line_no)
    if n_points < len(records):
        line_no, values = records[n_points]
        raise TouchstoneParseError(
            f"expected {n_values} values per record, got {len(values)}", line_no
        )
    raw = np.array([values[1:] for _, values in records])
    with np.errstate(all="ignore"):
        cplx = _pairs_to_complex(raw[:, 0::2], raw[:, 1::2], fmt)
    # S values are checked by line once every record's count and frequency are.
    for (line_no, _), row in zip(records, cplx):
        if not np.all(np.isfinite(row)):
            raise TouchstoneParseError("S parameters must be finite", line_no)
    s = np.ascontiguousarray(cplx[:, [0, 2, 1, 3]] if n_ports == 2 else cplx)
    s = s.reshape(-1, n_ports, n_ports)
    return PortNetwork(n_ports=n_ports, reference_impedance=z0, frequencies=freqs, s=s)


def oracle_fmt(x):
    return f"{x:.12g}"


def oracle_value_fields(v, fmt, where):
    """The two text fields of ``v``; a magnitude past the float range is an
    InputDataError naming ``where`` (the entry or state and its frequency)."""
    if fmt == "ri":
        return oracle_fmt(v.real), oracle_fmt(v.imag)
    mag = abs(v)
    if math.isinf(mag):
        raise InputDataError(f"{where}: the magnitude of {v} overflows the float range")
    ang = float(np.angle(v, deg=True)) if mag > 0 else 0.0
    if fmt == "ma":
        return oracle_fmt(mag), oracle_fmt(ang)
    db = 20.0 * np.log10(mag) if mag > 0 else -600.0
    return oracle_fmt(db), oracle_fmt(ang)


def oracle_serialize_touchstone(net, fmt, unit, comments=()):
    scale = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}[unit]
    lines = [f"! {c}" for c in comments]
    lines.append(f"# {unit} S {fmt} R {oracle_fmt(net.reference_impedance)}")
    entries = {"S11": (0, 0)} if net.n_ports == 1 else {
        "S11": (0, 0), "S21": (1, 0), "S12": (0, 1), "S22": (1, 1)}
    # Entry by entry, so the first overflow is named in the writer's order.
    columns = [[oracle_value_fields(net.s[k][ij], fmt.lower(), f"{name} at {f_hz} Hz")
                for k, f_hz in enumerate(net.frequencies)] for name, ij in entries.items()]
    for k, f_hz in enumerate(net.frequencies):
        fields = [oracle_fmt(f_hz / scale)]
        for column in columns:
            fields.extend(column[k])
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def oracle_dump_state_csv(profile, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(STATE_CSV_HEADER)
    for state, g in zip(profile.states, profile.gamma):
        for f_hz, v in zip(profile.frequencies, g):
            fields = oracle_value_fields(v, "db", f"state {state} at {f_hz} Hz")
            lines.append(f"{oracle_fmt(f_hz)},{state},{','.join(fields)}")
    return "\n".join(lines) + "\n"


def oracle_dump_sweep_csv(sweep, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(SWEEP_CSV_HEADER)
    for f, v in zip(sweep.frequencies, sweep.values):
        lines.append(f"{f:.12g},{v.real:.12g},{v.imag:.12g}")
    return "\n".join(lines) + "\n"


def oracle_bandwidth_csv(report):
    lines = ["freq_hz,sigma_deg,nbit_eff"]
    for f, s, n in zip(report.frequencies, report.sigma_deg, report.n_bit_eff):
        lines.append(f"{f:.12g},{s:.12g},{n:.12g}")
    return "\n".join(lines) + "\n"


def oracle_pattern_csv(theta_grid, phi, af_db):
    csv_lines = ["theta_deg,phi_deg,af_db"]
    for th, v in zip(theta_grid, af_db):
        csv_lines.append(f"{oracle_fmt(th)},{oracle_fmt(phi)},{oracle_fmt(v)}")
    return "\n".join(csv_lines) + "\n"


def outcome(call, arg):
    """What ``call(arg)`` gives: its result, or the error's type, message and line."""
    try:
        return call(arg)
    except InputDataError as e:
        return type(e), str(e), e.line


def assert_same_outcome(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    for name in ("states", "n_ports", "reference_impedance"):
        assert getattr(got, name, None) == getattr(expected, name, None)
    for name in ("frequencies", "gamma", "s", "values"):
        if hasattr(expected, name):
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(expected, name))
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


# Token forms the readers meet: plain and exotic float spellings, integer
# spellings, and forms that float() or int() reject.
EXOTIC_TOKENS = (
    "1_000", "+.5", "Infinity", "+nan", "-nan", "1e999", "-1e999", "1e-400", "0x10", "1__0",
    "_1", "1_", "3.0", " 7 ", "\t4", " 7", "٣", "١٢", "-0", "+0", "",
    "1.5e", ".", "inf", "-iNf", "1e1_0", "0b1", "007", "99999999999999999999",
    "-99999999999999999999", "2147483647", "2147483648", "-1", "1e5", "5e-324",
)
tokens = st.one_of(
    st.sampled_from(EXOTIC_TOKENS),
    st.floats().map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.text(alphabet="0123456789+-._eEinfatyxIN ٣", max_size=6),
)


def scalar_cast(cast, toks):
    try:
        return [cast(t) for t in toks]
    except ValueError:
        return None


def loadtxt_cast(dtype, toks):
    """The tokens as the last field of CSV rows, parsed as the readers' fast path does."""
    rows = [f"0,{t}" for t in toks]
    try:
        table = np.loadtxt(rows, dtype=[("a", float), ("v", dtype)], delimiter=",",
                           comments=None, ndmin=1)
    except ValueError:
        return None
    return table["v"]


@settings(deadline=None, max_examples=400)
@given(st.lists(tokens, min_size=1, max_size=12))
def test_loadtxt_fields_equal_scalar_float_and_int(toks):
    # loadtxt may refuse what float() or int() accepts (1_000, non-ASCII digits,
    # ints past int64): those files take the per-line path. It never accepts
    # what they refuse, and what it accepts has their bits.
    for cast, dtype in ((float, np.float64), (int, np.int64)):
        got = loadtxt_cast(dtype, toks)
        if got is not None:
            expected = scalar_cast(cast, toks)
            assert expected is not None
            assert got.tobytes() == np.array(expected, dtype=dtype).tobytes()


@st.composite
def state_csv_texts(draw):
    """A valid state CSV text, then up to three rows replaced, dropped or repeated."""
    n_states = draw(st.sampled_from((1, 2, 4)))
    n_freqs = draw(st.integers(1, 6))
    rows = [
        f"{3e9 + 1e6 * k:.12g},{s},{draw(st.floats(-80, 10)):.12g},{draw(angles):.12g}"
        for s in range(n_states) for k in range(n_freqs)
    ]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        fields = rows[r].split(",")
        kind = draw(st.sampled_from(("token", "token", "drop_field", "drop_row", "repeat",
                                     "comment", "blank", "pad")))
        if kind == "token":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(tokens).replace(",", "")
            rows[r] = ",".join(fields)
        elif kind == "drop_field":
            rows[r] = ",".join(fields[:-1])
        elif kind == "drop_row":
            del rows[r]
        elif kind == "repeat":
            rows.insert(r, rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "comment":
            rows.insert(r, "# note, with, commas")
        elif kind == "blank":
            rows.insert(r, "   ")
        else:
            rows[r] = " , ".join(fields)
    return "\n".join([STATE_CSV_HEADER] + rows) + "\n"


@property_settings
@given(state_csv_texts())
def test_state_csv_reader_matches_per_line_path(text):
    assert_same_outcome(outcome(load_state_csv, text), outcome(oracle_load_state_csv, text))


@st.composite
def sweep_csv_texts(draw):
    n = draw(st.integers(8, 14))
    rows = [f"{1e9 + 1e6 * k:.12g},{draw(unit):.12g},{draw(unit):.12g}" for k in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.integers(0, n - 1))
        fields = rows[r].split(",")
        if draw(st.booleans()):
            fields[draw(st.integers(0, len(fields) - 1))] = draw(tokens).replace(",", "")
            rows[r] = ",".join(fields)
        else:
            rows[r] = ",".join(fields[:2])
    return "\n".join(["# sweep", SWEEP_CSV_HEADER] + rows) + "\n"


@property_settings
@given(sweep_csv_texts())
def test_sweep_csv_reader_matches_per_line_path(text):
    assert_same_outcome(outcome(load_sweep_csv, text), outcome(oracle_load_sweep_csv, text))


@st.composite
def touchstone_texts(draw):
    """Touchstone text with up to two lines replaced by a fault (no noise block).

    Tokens are separated by spaces or by no-break spaces, which str.split()
    also splits on.
    """
    n_values = draw(st.sampled_from((3, 9)))
    n = draw(st.integers(1, 8))
    sep = draw(st.sampled_from((" ", "\xa0")))
    lines = ["! measured", draw(st.sampled_from(("# MHz S RI R 50", "# Hz S DB", "#")))]
    for k in range(n):
        values = [f"{100 + 10 * k}"] + [f"{draw(unit):.12g}" for _ in range(n_values - 1)]
        lines.append(sep.join(values) + draw(st.sampled_from(("", " ! inline"))))
    for _ in range(draw(st.integers(0, 2))):
        r = draw(st.integers(1, len(lines) - 1))
        kind = draw(st.sampled_from(("token", "count", "order", "option", "keyword", "comment")))
        fields = lines[r].split()
        if kind == "token" and fields:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(tokens).replace(" ", "") or "q"
            lines[r] = " ".join(fields)
        elif kind == "count":
            lines[r] = " ".join(fields[:draw(st.sampled_from((2, 4, 5, 7)))])
        elif kind == "order":
            lines.insert(r, lines[r])
        elif kind == "option":
            lines.insert(r, "# GHz S MA R 50")
        elif kind == "keyword":
            lines.insert(r, "[Version] 2.0")
        else:
            lines.insert(r, "  ! comment")
    return "\n".join(lines) + "\n"


@property_settings
@given(touchstone_texts())
def test_touchstone_reader_matches_per_line_path(text):
    got = outcome(parse_touchstone, text)
    expected = outcome(oracle_parse_touchstone, text)
    if not isinstance(got, tuple) and "expected 9 values per record, got 5" in str(expected):
        # a non-increasing 5-value record after 2-port data now starts a noise block
        return
    assert_same_outcome(got, expected)


# Spaces that str.strip() and loadtxt both skip, and lines a hand-edited file holds.
pads = st.sampled_from(("", " ", "\t", "\xa0", "\u2003", "\u3000"))
FAULTS = ("x", "-1", "-0", "nan", "inf", "1e999", "1_0", "", "3e9 3e9")


@st.composite
def decorated_texts(draw):
    """(kind, text): a state CSV, sweep CSV or Touchstone text, dressed as edited by hand.

    It may hold leading comments, comment and whitespace-only lines between
    rows, empty lines before a faulty row, CRLF line ends, inline comments and
    Unicode whitespace around fields.
    """
    kind = draw(st.sampled_from(("state", "sweep", "touchstone")))
    comment = "!" if kind == "touchstone" else "#"
    if kind == "state":
        head, sep = STATE_CSV_HEADER, ","
        n_states, n_freqs = draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 4))
        rows = [[f"{3e9 + 1e6 * k:.12g}", str(s), f"{draw(st.floats(-80, 10)):.12g}",
                 f"{draw(angles):.12g}"] for s in range(n_states) for k in range(n_freqs)]
    elif kind == "sweep":
        head, sep = SWEEP_CSV_HEADER, ","
        rows = [[f"{1e9 + 1e6 * k:.12g}", f"{draw(unit):.12g}", f"{draw(unit):.12g}"]
                for k in range(draw(st.integers(8, 12)))]
    else:
        head, sep = draw(st.sampled_from(("# MHz S RI R 50", "# Hz S DB", "#"))), " "
        n_values = draw(st.sampled_from((3, 9)))
        rows = [[f"{100 + 10 * k}"] + [f"{draw(unit):.12g}" for _ in range(n_values - 1)]
                for k in range(draw(st.integers(1, 6)))]
    lines = [sep.join(draw(pads) + field + draw(pads) for field in row) for row in rows]
    if draw(st.booleans()):
        r = draw(st.integers(0, len(rows) - 1))
        fields = lines[r].split(sep)
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FAULTS))
        lines[r] = sep.join(fields)
        lines[r:r] = [""] * draw(st.integers(0, 2))
    if draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] += f" {comment} inline"
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
            ("", "   ", "\t", "\u3000", f"{comment} note, 1", f"  {comment} x"))))
    lines[:0] = [f"{comment} exported"] * draw(st.integers(0, 2)) + [
        draw(pads) + head + draw(pads)]
    end = draw(st.sampled_from(("\n", "\r\n")))
    return kind, end.join(lines) + draw(st.sampled_from(("", end)))


READERS = {"state": load_state_csv, "sweep": load_sweep_csv, "touchstone": parse_touchstone}


def data_lines_outcome(read, text):
    """The outcome of ``read(text)`` when loadtxt refuses the raw lines.

    The reader then keeps its data lines with _data_lines and reads them from
    there, as it does for any text whose raw lines loadtxt refuses.
    """
    real, calls = np.loadtxt, []

    def refuse_first(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("refused")
        return real(*args, **kwargs)

    with mock.patch.object(np, "loadtxt", refuse_first):
        return outcome(read, text)


@settings(deadline=None, max_examples=300)
@given(decorated_texts())
def test_readers_give_the_data_lines_outcome_from_raw_lines(case):
    kind, text = case
    read = READERS[kind]
    assert_same_outcome(outcome(read, text), data_lines_outcome(read, text))


# Values that stress the "%.12g" writers: zeros of both signs, the -600 dB floor
# (|v| = 1e-30), subnormals and extreme exponents.
edge_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-30, -1e-30, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                     1.0, -1.0, 0.1, 123456789012.5)),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(-10.0, 10.0),
)
finite_complex = st.builds(complex, edge_floats, edge_floats)
# Finite values whose magnitude overflows, which the MA and DB writers reject.
OVER, OVER2 = complex(1.7e308, 1.7e308), complex(-1.3e308, 1.3e308)


@st.composite
def serializable_networks(draw):
    ports = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(1, 6))
    freqs = 1e9 + 1e6 * np.cumsum(draw(arrays(float, n, elements=st.floats(0.5, 50.0))))
    s = np.array(draw(st.lists(finite_complex, min_size=n * ports * ports,
                               max_size=n * ports * ports))).reshape(n, ports, ports)
    return PortNetwork(ports, draw(st.sampled_from((50.0, 75.0, 1e-3))), freqs, s)


@property_settings
@given(serializable_networks(), st.sampled_from(("RI", "MA", "DB")),
       st.sampled_from(("Hz", "kHz", "MHz", "GHz")), st.sampled_from(((), ("a", "b c"))))
@example(PortNetwork(1, 50.0, np.array([1e9]), np.array([[[OVER]]])), "MA", "GHz", ())
@example(PortNetwork(1, 50.0, np.array([1e9]), np.array([[[OVER]]])), "RI", "Hz", ())
# S21 precedes S12 in the writer's order, so the overflow at 2 GHz is the one named.
@example(PortNetwork(2, 50.0, np.array([1e9, 2e9]), np.array(
    [[[0.5, OVER2], [0.1j, 0.0]], [[0.5, 0.0], [OVER, 0.0]]])), "DB", "MHz", ("a",))
@example(PortNetwork(2, 50.0, np.array([1e9, 2e9]), np.array(
    [[[0.5, OVER2], [0.1j, 0.0]], [[0.5, 0.0], [OVER, 0.0]]])), "MA", "kHz", ())
def test_touchstone_writer_matches_per_row_oracle(net, fmt, unit, comments):
    expected = outcome(lambda n: oracle_serialize_touchstone(n, fmt, unit, comments), net)
    assert outcome(lambda n: serialize_touchstone(n, fmt, unit, comments=comments), net) == expected


@property_settings
@given(st.sampled_from((1, 2, 4)).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 5), st.lists(finite_complex, min_size=5 * n, max_size=5 * n))))
@example((1, 1, [OVER] + [0.5] * 4))
# States are written in turn, so state 0's overflow at the second frequency is named.
@example((2, 2, [0.5, OVER2, OVER] + [0.5j] * 7))
def test_state_csv_writer_matches_per_row_oracle(case):
    n, n_freqs, values = case
    gamma = np.array(values[:n * n_freqs]).reshape(n, n_freqs)
    profile = ReflectionProfile(tuple(range(n)), 3e9 + 1e6 * np.arange(n_freqs), gamma)
    expected = outcome(lambda p: oracle_dump_state_csv(p, ("x",)), profile)
    assert outcome(lambda p: dump_state_csv(p, ("x",)), profile) == expected


@property_settings
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), max_size=12),
       edge_floats, edge_floats)
def test_sweep_and_bandwidth_writers_match_per_row_oracles(pairs, a, b):
    n = 8 + len(pairs)
    values = np.array([complex(a, b)] * 8 + [complex(*p) for p in pairs])
    sweep = Sweep(1e9 + 1e6 * np.arange(n), values)
    assert dump_sweep_csv(sweep, ("c",)) == oracle_dump_sweep_csv(sweep, ("c",))
    sigma = np.abs(values.real)
    with np.errstate(divide="ignore", over="ignore"):
        n_bit = np.log2(360.0 / (np.sqrt(12.0) * sigma))  # inf where sigma is 0
    report = BandwidthReport(sweep.frequencies, sigma, n_bit, 65.0, None, 0.0, sigma)
    assert report.to_csv() == oracle_bandwidth_csv(report)


def g_values(kind, rng, n=150_000):
    """``n`` seeded floats of one class the ``%.12g`` writer must print exactly."""
    if kind == "phase":
        return rng.uniform(-180.0, 180.0, n)
    if kind == "db":
        return rng.uniform(-80.0, 10.0, n)
    if kind == "ri":
        return rng.uniform(-1.0, 1.0, n)
    if kind == "log-spread":
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-15.0, 35.0, n)
    if kind == "bit patterns":  # subnormals, NaN payloads and infinities among them
        return rng.integers(0, 2**64, n, dtype=np.uint64).view(float)
    if kind == "whole numbers":
        return rng.integers(-(10**13), 10**13, n).astype(float)
    if kind == "halfway":  # (k + 0.5) * 10**j rounded once, k of 12 digits: 13 ending in 5
        half = rng.integers(10**11, 10**12, n) + 0.5
        j = rng.integers(-20, 18, n)
        return np.where(j < 0, half / 10.0 ** np.abs(j), half * 10.0 ** j)
    if kind == "powers of ten":
        p = np.array([float(f"1e{i}") for i in range(-20, 30)])
        p = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
        return np.concatenate([p, -p, [0.0, -0.0, 999999999999.5, -999999999999.5]])
    raise ValueError(kind)


G_KINDS = ("phase", "db", "ri", "log-spread", "bit patterns", "whole numbers", "halfway",
           "powers of ten")


@pytest.mark.parametrize("seed, kind", list(enumerate(G_KINDS)), ids=G_KINDS)
def test_format_rows_prints_every_value_as_cpython(seed, kind):
    """About 1.05M values in all, every class of the vectorized path and of its fallback."""
    x = g_values(kind, np.random.default_rng(seed))
    got = _format_rows("%.12g\n", x).split("\n")[:-1]
    expected = ["%.12g" % v for v in x.tolist()]
    if got != expected:
        i = next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)
        pytest.fail(f"{x[i]!r}: got {got[i]!r}, expected {expected[i]!r}")


@property_settings
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20))
def test_format_rows_prints_any_float_as_cpython(values):
    expected = "".join("%.12g %.12g\n" % row for row in zip(values, values[::-1]))
    assert _format_rows("%.12g %.12g\n", values, values[::-1]) == expected
    assert _format_rows("%s %.12g\n", _g_text(values), values[::-1]) == expected


def random_gamma(rng, shape):
    return rng.uniform(0.0, 1.0, shape) * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))


# Rows per block of each writer: its fields formatted per row (a state CSV row
# holds frequency text, the state label, dB and angle).
@pytest.mark.parametrize("offset", (-1, 0, 1), ids=("block-1", "block", "block+1"))
def test_writers_match_per_row_oracles_at_block_edges(offset):
    rng = np.random.default_rng(26 + offset)
    n = _block_rows(2) + offset
    a, b = rng.normal(0.0, 1e3, (2, n))
    assert _format_rows("%s %.12g\n", _g_text(a), b) == "".join(
        "%.12g %.12g\n" % row for row in zip(a.tolist(), b.tolist()))

    n = _block_rows(4) + offset
    profile = ReflectionProfile((3,), 3e9 + 1e5 * np.arange(n), random_gamma(rng, (1, n)))
    assert dump_state_csv(profile, ("x",)) == oracle_dump_state_csv(profile, ("x",))

    n = _block_rows(9) + offset
    net = PortNetwork(2, 50.0, 3e9 + 1e5 * np.arange(n), random_gamma(rng, (n, 2, 2)))
    for fmt in ("RI", "MA", "DB"):
        assert serialize_touchstone(net, fmt, "GHz") == oracle_serialize_touchstone(
            net, fmt, "GHz")

    n = _block_rows(3) + offset
    sweep = Sweep(1e9 + 1e6 * np.arange(n), random_gamma(rng, n))
    assert dump_sweep_csv(sweep, ("c",)) == oracle_dump_sweep_csv(sweep, ("c",))
    sigma = rng.uniform(0.0, 40.0, n)
    report = BandwidthReport(sweep.frequencies, sigma, np.log2(360.0 / (np.sqrt(12.0) * sigma)),
                             65.0, None, 0.0, sigma)
    assert report.to_csv() == oracle_bandwidth_csv(report)


def test_state_csv_writer_names_the_first_overflow_in_a_later_block():
    n_freqs = 300  # 8 states: 2400 rows, the second block starts in state 6
    assert 6 * n_freqs < _block_rows(4) < 7 * n_freqs
    gamma = random_gamma(np.random.default_rng(7), (8, n_freqs))
    gamma[7, 0] = OVER
    gamma[6, n_freqs - 1] = OVER2  # the first overflow in the writer's order
    profile = ReflectionProfile(tuple(range(8)), 3e9 + 1e5 * np.arange(n_freqs), gamma)
    expected = outcome(oracle_dump_state_csv, profile)
    assert expected[1].startswith(f"state 6 at {profile.frequencies[-1]} Hz")
    assert outcome(dump_state_csv, profile) == expected


@pytest.fixture(scope="module")
def pattern_profile(tmp_path_factory):
    path = tmp_path_factory.mktemp("pattern") / "p.csv"
    freqs = 3e9 + 1e8 * np.arange(11)
    gamma = np.exp(1j * np.deg2rad(45.0 * np.arange(8)))[:, None] * np.ones(freqs.size)
    path.write_text(dump_state_csv(ReflectionProfile(tuple(range(8)), freqs, gamma)))
    return str(path)


@property_settings
@given(st.lists(finite_complex.filter(lambda v: math.hypot(v.real, v.imag) < 1e300),
                min_size=1, max_size=30),
       st.sampled_from((0.0, -0.0, 12.5, 359.875, 1e-7)))
def test_pattern_writer_matches_per_row_oracle(pattern_profile, af, phi):
    af = np.array(af)
    if not np.max(np.abs(af)) > 0:
        af[0] = 1.0
    n = af.size
    argv = ["pattern", pattern_profile, "--tiles-x", "1", "--tiles-y", "1",
            "--theta-start-deg", "-1", "--theta-step-deg", "0.0625",
            "--theta-stop-deg", repr(-1 + 0.0625 * (n - 1)), "--phi-az-deg", repr(phi)]
    out = io.StringIO()
    with mock.patch.object(risnet.array, "array_factor", lambda *a, **k: af), redirect_stdout(out):
        assert cli.main(argv) == 0
    theta_grid = np.arange(-1.0, -1 + 0.0625 * (n - 1) + 0.0625 / 2, 0.0625)
    mag = np.abs(af)
    af_db = 20.0 * np.log10(np.maximum(mag / np.max(mag), 1e-300))
    assert out.getvalue() == oracle_pattern_csv(theta_grid, phi, af_db)


@st.composite
def noisy_touchstone_networks(draw):
    net = draw(serializable_networks().filter(lambda net: np.all(np.abs(net.s) < 1e150)))
    return net, draw(st.booleans()) and net.n_ports == 2


@property_settings
@given(noisy_touchstone_networks(), st.sampled_from(("RI", "MA", "DB")),
       st.sampled_from(("Hz", "kHz", "MHz", "GHz")), st.sampled_from(((), ("c",))))
def test_touchstone_round_trip(case, fmt, unit, comments):
    net, noise = case
    text = serialize_touchstone(net, fmt, unit, comments=comments)
    if noise:
        scale = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}[unit]
        f0 = net.frequencies[0] / scale
        text += f"{f0:.12g} 1.5 0.3 45 0.2 ! noise\n{2 * f0:.12g} 1.6 0.31 46 0.21\n"
    back = parse_touchstone(text)
    assert back.n_ports == net.n_ports
    np.testing.assert_allclose(back.frequencies, net.frequencies, rtol=1e-9)
    tiny = np.abs(net.s) < 1e-20  # below the DB floor or lost in RI rounding
    np.testing.assert_allclose(back.s[~tiny], net.s[~tiny], rtol=1e-9, atol=1e-12)


@property_settings
@given(st.integers(8, 40).flatmap(lambda n: st.tuples(
    st.floats(1e6, 1e10), st.floats(1e3, 1e7),
    st.lists(st.builds(complex, unit, unit), min_size=n, max_size=n))))
def test_sweep_csv_round_trip(case):
    f0, df, values = case
    sweep = Sweep(np.round(f0) + np.round(df) * np.arange(len(values)), np.array(values))
    back = load_sweep_csv(dump_sweep_csv(sweep, comments=("round trip",)))
    np.testing.assert_allclose(back.frequencies, sweep.frequencies, rtol=1e-12)
    np.testing.assert_allclose(back.values, sweep.values, rtol=1e-9, atol=1e-12)
