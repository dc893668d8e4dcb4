import numpy as np
import pytest

from risnet.errors import GateSpanError, ReferenceLevelError, SweepGridError
from risnet.gating import (
    GateSpec,
    Sweep,
    _tukey,
    dump_sweep_csv,
    load_sweep_csv,
    low_confidence_edges,
    normalize_to_plate,
    sweep_from_network,
    sweep_to_network,
    synth_multipath,
    time_gate,
)

FREQS = np.linspace(3.0e9, 4.2e9, 401)


def interior(fraction=0.8):
    n = FREQS.size
    edge = (1.0 - fraction) / 2.0
    return slice(int(edge * n), int((1 - edge) * n) + 1)


def test_sweep_validation():
    with pytest.raises(SweepGridError, match="at least 8"):
        Sweep(np.linspace(1e9, 2e9, 4), np.zeros(4, complex))
    bad = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 9.0]) * 1e9
    with pytest.raises(SweepGridError, match="uniform"):
        Sweep(bad, np.zeros(8, complex))


def test_synth_single_path_at_zero_delay():
    sweep = synth_multipath([(0.0, 1.0)], FREQS)
    np.testing.assert_allclose(sweep.values, 1.0)


def test_synth_single_path_linear_phase():
    tau = 2e-9
    sweep = synth_multipath([(tau, 1.0)], FREQS)
    expected = np.exp(-2j * np.pi * FREQS * tau)
    np.testing.assert_allclose(sweep.values, expected, rtol=1e-12)


def test_synth_two_paths_pointwise_sum():
    paths = [(2e-9, 1.0), (10e-9, 0.5 + 0.1j)]
    sweep = synth_multipath(paths, FREQS)
    expected = sum(a * np.exp(-2j * np.pi * FREQS * t) for t, a in paths)
    np.testing.assert_allclose(sweep.values, expected, rtol=1e-12)


def test_synth_rejects_negative_delay():
    with pytest.raises(ValueError):
        synth_multipath([(-1e-9, 1.0)], FREQS)


def test_all_pass_gate_is_identity():
    sweep = synth_multipath([(2e-9, 1.0), (10e-9, 0.5)], FREQS)
    gate = GateSpec(0.0, sweep.alias_free_span, window_shape=0.0)
    out = time_gate(sweep, gate)
    np.testing.assert_allclose(
        out.values[interior()], sweep.values[interior()], atol=1e-6
    )


def test_gate_recovers_first_path():
    two = synth_multipath([(2e-9, 1.0), (10e-9, 0.5)], FREQS)
    one = synth_multipath([(2e-9, 1.0)], FREQS)
    out = time_gate(two, GateSpec(0.0, 6e-9))
    err = np.abs(out.values - one.values)[interior()]
    assert np.max(err) <= 0.02


def test_gate_recovers_second_path_amplitude():
    two = synth_multipath([(2e-9, 1.0), (10e-9, 0.5)], FREQS)
    out = time_gate(two, GateSpec(8e-9, 12e-9))
    mags = np.abs(out.values)[interior()]
    assert np.all(np.abs(mags - 0.5) <= 0.02)


def test_gate_is_linear():
    rng = np.random.default_rng(4)
    n = FREQS.size
    x = Sweep(FREQS, rng.normal(size=n) + 1j * rng.normal(size=n))
    y = Sweep(FREQS, rng.normal(size=n) + 1j * rng.normal(size=n))
    a, b = 1.7 - 0.3j, -0.6 + 2.2j
    gate = GateSpec(1e-9, 7e-9)
    lhs = time_gate(Sweep(FREQS, a * x.values + b * y.values), gate).values
    rhs = a * time_gate(x, gate).values + b * time_gate(y, gate).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_in_gate_path_passband_flatness():
    # deep interior: the compensated band edges carry most of the gating
    # ripple (they are flagged low-confidence), the middle stays flat
    sweep = synth_multipath([(3e-9, 1.0)], FREQS)
    out = time_gate(sweep, GateSpec(0.0, 6e-9))
    dev = np.abs(np.abs(out.values[interior(0.6)]) - 1.0)
    assert np.max(dev) <= 0.005
    dev80 = np.abs(np.abs(out.values[interior(0.8)]) - 1.0)
    assert np.max(dev80) <= 0.015


def test_out_of_gate_path_suppressed():
    sweep = synth_multipath([(10e-9, 0.5)], FREQS)
    out = time_gate(sweep, GateSpec(0.0, 6e-9))  # margin 4 ns >= 2/band span
    residual = np.abs(out.values)[interior()]
    assert np.max(residual) <= 0.05 * 0.5


def test_gate_outside_alias_free_span():
    sweep = synth_multipath([(2e-9, 1.0)], FREQS)
    with pytest.raises(GateSpanError):
        time_gate(sweep, GateSpec(400e-9, 500e-9))


def test_gate_narrower_than_time_step():
    sweep = synth_multipath([(2e-9, 1.0)], FREQS)
    with pytest.raises(GateSpanError, match="narrower"):
        time_gate(sweep, GateSpec(0.30e-9, 0.40e-9))


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(5e-9, 1e-9)
    with pytest.raises(ValueError):
        GateSpec(-1e-9, 5e-9)
    with pytest.raises(ValueError):
        GateSpec(0.0, 5e-9, window_shape=1.5)


@pytest.mark.parametrize("beta", [float("nan"), float("inf"), -1.0, 1e3])
def test_gate_spec_rejects_nonphysical_kaiser_beta(beta):
    with pytest.raises(ValueError, match="Kaiser beta"):
        GateSpec(0.0, 5e-9, pre_window=beta)


def test_gate_at_the_largest_kaiser_beta_is_finite():
    sweep = synth_multipath([(2e-9, 1.0)], FREQS)
    out = time_gate(sweep, GateSpec(0.0, 6e-9, pre_window=700.0))
    assert np.all(np.isfinite(out.values))


def test_normalize_plate_identity():
    ref = synth_multipath([(2e-9, 0.8)], FREQS)
    out = normalize_to_plate(ref, ref)
    np.testing.assert_allclose(out.values, -1.0, rtol=1e-12)


def test_normalize_plate_sign_flip():
    ref = synth_multipath([(2e-9, 0.8)], FREQS)
    dut = Sweep(FREQS, -ref.values)
    np.testing.assert_allclose(normalize_to_plate(dut, ref).values, 1.0, rtol=1e-12)


def test_normalize_plate_ratio():
    ref = synth_multipath([(2e-9, 0.8)], FREQS)
    dut = Sweep(FREQS, 0.5 * ref.values * np.exp(1j * np.deg2rad(30.0)))
    out = normalize_to_plate(dut, ref)
    np.testing.assert_allclose(np.abs(out.values), 0.5, rtol=1e-12)
    np.testing.assert_allclose(np.angle(out.values, deg=True), 30.0 - 180.0, rtol=1e-9)


def test_normalize_inverse_returns_dut():
    rng = np.random.default_rng(8)
    ref = Sweep(FREQS, rng.normal(size=FREQS.size) + 1j * rng.normal(size=FREQS.size) + 3.0)
    dut = Sweep(FREQS, rng.normal(size=FREQS.size) + 1j * rng.normal(size=FREQS.size))
    out = normalize_to_plate(dut, ref)
    np.testing.assert_allclose(out.values * -ref.values, dut.values, rtol=1e-12)


def test_normalize_grid_mismatch():
    ref = synth_multipath([(0.0, 1.0)], FREQS)
    other = synth_multipath([(0.0, 1.0)], FREQS + 1e6)
    with pytest.raises(SweepGridError):
        normalize_to_plate(other, ref)


def test_normalize_reference_underflow():
    ref = Sweep(FREQS, np.full(FREQS.size, 1e-12 + 0j))
    dut = synth_multipath([(0.0, 1.0)], FREQS)
    with pytest.raises(ReferenceLevelError):
        normalize_to_plate(dut, ref)


def test_gate_names_the_first_value_past_the_float_range():
    freqs = np.linspace(3.0e9, 4.2e9, 64)
    huge = Sweep(freqs, np.full(freqs.size, 1e307 + 1e307j))
    with pytest.raises(SweepGridError, match=r"^gated value at 3000000000\.0 Hz is past"):
        time_gate(huge, GateSpec(0.0, 6e-9))


def test_normalize_names_the_first_value_past_the_float_range():
    dut = synth_multipath([(0.0, 1e305)], FREQS)
    ref = Sweep(FREQS, np.r_[np.ones(9), np.full(FREQS.size - 9, 1e-5)])
    with pytest.raises(SweepGridError, match=rf"^normalized value at {FREQS[9]} Hz is past"):
        normalize_to_plate(dut, ref)


def test_low_confidence_edges():
    sweep = synth_multipath([(0.0, 1.0)], FREQS)
    lo, hi = low_confidence_edges(sweep)
    np.testing.assert_allclose(lo, 3.0e9 + 0.12e9)
    np.testing.assert_allclose(hi, 4.2e9 - 0.12e9)


def test_sweep_csv_roundtrip():
    sweep = synth_multipath([(2e-9, 1.0), (5e-9, 0.3j)], FREQS)
    text = dump_sweep_csv(sweep, comments=("fixture",))
    back = load_sweep_csv(text)
    np.testing.assert_allclose(back.frequencies, sweep.frequencies, rtol=1e-12)
    np.testing.assert_allclose(back.values, sweep.values, rtol=1e-9, atol=1e-12)


def test_sweep_csv_errors():
    with pytest.raises(SweepGridError, match="header"):
        load_sweep_csv("a,b,c\n1,2,3\n")
    with pytest.raises(SweepGridError, match="non-numeric"):
        load_sweep_csv("freq_hz,re,im\n1e9,x,0\n")


@pytest.mark.parametrize("text, line, message", [
    ("# c\n\nfreq,re,im\n", 3, "line 3: expected header 'freq_hz,re,im', got 'freq,re,im'"),
    ("freq_hz,re,im\n# c\n1e9,0\n", 3, "line 3: expected 3 comma-separated fields, got 2"),
    ("freq_hz,re,im\n1e9, 0 ,x\n", 2, "line 2: non-numeric field in '1e9,0,x'"),
    ("# only a comment\n", 1, "line 1: missing header line"),
])
def test_sweep_csv_errors_name_the_line(text, line, message):
    with pytest.raises(SweepGridError) as exc:
        load_sweep_csv(text)
    assert str(exc.value) == message
    assert exc.value.line == line


def test_sweep_network_roundtrip():
    sweep = synth_multipath([(1e-9, 0.7)], FREQS)
    net = sweep_to_network(sweep)
    assert net.n_ports == 1
    back = sweep_from_network(net)
    np.testing.assert_allclose(back.values, sweep.values, rtol=1e-12)


def test_tukey_matches_scipy_bitwise():
    tukey = pytest.importorskip("scipy.signal.windows").tukey
    for alpha in np.concatenate(([0.0, 1.0], np.linspace(0.0, 1.0, 41))):
        for m in range(601):
            assert np.array_equal(_tukey(m, alpha), tukey(m, alpha)), (m, alpha)
