"""The input rules that each have one owner: frequency grids, the sweep range,
non-finite values in every reader, and sigma along the last axis."""

import warnings

import numpy as np
import pytest

from risnet import cli
from risnet.array import ArrayLayout, array_factor
from risnet.errors import (
    FrequencyRangeError,
    InputDataError,
    StateCsvError,
    SweepGridError,
    TouchstoneParseError,
)
from risnet.gating import Sweep, load_sweep_csv
from risnet.loads import MicrostripLine, StubNetworkDesign, stub_reflection, synthesize_stub_lengths
from risnet.metrics import bandwidth, circular_gaps, effective_bits, sigma_phase
from risnet.network import TwoPortPoint, interp_s, profile_from_network
from risnet.touchstone import (
    PortNetwork,
    ReflectionProfile,
    dump_state_csv,
    load_state_csv,
    parse_touchstone,
    serialize_touchstone,
)

# A grid value and the rule it breaks: non-finite first, then negative.
FINITE = "frequencies must be finite"
NON_NEGATIVE = "frequencies must be non-negative"
GRID_FAULTS = [
    *(pytest.param(v, FINITE, id=str(v)) for v in (np.nan, np.inf, -np.inf)),
    pytest.param(-1.0, NON_NEGATIVE, id="-1.0"),
]
GRID = np.array([3.0e9, 3.3e9, 3.6e9, 3.9e9, 4.2e9])
SWEEP_SPAN = "[3000000000.0, 4200000000.0] Hz"


def uniform_grid_with(value):
    """An 8-point uniform grid whose third point is replaced by ``value``."""
    f = 3.0e9 + 0.3e9 * np.arange(8)
    f[2] = value
    return f


def eight_state_profile():
    gamma = np.exp(1j * np.deg2rad(45.0 * np.arange(8)))[:, None] * np.ones(GRID.size)
    return ReflectionProfile(tuple(range(8)), GRID, gamma)


def thru_switch():
    s = np.zeros((GRID.size, 2, 2), complex)
    s[:, 0, 1] = s[:, 1, 0] = 1.0
    return PortNetwork(2, 50.0, GRID, s)


@pytest.mark.parametrize("value, message", GRID_FAULTS)
@pytest.mark.parametrize("build, error", [
    (lambda f: PortNetwork(1, 50.0, f, np.zeros((f.size, 1, 1), complex)), InputDataError),
    (lambda f: ReflectionProfile((0, 1), f, np.ones((2, f.size), complex)), InputDataError),
    (lambda f: Sweep(f, np.ones(f.size, complex)), SweepGridError),
], ids=["PortNetwork", "ReflectionProfile", "Sweep"])
def test_constructors_reject_non_finite_frequency(build, error, value, message):
    with pytest.raises(error, match=message):
        build(uniform_grid_with(value))


@pytest.mark.parametrize("token, message", [
    ("nan", FINITE), ("inf", FINITE), ("-inf", FINITE), ("1e999", FINITE), ("-2", NON_NEGATIVE),
], ids=["nan", "inf", "-inf", "1e999", "-2"])
def test_parse_touchstone_names_the_non_finite_frequency(token, message):
    text = f"# Hz S RI R 50\n! c\n1 0 0\n{token} 0 0\n3 0 0\n"
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone(text)
    assert str(exc.value) == f"line 4: {message}"
    assert exc.value.line == 4


@pytest.mark.parametrize("token, message", [
    ("nan", FINITE), ("inf", FINITE), ("-inf", FINITE), ("-1", NON_NEGATIVE),
], ids=["nan", "inf", "-inf", "-1"])
def test_load_sweep_csv_names_the_non_finite_frequency(token, message):
    rows = [f"{1e9 + 1e6 * k:.12g},0.5,0" for k in range(10)]
    rows[6] = f"{token},0.5,0"
    with pytest.raises(SweepGridError) as exc:
        load_sweep_csv("# sweep\nfreq_hz,re,im\n" + "\n".join(rows) + "\n")
    assert str(exc.value) == f"line 9: {message}"


def test_zero_frequency_is_accepted():
    net = parse_touchstone("# Hz S RI R 50\n0 0.5 0\n1e9 0.5 0\n")
    assert net.f_min == 0.0
    assert load_sweep_csv("freq_hz,re,im\n" + "".join(
        f"{1e6 * k:.12g},0.5,0\n" for k in range(8))).frequencies[0] == 0.0


def test_load_sweep_csv_names_the_falling_frequency():
    rows = [f"{1e9 + 1e6 * k:.12g},0.5,0" for k in range(10)]
    rows[4] = "1e9,0.5,0"
    with pytest.raises(SweepGridError) as exc:
        load_sweep_csv("freq_hz,re,im\n" + "\n".join(rows) + "\n")
    assert str(exc.value) == "line 6: frequencies must be strictly increasing"


def write_profile(tmp_path):
    path = tmp_path / "p.csv"
    lines = ["freq_hz,state,mag_db,phase_deg"]
    lines += [f"{f:.12g},{s},0,{45.0 * s}" for s in range(8) for f in GRID]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


LINE = MicrostripLine(width=1.5e-3, substrate_height=0.8e-3, epsilon_r=4.9)


@pytest.mark.parametrize("where, call", [
    (2.9e9, lambda: interp_s(thru_switch(), [3.6e9, 2.9e9])),
    (4.5e9, lambda: eight_state_profile().at_frequency(4.5e9)),
    (2.9e9, lambda: bandwidth(eight_state_profile(), 3, 2.9e9)),
    (2.9e9, lambda: synthesize_stub_lengths(thru_switch(), LINE, 3.6e9, (2.9e9, 3.8e9))),
    (4.5e9, lambda: synthesize_stub_lengths(thru_switch(), LINE, 3.6e9, (3.3e9, 4.5e9))),
], ids=["interp_s", "at_frequency", "bandwidth", "synth_low_edge", "synth_high_edge"])
def test_out_of_sweep_frequency_has_one_message(where, call):
    with pytest.raises(FrequencyRangeError) as exc:
        call()
    assert str(exc.value) == f"frequency {where} Hz not contained in sweep {SWEEP_SPAN}"


@pytest.mark.parametrize("sub", ["pattern", "bandwidth"])
@pytest.mark.parametrize("f_center", ["2.9e9", "4.5e9"])
def test_cli_f_center_outside_the_profile_exits_3(tmp_path, capsys, sub, f_center):
    assert cli.main([sub, write_profile(tmp_path), f"--f-center-hz={f_center}"]) == 3
    assert capsys.readouterr().err == (
        f"error: frequency {float(f_center)} Hz not contained in sweep {SWEEP_SPAN}\n"
    )


STATE_HEADER = "freq_hz,state,mag_db,phase_deg\n"


@pytest.mark.parametrize("read, text, error, line, message", [
    (load_state_csv, STATE_HEADER + "1e9,0,0,0\n1e9,1,inf,0\n2e9,0,0,0\n2e9,1,0,0\n",
     StateCsvError, 3, "gamma entries must be finite"),
    (load_state_csv, STATE_HEADER + "1e9,0,0,0\n1e9,1,0,0\n2e9,0,0,0\n2e9,1,7000,0\n",
     StateCsvError, 5, "gamma entries must be finite"),
    (load_state_csv, STATE_HEADER + "1e9,0,0,0\n1e9,1,0,0\n2e9,0,0,-inf\n2e9,1,0,0\n",
     StateCsvError, 4, "gamma entries must be finite"),
    (parse_touchstone, "# Hz S DB\n1 1e999 0\n", TouchstoneParseError, 2,
     "S parameters must be finite"),
    (parse_touchstone, "# Hz S MA\n1 1 0\n2 Infinity 0\n", TouchstoneParseError, 3,
     "S parameters must be finite"),
    (parse_touchstone, "# Hz S DB\n1 0 0\n2 0 -Infinity\n", TouchstoneParseError, 3,
     "S parameters must be finite"),
    (parse_touchstone, "# Hz S RI\n1 0 0\n2 0 inf\n", TouchstoneParseError, 3,
     "S parameters must be finite"),
    (load_sweep_csv, "freq_hz,re,im\n" + "".join(
        f"{1e9 + 1e6 * k:.12g},{'inf' if k == 5 else 0},0\n" for k in range(9)),
     SweepGridError, 7, "sweep values must be finite"),
    (load_sweep_csv, "freq_hz,re,im\n" + "".join(
        f"{1e9 + 1e6 * k:.12g},0,{'-inf' if k == 2 else 0}\n" for k in range(9)),
     SweepGridError, 4, "sweep values must be finite"),
], ids=["state_mag_inf", "state_mag_overflow", "state_phase_inf", "touchstone_db_overflow",
        "touchstone_ma_inf", "touchstone_db_phase_inf", "touchstone_ri_inf", "sweep_re_inf",
        "sweep_im_inf"])
def test_non_finite_values_name_their_line_without_warnings(read, text, error, line, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            read(text)
    assert str(exc.value) == f"line {line}: {message}"
    assert exc.value.line == line


def test_load_state_csv_names_the_negative_frequency():
    rows = [f"{f:g},{s},0,{180 * s}" for s in range(2) for f in (1e6, 2e6, 3e6)]
    rows[4] = "-2e6,1,0,180"
    with pytest.raises(StateCsvError) as exc:
        load_state_csv("# states\n" + STATE_HEADER + "\n".join(rows) + "\n")
    assert str(exc.value) == f"line 7: {NON_NEGATIVE}"
    assert exc.value.line == 7


# A finite value whose magnitude is past the float range.
OVERFLOW = 1.7e308 + 1.7e308j


def overflowing_network():
    s = np.zeros((GRID.size, 2, 2), complex)
    s[1, 1, 0] = OVERFLOW
    return PortNetwork(2, 50.0, GRID, s)


@pytest.mark.parametrize("write, named", [
    (lambda: dump_state_csv(ReflectionProfile((0, 1), GRID[:1], np.array([[1.0], [OVERFLOW]]))),
     "state 1 at 3000000000.0 Hz"),
    (lambda: serialize_touchstone(overflowing_network(), "MA"), "S21 at 3300000000.0 Hz"),
    (lambda: serialize_touchstone(overflowing_network(), "DB"), "S21 at 3300000000.0 Hz"),
], ids=["state_csv", "touchstone_ma", "touchstone_db"])
def test_writers_reject_a_magnitude_past_the_float_range(write, named):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputDataError) as exc:
            write()
    assert str(exc.value) == (
        f"{named}: the magnitude of (1.7e+308+1.7e+308j) overflows the float range"
    )


def test_touchstone_ri_writes_an_overflowing_magnitude_exactly():
    net = overflowing_network()
    assert np.array_equal(parse_touchstone(serialize_touchstone(net, "RI", "Hz")).s, net.s)


def test_sigma_functions_work_along_the_last_axis():
    rng = np.random.default_rng(3)
    phases = rng.uniform(-720.0, 720.0, size=(6, 8))
    gaps = circular_gaps(phases)
    sigma = sigma_phase(gaps)
    bits = effective_bits(sigma)
    for k in range(phases.shape[0]):
        one = sigma_phase(circular_gaps(phases[k]))
        assert isinstance(one, float) and isinstance(effective_bits(one), float)
        assert np.array_equal(gaps[k], circular_gaps(phases[k]))
        assert sigma[k] == one
        assert bits[k] == effective_bits(one)


def test_sigma_phase_names_a_bad_gap_row():
    with pytest.raises(ValueError, match="gaps must sum to 360 degrees, got 350"):
        sigma_phase([[180.0, 180.0], [170.0, 180.0]])


def one_port_switch():
    """A 1-port whose sweep ends below the top of ``GRID``."""
    return PortNetwork(1, 50.0, GRID[:3], np.zeros((3, 1, 1), complex))


@pytest.mark.parametrize("call", [
    lambda: profile_from_network(one_port_switch(), eight_state_profile()),
    lambda: synthesize_stub_lengths(one_port_switch(), LINE, 3.6e9, (3.3e9, 3.9e9)),
], ids=["profile_from_network", "synthesize_stub_lengths"])
def test_the_port_count_is_checked_before_the_sweep_range(call):
    with pytest.raises(InputDataError) as exc:
        call()
    assert type(exc.value) is InputDataError
    assert str(exc.value) == "need a 2-port network, got 1 ports"


def design_json(states):
    return ('{"line": {"width_m": 1.5e-3, "substrate_height_m": 8e-4, "epsilon_r": 4.9}, '
            f'"switch": "ideal", "states": {states}}}')


# Rules whose raise no other test reaches: (call, exception class, message).
@pytest.mark.parametrize("call, error, message", [
    (lambda: load_state_csv(STATE_HEADER), StateCsvError, "line 1: no data rows"),
    (lambda: parse_touchstone("# Hz S RI R 50\n! no records\n"), TouchstoneParseError,
     "line 1: no data records"),
    (lambda: parse_touchstone("# Hz GHz S RI\n1 0 0\n"), TouchstoneParseError,
     "line 1: duplicate frequency unit"),
    (lambda: parse_touchstone("# Hz S RI R\n1 0 0\n"), TouchstoneParseError,
     "line 1: R token without impedance value"),
    (lambda: parse_touchstone("# Hz S RI R fifty\n1 0 0\n"), TouchstoneParseError,
     "line 1: bad reference impedance 'fifty'"),
    (lambda: serialize_touchstone(thru_switch(), "XY"), ValueError,
     "unknown format 'XY' (use RI, MA or DB)"),
    (lambda: serialize_touchstone(thru_switch(), "RI", "THz"), ValueError,
     "unknown frequency unit 'THz'"),
    (lambda: ReflectionProfile((0, 1, 2), GRID, np.ones((3, GRID.size))), InputDataError,
     "state count 3 is not a power of two"),
    (lambda: one_port_switch().sigma_max(), InputDataError,
     "need a 2-port network, got 1 ports"),
    (lambda: ReflectionProfile((0, 0), GRID, np.ones((2, GRID.size))), InputDataError,
     "duplicate state labels"),
    (lambda: ReflectionProfile((1, 0), GRID, np.ones((2, GRID.size))), InputDataError,
     "states must be sorted ascending"),
    (lambda: ReflectionProfile((0, 1), GRID, np.ones((2, GRID.size - 1))), InputDataError,
     "gamma grid must be states x frequencies"),
    (lambda: ReflectionProfile((0, 1), [], np.ones((2, 0))), InputDataError,
     "need at least one frequency point"),
    (lambda: Sweep(uniform_grid_with(3.6e9), np.ones(7)), SweepGridError,
     "values and frequencies must have the same length"),
    (lambda: stub_reflection(1e-3, "grounded", 3.6e9, LINE), ValueError,
     "termination must be one of ('open', 'short')"),
    (lambda: stub_reflection(-1e-3, "open", 3.6e9, LINE), ValueError,
     "stub length must be >= 0"),
    (lambda: circular_gaps([0.0, np.nan]), ValueError, "phases must be finite"),
    (lambda: TwoPortPoint(3.6e9, complex(np.nan, 0.0), 0j, 1 + 0j, 0j), ValueError,
     "s11 must be finite"),
    (lambda: ArrayLayout(1, 1, 1, pitch_x=0.0), ValueError, "pitch must be > 0"),
    (lambda: array_factor(ArrayLayout(1, 1, 1), np.full((4, 4), 2), [1, -1], 3.6e9, 0.0),
     ValueError, "state map indices out of range"),
    (lambda: StubNetworkDesign.from_json("[]"), InputDataError,
     "design JSON: 'document' must be an object"),
    (lambda: StubNetworkDesign.from_json(design_json("[1]")), InputDataError,
     "design JSON: 'states[0]' must be an object"),
], ids=["state_csv_no_rows", "touchstone_no_records", "option_duplicate_unit",
        "option_r_without_value", "option_bad_r", "serialize_format", "serialize_unit",
        "profile_state_count", "sigma_max_1_port", "profile_duplicate_labels",
        "profile_unsorted_labels", "profile_gamma_shape", "profile_empty_grid",
        "sweep_length_mismatch", "stub_termination", "stub_negative_length", "circular_gaps_nan",
        "two_port_point_nan", "layout_pitch", "state_map_range", "design_json_document",
        "design_json_state"])
def test_each_rule_raises_its_class_and_message(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
