"""The input rules that each have one owner: frequency grids, the sweep range,
non-finite values in every reader, and sigma along the last axis."""

import warnings

import numpy as np
import pytest

from risnet import cli
from risnet.errors import (
    FrequencyRangeError,
    InputDataError,
    StateCsvError,
    SweepGridError,
    TouchstoneParseError,
)
from risnet.gating import Sweep, load_sweep_csv
from risnet.loads import MicrostripLine, synthesize_stub_lengths
from risnet.metrics import bandwidth, circular_gaps, effective_bits, sigma_phase
from risnet.network import interp_s
from risnet.touchstone import PortNetwork, ReflectionProfile, load_state_csv, parse_touchstone

NON_FINITE = [np.nan, np.inf, -np.inf]
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


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("build, error", [
    (lambda f: PortNetwork(1, 50.0, f, np.zeros((f.size, 1, 1), complex)), InputDataError),
    (lambda f: ReflectionProfile((0, 1), f, np.ones((2, f.size), complex)), InputDataError),
    (lambda f: Sweep(f, np.ones(f.size, complex)), SweepGridError),
], ids=["PortNetwork", "ReflectionProfile", "Sweep"])
def test_constructors_reject_non_finite_frequency(build, error, value):
    with pytest.raises(error, match="frequencies must be finite"):
        build(uniform_grid_with(value))


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
def test_parse_touchstone_names_the_non_finite_frequency(token):
    text = f"# Hz S RI R 50\n! c\n1 0 0\n{token} 0 0\n3 0 0\n"
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone(text)
    assert str(exc.value) == "line 4: frequencies must be finite"
    assert exc.value.line == 4


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_load_sweep_csv_names_the_non_finite_frequency(token):
    rows = [f"{1e9 + 1e6 * k:.12g},0.5,0" for k in range(10)]
    rows[6] = f"{token},0.5,0"
    with pytest.raises(SweepGridError) as exc:
        load_sweep_csv("# sweep\nfreq_hz,re,im\n" + "\n".join(rows) + "\n")
    assert str(exc.value) == "line 9: frequencies must be finite"


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
