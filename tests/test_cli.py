import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risnet import cli, metrics
from risnet.gating import dump_sweep_csv, load_sweep_csv, synth_multipath
from risnet.loads import MicrostripLine, StubNetworkDesign, StubState, ideal_sp8t_design
from risnet.touchstone import PortNetwork, load_state_csv


def write_thru_s2p(path, f_lo=3.0e9, f_hi=4.2e9, n=13):
    lines = ["# Hz S RI R 50"]
    for f in np.linspace(f_lo, f_hi, n):
        lines.append(f"{f:.12g} 0 0 1 0 1 0 0 0")  # S11 S21 S12 S22
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_ideal_3bit_profile(path, freqs):
    lines = ["freq_hz,state,mag_db,phase_deg"]
    for s in range(8):
        for f in freqs:
            lines.append(f"{f:.12g},{s},0,{45.0 * s}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_parse_touchstone_text_summary(tmp_path, capsys):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["parse", s2p]) == 0
    out = capsys.readouterr().out
    assert "n_ports: 2" in out
    assert "points: 13" in out


def test_parse_touchstone_json_summary(tmp_path, capsys):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["parse", s2p, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_ports"] == 2
    assert doc["f_min_hz"] == 3.0e9


def test_parse_state_csv_summary(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["parse", csv_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "states: 8" in lines
    assert "frequencies: 5" in lines


def test_parse_malformed_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.s1p"
    bad.write_text("# Hz S RI R 50\n2 0 0\n1 0 0\n", encoding="utf-8")
    assert cli.main(["parse", str(bad)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_parse_missing_file_exits_3(tmp_path, capsys):
    assert cli.main(["parse", str(tmp_path / "nope.s2p")]) == 3


def test_parse_nan_s_parameters_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.s1p"
    bad.write_text("# Hz S RI R 50\n1e9 nan 0\n2e9 0 0\n", encoding="utf-8")
    assert cli.main(["parse", str(bad)]) == 3
    assert "S parameters must be finite" in capsys.readouterr().err


def test_profile_ideal_1bit(tmp_path):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    out = tmp_path / "profile.csv"
    assert cli.main(["profile", s2p, "--loads", "ideal-1bit", "--out", str(out)]) == 0
    profile = load_state_csv(out.read_text())
    assert profile.states == (0, 1)
    np.testing.assert_allclose(profile.gamma[0], 1.0, atol=1e-9)
    np.testing.assert_allclose(profile.gamma[1], -1.0, atol=1e-9)


def test_profile_ideal_3bit_ladder_at_center(tmp_path):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    out = tmp_path / "profile.csv"
    assert cli.main([
        "profile", s2p, "--loads", "ideal-3bit", "--out", str(out),
        "--line-width-m", "1.5e-3",
    ]) == 0
    profile = load_state_csv(out.read_text())
    assert profile.n_states == 8
    gamma = profile.at_frequency(3.6e9)
    phases = np.angle(gamma, deg=True) % 360.0
    err = (phases - np.arange(8) * 45.0 + 180.0) % 360.0 - 180.0
    assert np.max(np.abs(err)) <= 1e-6


def test_profile_band_clipping(tmp_path):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    out = tmp_path / "profile.csv"
    assert cli.main([
        "profile", s2p, "--loads", "ideal-1bit", "--out", str(out),
        "--band-low-hz", "3.3e9", "--band-high-hz", "3.8e9",
    ]) == 0
    profile = load_state_csv(out.read_text())
    assert profile.frequencies[0] >= 3.3e9
    assert profile.frequencies[-1] <= 3.8e9


def test_profile_switch_file_loads(tmp_path):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    switch = write_thru_s2p(tmp_path / "switch.s2p")
    out = tmp_path / "profile.csv"
    assert cli.main(["profile", s2p, "--loads", switch, "--out", str(out)]) == 0
    profile = load_state_csv(out.read_text())
    assert profile.n_states == 2


def test_profile_range_mismatch_exits_3(tmp_path, capsys):
    s2p = write_thru_s2p(tmp_path / "thru.s2p", 3.0e9, 4.2e9)
    switch = write_thru_s2p(tmp_path / "switch.s2p", 3.4e9, 3.7e9)
    assert cli.main(["profile", s2p, "--loads", switch]) == 3


def test_profile_unknown_loads_exits_2(tmp_path):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["profile", s2p, "--loads", "ideal-5bit"]) == 2


def test_profile_output_independent_of_design_path(tmp_path):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    text = ideal_sp8t_design(MicrostripLine(1.5e-3, 0.8e-3, 4.9), 3.6e9).to_json()
    outputs = []
    for sub in ("a", "b/c"):
        folder = tmp_path / sub
        folder.mkdir(parents=True)
        (folder / "design.json").write_text(text, encoding="utf-8")
        out = folder / "profile.csv"
        assert cli.main(["profile", s2p, "--loads", str(folder / "design.json"),
                         "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"loads=design.json\n" in outputs[0]


def test_profile_resonant_switch_exits_4(tmp_path, capsys):
    freqs = np.array([3.0e9, 4.2e9])
    s = np.zeros((2, 2, 2), complex)
    s[:, 0, 1] = s[:, 1, 0] = 0.5
    s[:, 1, 1] = -1.0
    states = tuple(
        StubState(state=i, termination="open" if i < 4 else "short",
                  length_m=0.0 if i == 5 else 5e-3)
        for i in range(8)
    )
    design = StubNetworkDesign(states=states, line=MicrostripLine(1.5e-3, 0.8e-3, 4.9),
                               switch=PortNetwork(2, 50.0, freqs, s))
    path = tmp_path / "design.json"
    path.write_text(design.to_json(), encoding="utf-8")
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["profile", s2p, "--loads", str(path)]) == 4
    err = capsys.readouterr().err
    assert "state 5 at 3000000000.0 Hz" in err
    assert "Traceback" not in err


def _drop_line(doc):
    doc["line"] = {}


def _string_length(doc):
    doc["states"][3]["length_m"] = "4e-3"


def _drop_switch(doc):
    del doc["switch"]


def _four_states(doc):
    doc["states"] = doc["states"][:4]


@pytest.mark.parametrize("mutate, named", [
    (_drop_line, "line.width_m"),
    (_string_length, "states[3].length_m"),
    (_drop_switch, "switch"),
    (_four_states, "8-state design"),
])
def test_profile_malformed_design_json_exits_3(tmp_path, capsys, mutate, named):
    doc = json.loads(ideal_sp8t_design(MicrostripLine(1.5e-3, 0.8e-3, 4.9), 3.6e9).to_json())
    mutate(doc)
    design = tmp_path / "design.json"
    design.write_text(json.dumps(doc), encoding="utf-8")
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["profile", s2p, "--loads", str(design)]) == 3
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_profile_unparsable_design_json_exits_3(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text('{"line": ', encoding="utf-8")
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["profile", s2p, "--loads", str(design)]) == 3
    assert "design JSON" in capsys.readouterr().err


def test_synth_ideal_design(tmp_path):
    out = tmp_path / "design.json"
    assert cli.main(["synth", "--line-width-m", "1.5e-3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    states = doc["states"]
    assert len(states) == 8
    assert sum(1 for st in states if st["termination"] == "open") == 4
    assert all(st["residual_deg"] <= 1.0 for st in states)
    assert doc["switch"] == "ideal"
    assert doc["f_center_hz"] == 3.6e9


def test_synth_requires_line_width(capsys):
    assert cli.main(["synth"]) == 2
    assert "line-width" in capsys.readouterr().err


def test_synth_band_outside_switch_sweep(tmp_path):
    switch = write_thru_s2p(tmp_path / "switch.s2p", 3.5e9, 3.7e9)
    assert cli.main([
        "synth", "--line-width-m", "1.5e-3", "--switch", switch,
    ]) == 3


def test_synth_design_feeds_profile(tmp_path):
    out = tmp_path / "design.json"
    assert cli.main(["synth", "--line-width-m", "1.5e-3", "--out", str(out),
                     "--band-low-hz", "3.6e9", "--band-high-hz", "3.6e9"]) == 0
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    prof_out = tmp_path / "profile.csv"
    assert cli.main(["profile", s2p, "--loads", str(out), "--out", str(prof_out)]) == 0
    profile = load_state_csv(prof_out.read_text())
    phases = np.angle(profile.at_frequency(3.6e9), deg=True) % 360.0
    err = (phases - np.arange(8) * 45.0 + 180.0) % 360.0 - 180.0
    assert np.max(np.abs(err)) <= 1e-3


def test_bandwidth_json_report(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 11))
    assert cli.main(["bandwidth", csv_path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resolution_bits"] == 3
    assert doc["threshold_deg"] == 16.25
    assert doc["band_hz"]["f_low_hz"] == 3.3e9
    np.testing.assert_allclose(doc["bandwidth_hz"], 0.5e9)


def test_bandwidth_zero_for_100_degree_profile(tmp_path, capsys):
    lines = ["freq_hz,state,mag_db,phase_deg"]
    for f in np.linspace(3.3e9, 3.8e9, 5):
        lines.append(f"{f:.12g},0,0,0")
        lines.append(f"{f:.12g},1,0,100")
    p = tmp_path / "p.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["bandwidth", str(p), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "band_hz: none" in out
    assert "bandwidth_hz: 0" in out


def test_bandwidth_nan_profile_exits_3(tmp_path, capsys):
    lines = ["freq_hz,state,mag_db,phase_deg"]
    for f in (3.3e9, 3.8e9):
        lines.append(f"{f:.12g},0,0,0")
        lines.append(f"{f:.12g},1,nan,180")
    p = tmp_path / "p.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["bandwidth", str(p)]) == 3
    assert "gamma entries must be finite" in capsys.readouterr().err


def test_bandwidth_virtual_2bit(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["bandwidth", csv_path, "--virtual-2bit"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["resolution_bits"] == 2
    assert doc["threshold_deg"] == 32.5
    np.testing.assert_allclose(doc["sigma_deg"], 90.0 / np.sqrt(12.0))


def test_bandwidth_virtual_2bit_conflicting_bits(tmp_path):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["bandwidth", csv_path, "--virtual-2bit", "--bits", "3"]) == 2


def test_bandwidth_csv_output(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["bandwidth", csv_path, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "freq_hz,sigma_deg,nbit_eff"
    assert len(lines) == 6


def test_pattern_broadside(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    out = tmp_path / "pattern.csv"
    smap = tmp_path / "map.txt"
    assert cli.main([
        "pattern", csv_path, "--tiles-x", "6", "--tiles-y", "6",
        "--out", str(out), "--state-map-out", str(smap),
    ]) == 0
    summary = capsys.readouterr().out
    assert "peak_theta_deg: 0" in summary
    assert "cells: 576" in summary
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == "theta_deg,phi_deg,af_db"
    grid = [line.split() for line in smap.read_text().splitlines()]
    assert len(grid) == 24 and len(grid[0]) == 24
    assert all(v == "0" for row in grid for v in row)


def test_pattern_power_line_1bit(tmp_path, capsys):
    lines = ["freq_hz,state,mag_db,phase_deg"]
    for f in np.linspace(3.3e9, 3.8e9, 5):
        lines.append(f"{f:.12g},0,0,0")
        lines.append(f"{f:.12g},1,0,180")
    p = tmp_path / "p.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "pattern.csv"
    assert cli.main(["pattern", str(p), "--out", str(out)]) == 0
    assert "power_mw: 7.2" in capsys.readouterr().out


def test_pattern_steered_peak_and_residual(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    out = tmp_path / "pattern.csv"
    assert cli.main([
        "pattern", csv_path, "--theta-deg", "20", "--out", str(out),
        "--format", "json",
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(float(doc["peak_theta_deg"]) - 20.0) <= 0.5
    assert float(doc["max_residual_deg"]) <= 22.5


def test_gate_all_pass_identity(tmp_path):
    freqs = np.linspace(3.0e9, 4.2e9, 401)
    sweep = synth_multipath([(2e-9, 1.0)], freqs)
    src = tmp_path / "sweep.csv"
    src.write_text(dump_sweep_csv(sweep), encoding="utf-8")
    out = tmp_path / "gated.csv"
    span = sweep.alias_free_span
    assert cli.main([
        "gate", str(src), "--t-start-s", "0", "--t-stop-s", f"{span}",
        "--edge-fraction", "0", "--out", str(out),
    ]) == 0
    gated = load_sweep_csv(out.read_text())
    n = freqs.size
    sl = slice(int(0.1 * n), int(0.9 * n))
    np.testing.assert_allclose(gated.values[sl], sweep.values[sl], atol=1e-6)
    assert "low_confidence" in out.read_text()


def test_gate_two_path_fixture_via_files(tmp_path):
    freqs = np.linspace(3.0e9, 4.2e9, 401)
    two = synth_multipath([(2e-9, 1.0), (10e-9, 0.5)], freqs)
    one = synth_multipath([(2e-9, 1.0)], freqs)
    src = tmp_path / "two.csv"
    src.write_text(dump_sweep_csv(two), encoding="utf-8")
    out = tmp_path / "gated.s1p"
    assert cli.main([
        "gate", str(src), "--t-start-s", "0", "--t-stop-s", "6e-9", "--out", str(out),
    ]) == 0
    from risnet.gating import sweep_from_network
    from risnet.touchstone import parse_touchstone

    gated = sweep_from_network(parse_touchstone(out.read_text()))
    n = freqs.size
    sl = slice(int(0.1 * n), int(0.9 * n))
    assert np.max(np.abs(gated.values[sl] - one.values[sl])) <= 0.02


def test_gate_normalize_requires_reference(tmp_path, capsys):
    freqs = np.linspace(3.0e9, 4.2e9, 401)
    src = tmp_path / "sweep.csv"
    src.write_text(dump_sweep_csv(synth_multipath([(2e-9, 1.0)], freqs)), encoding="utf-8")
    assert cli.main([
        "gate", str(src), "--t-start-s", "0", "--t-stop-s", "6e-9", "--normalize",
    ]) == 2
    assert "--reference" in capsys.readouterr().err


def test_gate_normalize_with_reference(tmp_path):
    freqs = np.linspace(3.0e9, 4.2e9, 401)
    dut = synth_multipath([(2e-9, 0.4)], freqs)
    ref = synth_multipath([(2e-9, 0.8)], freqs)
    dut_p = tmp_path / "dut.csv"
    ref_p = tmp_path / "ref.csv"
    dut_p.write_text(dump_sweep_csv(dut), encoding="utf-8")
    ref_p.write_text(dump_sweep_csv(ref), encoding="utf-8")
    out = tmp_path / "norm.csv"
    assert cli.main([
        "gate", str(dut_p), "--t-start-s", "0", "--t-stop-s", "6e-9",
        "--normalize", "--reference", str(ref_p), "--out", str(out),
    ]) == 0
    result = load_sweep_csv(out.read_text())
    n = freqs.size
    sl = slice(int(0.1 * n), int(0.9 * n))
    np.testing.assert_allclose(np.abs(result.values[sl]), 0.5, atol=0.01)


@pytest.mark.parametrize("beta", ["nan", "inf", "-1", "1e3"])
def test_gate_nonphysical_kaiser_beta_exits_2(tmp_path, capsys, beta):
    src = tmp_path / "sweep.csv"
    freqs = np.linspace(3.0e9, 4.2e9, 64)
    src.write_text(dump_sweep_csv(synth_multipath([(2e-9, 1.0)], freqs)), encoding="utf-8")
    argv = ["gate", str(src), "--t-start-s", "0", "--t-stop-s", "6e-9", f"--kaiser-beta={beta}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Kaiser beta" in err and "Traceback" not in err


def test_gate_span_error_exits_4(tmp_path):
    freqs = np.linspace(3.0e9, 4.2e9, 401)
    src = tmp_path / "sweep.csv"
    src.write_text(dump_sweep_csv(synth_multipath([(2e-9, 1.0)], freqs)), encoding="utf-8")
    assert cli.main([
        "gate", str(src), "--t-start-s", "400e-9", "--t-stop-s", "500e-9",
    ]) == 4


def test_outputs_deterministic(tmp_path):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["bandwidth", csv_path, "--out", str(out1)]) == 0
    assert cli.main(["bandwidth", csv_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    d1 = tmp_path / "d1.json"
    d2 = tmp_path / "d2.json"
    assert cli.main(["synth", "--line-width-m", "1.5e-3", "--out", str(d1)]) == 0
    assert cli.main(["synth", "--line-width-m", "1.5e-3", "--out", str(d2)]) == 0
    assert d1.read_bytes() == d2.read_bytes()


def test_stamp_flag_adds_timestamp(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["bandwidth", csv_path]) == 0
    assert "generated" not in json.loads(capsys.readouterr().out)
    assert cli.main(["bandwidth", csv_path, "--stamp"]) == 0
    assert "generated" in json.loads(capsys.readouterr().out)


class FrozenClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)


def test_bandwidth_csv_stamp(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "datetime", FrozenClock)
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["bandwidth", csv_path, "--format", "csv"]) == 0
    plain = capsys.readouterr().out
    report = metrics.bandwidth(load_state_csv((tmp_path / "p.csv").read_text()), 3, 3.6e9)
    assert plain == report.to_csv()
    assert cli.main(["bandwidth", csv_path, "--format", "csv", "--stamp"]) == 0
    assert capsys.readouterr().out == "# generated 2026-01-02T03:04:05+00:00\n" + plain


def write_100_degree_profile(path):
    lines = ["freq_hz,state,mag_db,phase_deg"]
    for f in np.linspace(3.3e9, 3.8e9, 5):
        lines += [f"{f:.12g},0,0,0", f"{f:.12g},1,0,100"]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def ladder(tmp_path):
    return write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))


# argv of each summary, without --format; pattern prints its summary when --out is given.
SUMMARY_CASES = {
    "parse_s2p": lambda d: ["parse", write_thru_s2p(d / "thru.s2p")],
    "parse_state_csv": lambda d: ["parse", ladder(d)],
    "bandwidth_band": lambda d: ["bandwidth", ladder(d)],
    "bandwidth_no_band": lambda d: ["bandwidth", write_100_degree_profile(d / "p100.csv")],
    "bandwidth_virtual_2bit": lambda d: ["bandwidth", ladder(d), "--virtual-2bit"],
    "bandwidth_stamp": lambda d: ["bandwidth", ladder(d), "--stamp"],
    "pattern": lambda d: ["pattern", ladder(d), "--theta-deg", "20",
                          "--out", str(d / "pattern.csv")],
}


def scalar_members(doc, prefix=""):
    """(dotted key, value) of every non-list member of a JSON object, objects flattened."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from scalar_members(value, f"{prefix}{key}.")
        elif not isinstance(value, list):
            yield prefix + key, value


def summary_text(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("case", SUMMARY_CASES)
def test_text_summary_lists_the_json_scalars(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "datetime", FrozenClock)
    argv = SUMMARY_CASES[case](tmp_path)
    assert cli.main(argv + ["--format", "json"]) == 0
    members = list(scalar_members(json.loads(capsys.readouterr().out)))
    assert cli.main(argv + ["--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{key}: {summary_text(value)}" for key, value in members]
    assert not [key for key, value in members if isinstance(value, str) and is_number(value)]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


FOREIGN_BASE = {
    "parse": ["parse", "x.s2p"],
    "profile": ["profile", "x.s2p", "--loads", "ideal-1bit"],
    "synth": ["synth", "--line-width-m", "1.5e-3"],
    "bandwidth": ["bandwidth", "p.csv"],
    "pattern": ["pattern", "p.csv"],
    "gate": ["gate", "s.csv", "--t-start-s", "0", "--t-stop-s", "1e-9"],
}


@pytest.mark.parametrize("sub, extra", [
    ("parse", ["--band-low-hz", "3.3e9"]),
    ("parse", ["--band-high-hz", "3.8e9"]),
    ("parse", ["--f-center-hz", "3.6e9"]),
    ("parse", ["--bits", "3"]),
    ("parse", ["--stamp"]),
    ("parse", ["--format", "csv"]),
    ("profile", ["--bits", "3"]),
    ("profile", ["--format", "json"]),
    ("synth", ["--bits", "3"]),
    ("synth", ["--format", "json"]),
    ("synth", ["--stamp"]),
    ("bandwidth", ["--band-low-hz", "3.3e9"]),
    ("bandwidth", ["--band-high-hz", "3.8e9"]),
    ("pattern", ["--band-low-hz", "3.3e9"]),
    ("pattern", ["--band-high-hz", "3.8e9"]),
    ("pattern", ["--format", "csv"]),
    ("gate", ["--band-low-hz", "3.3e9"]),
    ("gate", ["--band-high-hz", "3.8e9"]),
    ("gate", ["--f-center-hz", "3.6e9"]),
    ("gate", ["--bits", "3"]),
    ("gate", ["--format", "csv"]),
])
def test_foreign_flag_exits_2(tmp_path, monkeypatch, capsys, sub, extra):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(FOREIGN_BASE[sub] + extra)
    assert exc.value.code == 2
    assert extra[-1] in capsys.readouterr().err


def test_profile_ideal_3bit_requires_line_width(tmp_path, capsys):
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    assert cli.main(["profile", s2p, "--loads", "ideal-3bit"]) == 2
    err = capsys.readouterr().err
    assert "--loads ideal-3bit requires --line-width-m" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("theta_flags, named", [
    (["--theta-step-deg", "0"], "--theta-step-deg"),
    (["--theta-step-deg", "-1"], "--theta-step-deg"),
    (["--theta-step-deg", "nan"], "--theta-step-deg"),
    (["--theta-start-deg", "10", "--theta-stop-deg", "0"], "--theta-stop-deg"),
    (["--theta-step-deg", "inf"], "--theta-step-deg"),
])
def test_pattern_bad_theta_grid_exits_2(tmp_path, capsys, theta_flags, named):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    assert cli.main(["pattern", csv_path, "--tiles-x", "1", "--tiles-y", "1", *theta_flags]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, named", [
    ("--phi-az-deg=nan", "phi_az_deg"),
    ("--phi-az-deg=-inf", "phi_az_deg"),
    ("--element-exponent=nan", "element_exponent"),
    ("--element-exponent=inf", "element_exponent"),
    ("--element-exponent=-1", "element_exponent"),
])
def test_pattern_nonphysical_flags_exit_2(tmp_path, capsys, flag, named):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    out = tmp_path / "pattern.csv"
    argv = ["pattern", csv_path, "--tiles-x", "1", "--tiles-y", "1", "--out", str(out), flag]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("sub", ["profile", "synth", "bandwidth", "pattern"])
def test_non_finite_f_center_exits_2(tmp_path, capsys, sub, value):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    s2p = write_thru_s2p(tmp_path / "thru.s2p")
    argv = {
        "profile": ["profile", s2p, "--loads", "ideal-1bit"],
        "synth": ["synth", "--line-width-m", "1.5e-3"],
        "bandwidth": ["bandwidth", csv_path],
        "pattern": ["pattern", csv_path, "--tiles-x", "1", "--tiles-y", "1"],
    }[sub]
    assert cli.main([*argv, f"--f-center-hz={value}"]) == 2
    err = capsys.readouterr().err
    assert f"--f-center-hz must be finite, got {float(value)}" in err
    assert "Traceback" not in err


def test_pattern_cut_behind_the_surface_reads_the_floor(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    out = tmp_path / "pattern.csv"
    assert cli.main(["pattern", csv_path, "--tiles-x", "1", "--tiles-y", "1", "--out", str(out),
                     "--theta-stop-deg", "120", "--element-exponent", "0.5"]) == 0
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 421
    theta = np.array([float(r[0]) for r in rows])
    af_db = np.array([float(r[2]) for r in rows])
    assert np.all(np.isfinite(af_db))
    assert np.all(af_db[theta > 90] == -6000.0) and np.all(af_db[theta <= 90] > -6000.0)


@pytest.mark.parametrize("argv, named", [
    # Each value would allocate gigabytes: 1.8e9 angles, 4e6 x 24 cells
    # (x 8 states in the codebook), or a 64 x 1e9 coarse synthesis scan.
    (["pattern", "p.csv", "--theta-step-deg", "1e-7"], "--theta-step-deg"),
    (["pattern", "p.csv", "--theta-start-deg=-1e12"], "--theta-start-deg"),
    (["pattern", "p.csv", "--tiles-x", "1000000"], "--tiles-x"),
    (["pattern", "p.csv", "--tiles-y", "1000000"], "--tiles-y"),
    (["synth", "--line-width-m", "1.5e-3", "--n-band-points", "1000000000"], "--n-band-points"),
])
def test_grid_caps_exit_2_before_allocating(monkeypatch, capsys, argv, named):
    def reached(*args, **kwargs):
        raise AssertionError("a grid was allocated before its flags were checked")

    # Nothing may be read, built or allocated before the caps are checked.
    monkeypatch.setattr(cli, "_read_text", reached)
    monkeypatch.setattr(cli.arr, "build_array", reached)
    monkeypatch.setattr(cli.loads, "synthesize_stub_lengths", reached)
    monkeypatch.setattr(np, "arange", reached)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert named in err and "limit" in err


def test_grid_caps_admit_the_limits(tmp_path, capsys):
    csv_path = write_ideal_3bit_profile(tmp_path / "p.csv", np.linspace(3.3e9, 3.8e9, 5))
    out = tmp_path / "pattern.csv"
    argv = ["pattern", csv_path, "--tiles-x", str(cli.MAX_TILES), "--out", str(out)]
    assert cli.main(argv) == 0
    assert f"tiles: {cli.MAX_TILES}x6" in capsys.readouterr().out
    step = 180.0 / (cli.MAX_THETA_POINTS - 1)
    argv = ["pattern", csv_path, "--tiles-x", "1", "--tiles-y", "1",
            "--theta-step-deg", repr(step), "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 1 + cli.MAX_THETA_POINTS


@pytest.mark.parametrize("band, points, code", [
    ([], "0", 2),
    ([], "1", 2),
    (["--band-low-hz", "3.6e9", "--band-high-hz", "3.6e9"], "1", 0),
])
def test_synth_band_points(tmp_path, capsys, band, points, code):
    out = tmp_path / "design.json"
    argv = ["synth", "--line-width-m", "1.5e-3", "--n-band-points", points, "--out", str(out)]
    assert cli.main(argv + band) == code
    if code:
        assert "n_band_points >= 2" in capsys.readouterr().err
    else:
        assert len(json.loads(out.read_text())["states"]) == 8


@pytest.mark.parametrize("line_flag", ["--line-width-m=inf", "--substrate-height-m=1e-300"])
def test_synth_nonphysical_line_exits_2(tmp_path, capsys, line_flag):
    out = tmp_path / "design.json"
    assert cli.main(["synth", "--line-width-m", "1.5e-3", line_flag, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not out.exists()


BINARY = b"\x89PNG\r\n\x1a\n\x00\xff"


@pytest.mark.parametrize("argv", [
    ["parse", "{f}"],
    ["bandwidth", "{f}"],
    ["profile", "{f}", "--loads", "ideal-1bit"],
])
def test_binary_input_exits_3(tmp_path, capsys, argv):
    path = tmp_path / "binary.s2p"
    path.write_bytes(BINARY)
    assert cli.main([a.format(f=path) for a in argv]) == 3
    assert "Traceback" not in capsys.readouterr().err


def write_even_profile(path, n):
    """A profile of ``n`` states spread evenly in phase on the 3.3-3.8 GHz grid."""
    lines = ["freq_hz,state,mag_db,phase_deg"]
    lines += [f"{f:.12g},{s},0,{360.0 * s / n:.12g}"
              for s in range(n) for f in np.linspace(3.3e9, 3.8e9, 5)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Checks the library owns: the CLI reports each with the library's message and exit code.
@pytest.mark.parametrize("argv, code, message", [
    (["bandwidth", "8.csv", "--bits", "2"], 2,
     "profile has 8 states, expected 4 for 2-bit resolution"),
    (["bandwidth", "1.csv"], 2, "unsupported resolution 0 (expected 1, 2 or 3)"),
    (["bandwidth", "16.csv"], 2, "unsupported resolution 4 (expected 1, 2 or 3)"),
    (["bandwidth", "8.csv", "--virtual-2bit", "--bits", "3"], 2,
     "profile has 4 states, expected 8 for 3-bit resolution"),
    (["pattern", "1.csv"], 2, "resolution_bits must be 1 or 3"),
    (["pattern", "4.csv"], 2, "resolution_bits must be 1 or 3"),
    (["pattern", "16.csv"], 2, "resolution_bits must be 1 or 3"),
    (["pattern", "8.csv", "--bits", "1"], 2, "8 states do not match 1-bit resolution"),
    (["pattern", "2.csv", "--bits", "3"], 2, "2 states do not match 3-bit resolution"),
    (["profile", "cell.s1p", "--loads", "ideal-1bit"], 3, "need a 2-port network, got 1 ports"),
], ids=["bandwidth-bits-2-on-8", "bandwidth-1-state", "bandwidth-16-states",
        "bandwidth-virtual-2bit-bits-3", "pattern-1-state", "pattern-4-states",
        "pattern-16-states", "pattern-bits-1-on-8", "pattern-bits-3-on-2", "profile-1-port-cell"])
def test_library_checks_exit_with_their_message(tmp_path, monkeypatch, capsys, argv, code,
                                                message):
    for n in (1, 2, 4, 8, 16):
        write_even_profile(tmp_path / f"{n}.csv", n)
    (tmp_path / "cell.s1p").write_text("# Hz S RI R 50\n3e9 0.5 0\n4e9 0.5 0\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_virtual_2bit_on_states_labelled_from_1_exits_3(tmp_path, capsys):
    path = tmp_path / "p.csv"
    rows = [f"{f:.12g},{s + 1},0,{45.0 * s:.12g}"
            for s in range(8) for f in np.linspace(3.3e9, 3.8e9, 5)]
    path.write_text("freq_hz,state,mag_db,phase_deg\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert cli.main(["bandwidth", str(path), "--virtual-2bit"]) == 3
    assert capsys.readouterr().err == "error: unknown state index 0\n"


def test_pattern_summary_goes_to_stderr_when_the_csv_goes_to_stdout(tmp_path, capsys):
    csv_path = ladder(tmp_path)
    out = tmp_path / "pattern.csv"
    assert cli.main(["pattern", csv_path, "--format", "json", "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert cli.main(["pattern", csv_path, "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text(encoding="utf-8")
    rows = [r.split(",") for r in captured.out.splitlines()]
    assert rows[0] == ["theta_deg", "phi_deg", "af_db"] and len(rows) == 362
    assert all(len(r) == 3 and all(is_number(v) for v in r) for r in rows[1:])
    assert json.loads(captured.err) == summary


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Tiny inputs of every kind the CLI reads, plus wrong kinds and missing paths."""
    d = tmp_path_factory.mktemp("fuzz")
    freqs = np.linspace(3.3e9, 3.8e9, 5)
    sweep = synth_multipath([(2e-9, 1.0), (10e-9, 0.5)], np.linspace(3.0e9, 4.2e9, 16))
    design = ideal_sp8t_design(MicrostripLine(1.5e-3, 0.8e-3, 4.9), 3.6e9).to_json()
    texts = {
        "sweep.csv": dump_sweep_csv(sweep),
        "design.json": design,
        "bad.json": '{"line": ',
        "one.s1p": "# Hz S RI R 50\n3.0e9 0.5 0\n4.2e9 0.5 0\n",
        "empty.csv": "",
    }
    for name, text in texts.items():
        (d / name).write_text(text, encoding="utf-8")
    (d / "binary.s2p").write_bytes(BINARY)
    write_thru_s2p(d / "thru.s2p")
    write_ideal_3bit_profile(d / "p3.csv", freqs)
    two = ["freq_hz,state,mag_db,phase_deg"]
    two += [f"{f:.12g},{s},0,{180 * s}" for f in freqs for s in (0, 1)]
    (d / "p1.csv").write_text("\n".join(two) + "\n", encoding="utf-8")
    return d


FUZZ_WRONG = ["thru.s2p", "one.s1p", "p3.csv", "sweep.csv", "design.json", "bad.json",
              "empty.csv", "binary.s2p", "missing.s2p", "."]
FUZZ_REALS = ["0", "-1", "nan", "inf", "-inf", "1e-300"]
FUZZ_HZ = ["3.3e9", "3.6e9", "3.8e9", *FUZZ_REALS]
FUZZ_OUT = ["out.txt", "out.json", "out.s1p", "nodir/out.csv", "."]
FUZZ_LINE = {
    "--substrate-height-m": ["0.8e-3", *FUZZ_REALS],
    "--epsilon-r": ["4.9", "1", *FUZZ_REALS],
    "--loss-db-per-m": ["5", *FUZZ_REALS],
    "--loss-ref-hz": FUZZ_HZ,
}
FUZZ_WIDTH = {"--line-width-m": ["1.5e-3", *FUZZ_REALS]}
FUZZ_BAND = {"--band-low-hz": FUZZ_HZ, "--band-high-hz": FUZZ_HZ, "--f-center-hz": FUZZ_HZ}
# Per subcommand: positional files of the right kind, flags that every argv
# carries, and flags drawn at will; a value list of None marks a switch. Half
# the positionals come from FUZZ_WRONG instead, and values are passed as
# --flag=value so that argparse reads "-inf" as a value.
# Grid sizes and steps come only from small sets so that no example allocates
# a large theta grid, wall or band grid.
FUZZ_ARGS = {
    "parse": (["thru.s2p", "p3.csv", "one.s1p"], {},
              {"--format": ["json", "text"], "--out": FUZZ_OUT}),
    "profile": (["thru.s2p"], {
        "--loads": ["ideal-1bit", "ideal-3bit", "design.json", "thru.s2p", "ideal-5bit",
                    "bad.json", "one.s1p", "p3.csv", "missing.json"],
    }, {**FUZZ_BAND, **FUZZ_WIDTH, **FUZZ_LINE, "--out": FUZZ_OUT, "--stamp": None}),
    "synth": ([], FUZZ_WIDTH, {
        "--switch": ["ideal", "thru.s2p", "one.s1p", "p3.csv", "binary.s2p", "missing.s2p"],
        "--n-band-points": ["-1", "0", "1", "2", "5"],
        **FUZZ_BAND, **FUZZ_LINE, "--out": FUZZ_OUT,
    }),
    "bandwidth": (["p3.csv", "p1.csv"], {}, {
        "--virtual-2bit": None, "--bits": ["1", "2", "3"], "--f-center-hz": FUZZ_HZ,
        "--format": ["json", "csv", "text"], "--out": FUZZ_OUT, "--stamp": None,
    }),
    "pattern": (["p3.csv", "p1.csv"], {}, {
        "--tiles-x": ["-1", "0", "1", "2"], "--tiles-y": ["-1", "0", "1", "2"],
        "--theta-deg": ["0", "30", "90", *FUZZ_REALS], "--phi-az-deg": ["0", "45", *FUZZ_REALS],
        "--theta-start-deg": ["-90", "0", "90", "nan", "-inf"],
        "--theta-stop-deg": ["-90", "0", "90", "nan", "inf"],
        "--theta-step-deg": ["-1", "0", "0.5", "30", "nan", "inf"],
        "--element-exponent": ["0", "1", *FUZZ_REALS],
        "--state-map-out": ["map.json", "map.txt", "nodir/map.txt", "."],
        "--bits": ["1", "2", "3"], "--f-center-hz": FUZZ_HZ,
        "--format": ["json", "text"], "--out": FUZZ_OUT, "--stamp": None,
    }),
    "gate": (["sweep.csv"], {
        "--t-start-s": ["0", "1e-9", "1", *FUZZ_REALS],
        "--t-stop-s": ["6e-9", "1e-6", *FUZZ_REALS],
    }, {
        "--edge-fraction": ["0", "0.25", "1", "2", *FUZZ_REALS],
        "--kaiser-beta": ["0", "6", *FUZZ_REALS],
        "--normalize": None,
        "--reference": ["sweep.csv", "thru.s2p", "one.s1p", "p3.csv", "missing.csv"],
        "--out": FUZZ_OUT, "--stamp": None,
    }),
}


@st.composite
def fuzz_argv(draw, sub):
    files, required, optional = FUZZ_ARGS[sub]
    argv = [sub]
    if files:
        argv.append(draw(st.sampled_from(files) | st.sampled_from(FUZZ_WRONG)))
    chosen = draw(st.lists(st.sampled_from(sorted(optional)), unique=True, max_size=6))
    for flag in [*required, *chosen]:
        values = required.get(flag, optional.get(flag))
        argv.append(flag if values is None else f"{flag}={draw(st.sampled_from(values))}")
    return argv


@pytest.mark.parametrize("sub", sorted(FUZZ_ARGS))
def test_cli_fuzz_exit_codes(fuzz_files, monkeypatch, sub):
    """Every drawn argv exits 0, 2, 3 or 4; any other exception fails the test."""
    monkeypatch.chdir(fuzz_files)

    @settings(deadline=None, max_examples=100, database=None)
    @given(fuzz_argv(sub))
    def run(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as e:
                code = e.code
        assert code in (0, 2, 3, 4), argv

    run()


def write_sweep_csv(path, value, n=64):
    rows = [f"{f:.12g},{value.real:.12g},{value.imag:.12g}" for f in np.linspace(3.0e9, 4.2e9, n)]
    path.write_text("freq_hz,re,im\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_uniform_profile(path, mag_db):
    rows = [f"{f:.12g},{s},{mag_db},{45.0 * s}"
            for s in range(8) for f in np.linspace(3.3e9, 3.8e9, 5)]
    path.write_text("freq_hz,state,mag_db,phase_deg\n" + "\n".join(rows) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def fault_files(tmp_path_factory):
    """Finite inputs whose results overflow, or vanish, somewhere in the pipeline."""
    d = tmp_path_factory.mktemp("faults")
    rows = [f"{f:.12g} 0 0 1e200 0 1e200 0 0 0" for f in np.linspace(3.0e9, 4.2e9, 13)]
    (d / "huge_s21.s2p").write_text("# Hz S RI R 50\n" + "\n".join(rows) + "\n", encoding="utf-8")
    for z in ("nan", "inf", "1e400"):
        (d / f"z_{z}.s1p").write_text(f"# Hz S RI R {z}\n3e9 0.5 0\n4e9 0.5 0\n", encoding="utf-8")
    write_uniform_profile(d / "huge_gamma.csv", 6160)  # |gamma| = 1e308
    write_uniform_profile(d / "zero_gamma.csv", -7000)  # |gamma| = 1e-350, read as 0
    write_ideal_3bit_profile(d / "ladder.csv", np.linspace(3.3e9, 3.8e9, 5))
    write_sweep_csv(d / "huge.csv", 1e307 + 1e307j)
    write_sweep_csv(d / "big.csv", 1e305)
    write_sweep_csv(d / "small.csv", 1e-5)
    doc = json.loads(ideal_sp8t_design(MicrostripLine(1.5e-3, 0.8e-3, 4.9), 3.6e9).to_json())
    doc["states"][3]["length_m"] = float("inf")
    (d / "inf_stub.json").write_text(json.dumps(doc), encoding="utf-8")  # writes Infinity
    write_thru_s2p(d / "thru.s2p")
    return d


GATE_FLAGS = ["--t-start-s", "0", "--t-stop-s", "6e-9"]


# Each fault is reported once, by the stage that meets it, with no numpy warning.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, message", [
    (["synth", "--line-width-m", "1.5e-3", "--switch", "huge_s21.s2p"], 3,
     "cascade result for state 0 at 3300000000.0 Hz is past the float range"),
    (["profile", "huge_s21.s2p", "--loads", "ideal-1bit"], 3,
     "cascade result for state 0 at 3000000000.0 Hz is past the float range"),
    (["synth", "--line-width-m", "1.5e-3", "--loss-db-per-m", "1e308"], 3,
     "the line loss of 1e+308 dB/m overflows the stub model"),
    (["synth", "--line-width-m", "1.5e-3", "--loss-db-per-m", "1", "--loss-ref-hz", "1e-300"], 3,
     "the loss reference frequency of 1e-300 Hz overflows the stub model"),
    (["synth", "--line-width-m", "1.5e-3", "--band-high-hz", "inf"], 2,
     "band [3300000000.0, inf] Hz is too wide to weight"),
    (["profile", "thru.s2p", "--loads", "inf_stub.json"], 3,
     "design JSON: stub length must be finite and >= 0"),
    (["pattern", "huge_gamma.csv"], 3,
     "array factor at theta -90 deg, phi 0 deg is past the float range"),
    (["pattern", "zero_gamma.csv"], 4,
     "the array factor is 0 on the whole cut; no peak to normalize to"),
    (["pattern", "ladder.csv", "--element-exponent", "1e6", "--theta-start-deg", "10"], 4,
     "the array factor is 0 on the whole cut; no peak to normalize to"),
    (["gate", "huge.csv", *GATE_FLAGS], 3,
     "gated value at 3000000000.0 Hz is past the float range"),
    (["gate", "big.csv", *GATE_FLAGS, "--normalize", "--reference", "small.csv"], 3,
     "normalized value at 3000000000.0 Hz is past the float range"),
    (["parse", "z_nan.s1p", "--format", "json"], 3,
     "line 1: reference impedance 'nan' is not finite"),
    (["parse", "z_inf.s1p", "--format", "json"], 3,
     "line 1: reference impedance 'inf' is not finite"),
    (["parse", "z_1e400.s1p", "--format", "json"], 3,
     "line 1: reference impedance '1e400' is not finite"),
], ids=["synth-switch-overflow", "profile-unit-cell-overflow", "synth-loss-overflow",
        "synth-loss-ref-overflow", "synth-infinite-band", "profile-infinite-stub", "pattern-sum-overflow",
        "pattern-zero-gammas", "pattern-zero-element-factor", "gate-overflow",
        "gate-normalize-overflow", "parse-z0-nan", "parse-z0-inf", "parse-z0-1e400"])
def test_each_fault_exits_with_one_line(fault_files, monkeypatch, capsys, argv, code, message):
    monkeypatch.chdir(fault_files)
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "nan" not in captured.out.lower()


# A lossless line has no loss term, so no loss reference frequency can overflow it.
@pytest.mark.filterwarnings("error")
def test_lossless_synth_ignores_an_extreme_loss_reference(tmp_path, capsys):
    designs = []
    for extra in ([], ["--loss-ref-hz", "1e-300"]):
        out = tmp_path / "design.json"
        assert cli.main(["synth", "--line-width-m", "1.5e-3", "--out", str(out), *extra]) == 0
        designs.append(json.loads(out.read_text())["states"])
    assert capsys.readouterr().err == ""
    assert designs[0] == designs[1]
