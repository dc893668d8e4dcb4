import json

import numpy as np
import pytest

from risnet import cli
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
    assert "8 states, 5 frequencies" in capsys.readouterr().out


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
    assert "band: none" in out
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


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
