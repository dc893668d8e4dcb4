import numpy as np
import pytest

from risnet import gating, touchstone
from risnet.errors import InputDataError, StateCsvError, TouchstoneParseError
from risnet.touchstone import (
    PortNetwork,
    ReflectionProfile,
    dump_state_csv,
    load_state_csv,
    parse_touchstone,
    serialize_touchstone,
)


def make_two_port(freqs, entries):
    s = np.array(entries, dtype=complex).reshape(len(freqs), 2, 2)
    return PortNetwork(n_ports=2, reference_impedance=50.0, frequencies=np.asarray(freqs), s=s)


NOISY_S2P = (
    "# GHz S MA R 50\n"
    "3.0 0.1 10 0.9 -20 0.9 -20 0.2 30\n"
    "3.5 0.1 11 0.9 -21 0.9 -21 0.2 31\n"
    "! noise parameters: freq, NFmin dB, |Gamma_opt|, angle, Rn/Z0\n"
    "3.0 1.5 0.30 45 0.20\n"
    "3.5 1.6 0.31 46 0.21 ! inline\n"
)


def test_parse_ma_one_port():
    net = parse_touchstone("# GHz S MA R 50\n3.6 1.0 180.0\n")
    assert net.n_ports == 1
    assert net.reference_impedance == 50.0
    np.testing.assert_allclose(net.frequencies, [3.6e9])
    np.testing.assert_allclose(net.s[0, 0, 0], -1.0 + 0.0j, atol=1e-12)


def test_parse_ri_zero():
    net = parse_touchstone("# Hz S RI R 50\n1 0 0\n")
    assert net.frequencies[0] == 1.0
    assert net.s[0, 0, 0] == 0.0 + 0.0j


def test_parse_db_half_j():
    net = parse_touchstone("# GHz S DB R 50\n3.6 -6.0205999 90.0\n")
    # oracle: 10^(-6.0205999/20) = 0.5, rotated to the positive imaginary axis
    np.testing.assert_allclose(net.s[0, 0, 0], 0.5j, atol=1e-8)


def test_option_line_defaults():
    net = parse_touchstone("#\n2.0 0.5 0.0\n")
    assert net.reference_impedance == 50.0
    np.testing.assert_allclose(net.frequencies, [2.0e9])  # GHz default
    np.testing.assert_allclose(net.s[0, 0, 0], 0.5 + 0j)  # MA default


def test_parse_two_port_column_order():
    text = "# Hz S RI R 50\n1 0.11 0 0.21 0 0.12 0 0.22 0\n"
    net = parse_touchstone(text)
    assert net.n_ports == 2
    np.testing.assert_allclose(net.s[0], [[0.11, 0.12], [0.21, 0.22]])


def test_parse_comments_and_inline_comments():
    text = "! header comment\n# Hz S RI R 50\n1 1 0 ! inline\n2 0 1\n"
    net = parse_touchstone(text)
    np.testing.assert_allclose(net.s[:, 0, 0], [1.0, 1.0j])


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("# Hz S RI R 50\n# Hz S RI R 50\n1 0 0\n", "duplicate option line", 2),
        ("1 0 0\n", "data before option line", 1),
        ("# Hz S RI R 50\n2 0 0\n1 0 0\n", "strictly increasing", 3),
        ("# Hz S RI R 50\n1 0 0 5\n", "expected 3", 2),
        ("# Hz S RI R 50\n1 0 0\n2 0 0 0 0\n", "expected 3 values", 3),
        ("# Hz S QQ R 50\n1 0 0\n", "unknown option token", 1),
        ("# Hz Y RI R 50\n1 0 0\n", "only S-parameters", 1),
        ("[Version] 2.0\n# Hz S RI R 50\n1 0 0\n", "v2 keyword", 1),
        ("# Hz S RI R 50\n1 zz 0\n", "non-numeric", 2),
        ("# Hz S RI R -50\n1 0 0\n", "impedance", 1),
        ("! c\n# Hz S RI R nan\n1 0 0\n", "reference impedance 'nan' is not finite", 2),
        ("# Hz S RI R inf\n1 0 0\n", "reference impedance 'inf' is not finite", 1),
        ("# Hz S RI R 1e400\n1 0 0\n", "reference impedance '1e400' is not finite", 1),
        ("#\n1 0 0\n1.8e299 0 0\n", "frequencies must be finite", 3),  # 1.8e308 Hz in GHz
        # a noise-parameter record must hold 5 values, and S-data may not follow
        (NOISY_S2P.replace("3.5 1.6 0.31 46 0.21", "3.5 1.6 0.31 46"),
         "expected 5 values per noise-parameter record, got 4", 6),
        (NOISY_S2P + "4.0 0.1 11 0.9 -21 0.9 -21 0.2 31\n",
         "expected 5 values per noise-parameter record, got 9", 7),
        # a 5-value record above the last S frequency starts no noise block
        (NOISY_S2P.replace("3.0 1.5", "4.0 1.5"), "expected 9 values per record, got 5", 5),
        # a 1-port file has no noise block
        ("# GHz S RI R 50\n3.0 0.1 0.2\n2.0 1 2 3 4\n", "expected 3 values per record, got 5", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment, line):
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line
    assert f"line {line}" in str(exc.value)


def test_missing_option_line():
    with pytest.raises(TouchstoneParseError, match="missing option line"):
        parse_touchstone("! only comments\n")


def test_serialize_ma_trivial():
    net = parse_touchstone("# GHz S MA R 50\n3.6 1 180\n")
    text = serialize_touchstone(net, "MA", "GHz")
    assert "3.6 1 180" in text


def test_serialize_db_half():
    net = parse_touchstone("# Hz S RI R 50\n1 0 0.5\n")
    text = serialize_touchstone(net, "DB", "Hz")
    # 20*log10(0.5) = -6.0206
    assert "-6.0205999" in text


@pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
@pytest.mark.parametrize("unit", ["Hz", "kHz", "MHz", "GHz"])
def test_roundtrip_two_port(fmt, unit):
    rng = np.random.default_rng(7)
    freqs = np.array([3.3e9, 3.6e9, 3.8e9])
    entries = rng.normal(size=(3, 8)) @ np.kron(np.eye(4), [[1], [1j]])
    net = make_two_port(freqs, entries)
    back = parse_touchstone(serialize_touchstone(net, fmt, unit))
    assert back.n_ports == 2
    np.testing.assert_allclose(back.frequencies, net.frequencies, rtol=1e-9)
    np.testing.assert_allclose(back.s, net.s, rtol=1e-9, atol=1e-12)


def test_formats_mutually_consistent():
    rng = np.random.default_rng(11)
    freqs = np.array([1e9, 2e9])
    entries = rng.normal(size=(2, 8)) @ np.kron(np.eye(4), [[1], [1j]])
    net = make_two_port(freqs, entries)
    nets = [
        parse_touchstone(serialize_touchstone(net, fmt, "MHz")) for fmt in ("RI", "MA", "DB")
    ]
    for other in nets[1:]:
        np.testing.assert_allclose(other.s, nets[0].s, rtol=1e-9, atol=1e-12)


def test_roundtrip_zero_entry_db():
    net = parse_touchstone("# Hz S RI R 50\n1 0 0\n2 1 0\n")
    back = parse_touchstone(serialize_touchstone(net, "DB", "Hz"))
    np.testing.assert_allclose(back.s, net.s, rtol=1e-9, atol=1e-12)


def test_port_network_invariants():
    with pytest.raises(ValueError, match="strictly increasing"):
        PortNetwork(1, 50.0, np.array([2.0, 1.0]), np.zeros((2, 1, 1), complex))
    with pytest.raises(ValueError, match="impedance"):
        PortNetwork(1, 0.0, np.array([1.0]), np.zeros((1, 1, 1), complex))
    for z0 in (np.nan, np.inf):
        with pytest.raises(InputDataError, match="reference impedance must be finite"):
            PortNetwork(1, z0, np.array([1.0]), np.zeros((1, 1, 1), complex))
    with pytest.raises(ValueError, match="shape"):
        PortNetwork(2, 50.0, np.array([1.0]), np.zeros((1, 1, 1), complex))


def state_csv(rows):
    return "freq_hz,state,mag_db,phase_deg\n" + "\n".join(rows) + "\n"


def test_load_state_csv_trivial():
    text = state_csv(["3.6e9,0,0,0", "3.6e9,1,0,180"])
    profile = load_state_csv(text)
    assert profile.states == (0, 1)
    np.testing.assert_allclose(profile.gamma[:, 0], [1.0, -1.0], atol=1e-12)


def test_load_state_csv_measured_magnitude():
    text = state_csv([f"3.6e9,{s},-4.3,{45 * s}" for s in range(8)])
    profile = load_state_csv(text)
    # 10^(-4.3/20) = 0.609
    np.testing.assert_allclose(np.abs(profile.gamma[:, 0]), 0.6095368972, rtol=1e-9)


def test_load_state_csv_missing_state():
    rows = [f"3.6e9,{s},0,0" for s in range(7)] + ["3.7e9,7,0,0"]
    rows += [f"3.7e9,{s},0,0" for s in range(7)]
    with pytest.raises(StateCsvError, match="incomplete grid"):
        load_state_csv(state_csv(rows))


def test_load_state_csv_duplicate_row():
    with pytest.raises(StateCsvError, match="duplicate"):
        load_state_csv(state_csv(["1e9,0,0,0", "1e9,0,0,0", "1e9,1,0,0"]))


def test_load_state_csv_non_numeric():
    with pytest.raises(StateCsvError, match="non-numeric"):
        load_state_csv(state_csv(["1e9,0,zz,0", "1e9,1,0,0"]))


def test_load_state_csv_bad_header():
    with pytest.raises(StateCsvError, match="header"):
        load_state_csv("frequency,state,mag,phase\n1e9,0,0,0\n")


def test_load_state_csv_non_power_of_two():
    rows = [f"1e9,{s},0,0" for s in range(3)]
    with pytest.raises(StateCsvError, match="power of two"):
        load_state_csv(state_csv(rows))


def test_state_csv_roundtrip():
    rng = np.random.default_rng(3)
    freqs = np.array([3.3e9, 3.55e9, 3.8e9])
    gamma = rng.normal(size=(4, 3)) * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(4, 3)))
    profile = ReflectionProfile(states=(0, 1, 2, 3), frequencies=freqs, gamma=gamma)
    back = load_state_csv(dump_state_csv(profile))
    assert back.states == profile.states
    np.testing.assert_allclose(back.frequencies, freqs, rtol=1e-12)
    np.testing.assert_allclose(back.gamma, gamma, rtol=1e-9, atol=1e-12)


def test_state_csv_comments_ignored():
    text = "# comment\nfreq_hz,state,mag_db,phase_deg\n# more\n1e9,0,0,0\n1e9,1,0,90\n"
    profile = load_state_csv(text)
    assert profile.n_states == 2


def test_profile_at_frequency_interpolates():
    profile = ReflectionProfile(
        states=(0,),
        frequencies=np.array([1e9, 2e9]),
        gamma=np.array([[0.0 + 0j, 1.0 + 0j]]),
    )
    np.testing.assert_allclose(profile.at_frequency(1.5e9), [0.5 + 0j])
    from risnet.errors import FrequencyRangeError

    with pytest.raises(FrequencyRangeError):
        profile.at_frequency(0.5e9)


@pytest.mark.parametrize("bad_row, line, fragment", [
    ("1e9,0,0,0", 6, "duplicate row for state 0 at 1000000000.0 Hz"),
    ("1e9,1,zz,0", 6, "non-numeric"),
    ("1e9,-1,0,0", 6, "negative state index -1"),
    ("1e9,4294967296,0,0", 6, "out of range"),
    ("inf,1,0,0", 6, "non-finite frequency"),
    ("1e9,1.0,0,0", 6, "non-numeric field in '1e9,1.0,0,0'"),
    ("1e9,1e0,0,0", 6, "non-numeric field in '1e9,1e0,0,0'"),
    ("1e9,2147483648,0,0", 6, "state index 2147483648 out of range"),
    ("1e9,99999999999999999999,0,0", 6, "state index 99999999999999999999 out of range"),
])
def test_load_state_csv_errors_name_the_line(bad_row, line, fragment):
    text = "# c\nfreq_hz,state,mag_db,phase_deg\n\n1e9,0,0,0\n# c\n" + bad_row + "\n2e9,1,0,0\n"
    with pytest.raises(StateCsvError, match=fragment) as exc:
        load_state_csv(text)
    assert exc.value.line == line


@pytest.mark.parametrize("bad_row, fragment", [
    ("1e9,0,0,0", "duplicate row for state 0 at 1000000000.0 Hz"),
    ("1e9,-1,0,0", "negative state index -1"),
    ("1e9,2147483648,0,0", "state index 2147483648 out of range"),
    ("inf,1,0,0", "non-finite frequency inf"),
    ("-1e9,1,0,0", "frequencies must be non-negative"),
])
def test_row_rules_name_the_line_when_loadtxt_reads_the_raw_lines(monkeypatch, bad_row,
                                                                  fragment):
    # Only empty lines follow the header, so loadtxt reads the raw lines and
    # the rules number them from the text itself.
    monkeypatch.setattr(touchstone, "_csv_rows", None)  # calling it would raise TypeError
    rows = ("# c", touchstone.STATE_CSV_HEADER, "", "1e9,0,0,0", "", bad_row, "2e9,1,0,0", "")
    text = "\r\n".join(rows)
    with pytest.raises(StateCsvError) as exc:
        load_state_csv(text)
    assert exc.value.line == 6 and str(exc.value) == f"line 6: {fragment}"


def test_load_state_csv_row_order_is_free():
    rows = [f"{f:.12g},{s},{-s},{10 * s + f / 1e9}" for s in range(4) for f in (1e9, 2e9, 3e9)]
    ordered = load_state_csv(state_csv(rows))
    shuffled = load_state_csv(state_csv(rows[::-1][1::2] + rows[::-1][0::2]))
    assert shuffled.states == ordered.states
    np.testing.assert_array_equal(shuffled.frequencies, ordered.frequencies)
    np.testing.assert_array_equal(shuffled.gamma, ordered.gamma)


# The noise block may start below or at the last S-parameter frequency.
@pytest.mark.parametrize("text", [NOISY_S2P, NOISY_S2P.replace("3.0 1.5", "3.5 1.5")])
def test_two_port_noise_block_is_skipped(text):
    net = parse_touchstone(text)
    clean = parse_touchstone(NOISY_S2P.split("! noise")[0])
    np.testing.assert_array_equal(net.frequencies, [3.0e9, 3.5e9])
    np.testing.assert_array_equal(net.s, clean.s)


@pytest.mark.parametrize("numeric_row", [1500, 1000])
def test_state_csv_reports_the_first_faulty_line(numeric_row):
    # A non-numeric field 100 or 600 lines before a field-count fault: the
    # earlier line is reported.
    rows = [f"{3e9 + k:.12g},0,0,0" for k in range(3000)]
    rows[1600] = "1,2,3"
    rows[numeric_row] = "x,0,0,0"
    with pytest.raises(StateCsvError) as exc:
        load_state_csv("freq_hz,state,mag_db,phase_deg\n" + "\n".join(rows) + "\n")
    assert exc.value.line == numeric_row + 2
    assert "non-numeric field in 'x,0,0,0'" in str(exc.value)


@pytest.mark.parametrize("fault", ["# GHz S RI R 50", "[Version] 2.0", "1 2 3 4 5 6 7"])
def test_touchstone_reports_the_first_faulty_line(fault):
    lines = ["# Hz S RI R 50"] + [f"{k + 1} 0 0" for k in range(2000)]
    lines[1500] = "1500 0 zz"
    lines[1800] = fault
    with pytest.raises(TouchstoneParseError) as exc:
        parse_touchstone("\n".join(lines) + "\n")
    assert exc.value.line == 1501 and "non-numeric token 'zz'" in str(exc.value)


def test_state_labels_accept_what_int_accepts():
    text = "freq_hz,state,mag_db,phase_deg\n3e9, +0 ,0,0\n3e9,0_1,0,0\n"
    assert load_state_csv(text).states == (0, 1)



def test_valid_files_take_the_fast_path(monkeypatch):
    # Any fault on the fast path reruns the per-line loop, so a fast path that
    # always failed would pass every other test and only cost time.
    def per_line(*args):
        raise AssertionError("per-line loop reached")

    for name in ("_csv_rows", "_touchstone_row"):
        monkeypatch.setattr(touchstone, name, per_line)
    freqs = np.linspace(3e9, 4e9, 9)
    net = make_two_port(freqs, np.exp(1j * np.arange(36)) * 0.5)
    for fmt in ("RI", "MA", "DB"):
        parse_touchstone(serialize_touchstone(net, fmt, "MHz", comments=("a",)))
    parse_touchstone("! c\n# Hz S RI\n1e9\xa00.5 0 ! inline\n\n2e9 0.5\t0\n")
    gamma = np.exp(1j * np.outer([0.0, np.pi], freqs / 1e9))
    load_state_csv(dump_state_csv(ReflectionProfile((0, 1), freqs, gamma), comments=("b",)))
    load_state_csv("freq_hz , state,mag_db,phase_deg\n\n# c\n3e9, +1 ,0,0\n3e9,0,-1,1\n")
    sweep = gating.synth_multipath([(1e-9, 1.0)], freqs)
    gating.load_sweep_csv(gating.dump_sweep_csv(sweep, comments=("c",)))


TABLE_FAULTS = {
    "duplicate state row": (
        load_state_csv, "# c\nfreq_hz,state,mag_db,phase_deg\n1e9,0,0,0\n2e9,0,0,0\n"
        "1e9,1,0,0\n\n2e9,1,0,0\n# c\n1e9,0,-1,0\n", StateCsvError, 9,
        "duplicate row for state 0 at 1000000000.0 Hz"),
    "falling touchstone frequency": (
        parse_touchstone, "! c\n# Hz S RI R 50\n1 0 0\n! c\n2 0 0 ! 2 Hz\n\n3 0 0\n2.5 0 0\n",
        TouchstoneParseError, 8, "frequencies must be strictly increasing"),
    "repeated sweep frequency": (
        gating.load_sweep_csv, "freq_hz,re,im\n" + "".join(
            f"{1e9 + 1e6 * k:.12g},0.5,0\n" for k in (0, 1, 2, 2, 3, 4, 5, 6, 7)),
        gating.SweepGridError, 5, "frequencies must be strictly increasing"),
    # No line is skipped among these rows, so each row is numbered by its position.
    "state CSV, fault on its first line": (
        load_state_csv, "freq_hz,state,mag_db,phase_deg\n1e9,-1,0,0\n2e9,0,0,0\n",
        StateCsvError, 2, "negative state index -1"),
    "state CSV, fault on its last line": (
        load_state_csv, "# c\nfreq_hz,state,mag_db,phase_deg\n1e9,0,0,0\n2e9,0,0,0\n1e9,1,0,0\n"
        " inf ,1,0,0\n", StateCsvError, 6, "non-finite frequency inf"),
    "touchstone, fault on its first line": (
        parse_touchstone, "! c\n\n# Hz S RI R 50\n-1 0 0\n1 0 0\n",
        TouchstoneParseError, 4, "frequencies must be non-negative"),
    "touchstone, fault on its last line": (
        parse_touchstone, "# Hz S RI R 50\n1 0 0\n2 0 0 ! c\n3 nan 0\n",
        TouchstoneParseError, 4, "S parameters must be finite"),
    "sweep CSV, CRLF ends and trailing blank lines": (
        gating.load_sweep_csv, "freq_hz,re,im\r\n1e9,0.5,0\r\n2e9,0.5,0\r\n2e9,0.5,0\r\n\r\n\r\n",
        gating.SweepGridError, 4, "frequencies must be strictly increasing"),
    "touchstone, fault after a bare ! line": (
        parse_touchstone, "# Hz S RI R 50\n1 0 0\n!\n2 0 0\n2 0 0\n",
        TouchstoneParseError, 5, "frequencies must be strictly increasing"),
}


@pytest.mark.parametrize("case", TABLE_FAULTS)
def test_a_table_fault_names_its_line_without_a_second_read(monkeypatch, case):
    # loadtxt reads these files; the fault is the table's, and the line number
    # comes from the one pass over the text, which skipped blanks and comments.
    read, text, error, line, message = TABLE_FAULTS[case]
    for name in ("_csv_rows", "_touchstone_row"):
        monkeypatch.setattr(touchstone, name, None)  # calling it would raise TypeError
    with pytest.raises(error) as exc:
        read(text)
    assert exc.value.line == line and str(exc.value) == f"line {line}: {message}"


COMMENTED_CSVS = {
    "state CSV, comment above the header": (
        load_state_csv, "# c\n" + touchstone.STATE_CSV_HEADER + "\n1e9,0,0,0\n2e9,0,-1,5\n"),
    "state CSV, comment at the end": (
        load_state_csv, touchstone.STATE_CSV_HEADER + "\n1e9,0,0,0\n2e9,0,-1,5\n# end\n"),
    "sweep CSV, comment mid-table": (gating.load_sweep_csv, "freq_hz,re,im\n" + "".join(
        f"{k}e9,0.5,{-k / 8}\n" + "  # c\n" * (k == 4) for k in range(1, 10))),
}


@pytest.mark.parametrize("case", COMMENTED_CSVS)
def test_a_csv_with_comment_lines_reaches_loadtxt_once(monkeypatch, case):
    read, text = COMMENTED_CSVS[case]
    expected = read("".join(s for s in text.splitlines(True) if "#" not in s))
    calls, loadtxt = [], np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *args, **kw: calls.append(1) or loadtxt(*args, **kw))
    got = read(text)
    assert len(calls) == 1
    for name in ("frequencies", "gamma", "values"):
        if hasattr(expected, name):
            np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


@pytest.mark.parametrize("fault, message", [
    ("3.1e9,0,0,0", "duplicate row for state 0 at 3100000000.0 Hz"),
    ("x,0,0,0", "non-numeric field in 'x,0,0,0'"),
    ("inf,0,0,0", "non-finite frequency inf"),
])
def test_a_comment_mid_table_shifts_the_lines_after_it(fault, message):
    rows = [f"{3e9 + 1e5 * k:.12g},0,0,0" for k in range(3000)]
    rows.insert(1200, "# calibration changed here")
    rows[2400] = fault
    with pytest.raises(StateCsvError) as exc:
        load_state_csv("freq_hz,state,mag_db,phase_deg\n" + "\n".join(rows) + "\n")
    assert str(exc.value) == f"line 2402: {message}"


@pytest.mark.parametrize("n_ports", [0, 3])
def test_a_network_has_1_or_2_ports(n_ports):
    with pytest.raises(InputDataError, match=f"n_ports must be 1 or 2, got {n_ports}"):
        PortNetwork(n_ports, 50.0, [1e9], np.zeros((1, n_ports, n_ports), complex))


def test_db_magnitudes_decode_like_the_scalar_power():
    db = np.random.default_rng(5).uniform(-60.0, 20.0, 2000).tolist()
    text = "# Hz S DB R 50\n" + "".join(f"{k + 1} {v!r} 0\n" for k, v in enumerate(db))
    s = parse_touchstone(text).s[:, 0, 0]
    assert s.real.tobytes() == np.array([10.0 ** (v / 20.0) for v in db]).tobytes()
    assert not s.imag.any()
