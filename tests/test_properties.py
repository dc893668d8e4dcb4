"""Property-based checks of the broadcasting network and metrics core and of
the numeric-text readers and writers."""

import io
import math
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from risnet import cli, touchstone
from risnet.errors import (
    FrequencyRangeError,
    InputDataError,
    StateCsvError,
    SweepGridError,
    TouchstoneParseError,
)
from risnet.gating import SWEEP_CSV_HEADER, Sweep, dump_sweep_csv, load_sweep_csv
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
    _pairs_to_complex,
    _parse_option_line,
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


# --- Numeric-text layer --------------------------------------------------------
#
# The per-row readers and writers that the block layer replaced, kept as its
# oracles: every output and every error (message and line) must match them.


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
    # Rows are checked by line: non-finite frequencies, then their order, then
    # the values; the size and uniform-step checks of Sweep come last.
    for line_no, f, _, _ in rows:
        if not math.isfinite(f):
            raise SweepGridError("frequencies must be finite", line_no)
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
    # grid: it is checked for non-finite values, then for order, then the
    # record of another length is reported.
    n_points = next((k for k, (_, v) in enumerate(records) if len(v) != n_values), len(records))
    scale = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}[unit]
    freqs = [values[0] * scale for _, values in records[:n_points]]
    for (line_no, _), f_hz in zip(records, freqs):
        if not math.isfinite(f_hz):
            raise TouchstoneParseError("frequencies must be finite", line_no)
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


def oracle_value_fields(v, fmt):
    if fmt == "ri":
        return oracle_fmt(v.real), oracle_fmt(v.imag)
    mag = abs(v)
    ang = float(np.angle(v, deg=True)) if mag > 0 else 0.0
    if fmt == "ma":
        return oracle_fmt(mag), oracle_fmt(ang)
    db = 20.0 * np.log10(mag) if mag > 0 else -600.0
    return oracle_fmt(db), oracle_fmt(ang)


def oracle_serialize_touchstone(net, fmt, unit, comments=()):
    scale = {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}[unit]
    lines = [f"! {c}" for c in comments]
    lines.append(f"# {unit} S {fmt} R {oracle_fmt(net.reference_impedance)}")
    for k, f_hz in enumerate(net.frequencies):
        fields = [oracle_fmt(f_hz / scale)]
        m = net.s[k]
        entries = (m[0, 0],) if net.n_ports == 1 else (m[0, 0], m[1, 0], m[0, 1], m[1, 1])
        for v in entries:
            fields.extend(oracle_value_fields(v, fmt.lower()))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def oracle_dump_state_csv(profile, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(STATE_CSV_HEADER)
    for state, g in zip(profile.states, profile.gamma):
        for f_hz, v in zip(profile.frequencies, g):
            lines.append(f"{oracle_fmt(f_hz)},{state},{','.join(oracle_value_fields(v, 'db'))}")
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


def outcome(read, text):
    """What ``read(text)`` gives: its result, or the error's type, message and line."""
    try:
        return read(text)
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


def block_cast(dtype, toks):
    try:
        return np.array(toks, dtype=dtype)
    except (ValueError, OverflowError):
        return None


@settings(deadline=None, max_examples=400)
@given(st.lists(tokens, min_size=1, max_size=12))
def test_block_cast_equals_scalar_float_and_int(toks):
    expected = scalar_cast(float, toks)
    got = block_cast(float, toks)
    assert (got is None) == (expected is None)
    if expected is not None:
        assert got.tobytes() == np.array(expected, dtype=float).tobytes()
    expected = scalar_cast(int, toks)
    got = block_cast(np.int64, toks)
    if expected is None or not all(-(2**63) <= v < 2**63 for v in expected):
        # int() rejects it, or int64 cannot hold it: both go to the per-line path
        assert got is None
    else:
        assert got.tolist() == expected


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


def small_blocks():
    """Blocks of 1-3 rows and the default: faults land in every position of a block."""
    return st.sampled_from((1, 2, 3, touchstone._BLOCK_ROWS))


@property_settings
@given(state_csv_texts(), small_blocks())
def test_state_csv_reader_matches_per_line_path(text, block_rows):
    with mock.patch.object(touchstone, "_BLOCK_ROWS", block_rows):
        got = outcome(load_state_csv, text)
    assert_same_outcome(got, outcome(oracle_load_state_csv, text))


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
@given(sweep_csv_texts(), small_blocks())
def test_sweep_csv_reader_matches_per_line_path(text, block_rows):
    with mock.patch.object(touchstone, "_BLOCK_ROWS", block_rows):
        got = outcome(load_sweep_csv, text)
    assert_same_outcome(got, outcome(oracle_load_sweep_csv, text))


@st.composite
def touchstone_texts(draw):
    """Touchstone text with up to two lines replaced by a fault (no noise block)."""
    n_values = draw(st.sampled_from((3, 9)))
    n = draw(st.integers(1, 8))
    lines = ["! measured", draw(st.sampled_from(("# MHz S RI R 50", "# Hz S DB", "#")))]
    for k in range(n):
        values = [f"{100 + 10 * k}"] + [f"{draw(unit):.12g}" for _ in range(n_values - 1)]
        lines.append(" ".join(values) + draw(st.sampled_from(("", " ! inline"))))
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
@given(touchstone_texts(), small_blocks())
def test_touchstone_reader_matches_per_line_path(text, block_rows):
    with mock.patch.object(touchstone, "_BLOCK_ROWS", block_rows):
        got = outcome(parse_touchstone, text)
    expected = outcome(oracle_parse_touchstone, text)
    if not isinstance(got, tuple) and "expected 9 values per record, got 5" in str(expected):
        # a non-increasing 5-value record after 2-port data now starts a noise block
        return
    assert_same_outcome(got, expected)


# Values that stress the "%.12g" writers: zeros of both signs, the -600 dB floor
# (|v| = 1e-30), subnormals and extreme exponents.
edge_floats = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-30, -1e-30, 5e-324, -5e-324, 1e-300, 1e300, -1e300,
                     1.0, -1.0, 0.1, 123456789012.5)),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.floats(-10.0, 10.0),
)
finite_complex = st.builds(complex, edge_floats, edge_floats)


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
def test_touchstone_writer_matches_per_row_oracle(net, fmt, unit, comments):
    expected = oracle_serialize_touchstone(net, fmt, unit, comments)
    assert serialize_touchstone(net, fmt, unit, comments=comments) == expected


@property_settings
@given(st.sampled_from((1, 2, 4)).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, 5), st.lists(finite_complex, min_size=5 * n, max_size=5 * n))))
def test_state_csv_writer_matches_per_row_oracle(case):
    n, n_freqs, values = case
    gamma = np.array(values[:n * n_freqs]).reshape(n, n_freqs)
    profile = ReflectionProfile(tuple(range(n)), 3e9 + 1e6 * np.arange(n_freqs), gamma)
    assert dump_state_csv(profile, ("x",)) == oracle_dump_state_csv(profile, ("x",))


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
    with mock.patch.object(cli.arr, "array_factor", lambda *a, **k: af), redirect_stdout(out):
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
