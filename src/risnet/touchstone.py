"""Touchstone v1 S-parameter files and per-state reflection CSV ingestion.

Supports 1- and 2-port networks in RI, MA, and DB formats with Hz/kHz/MHz/GHz
frequency units. Version-2 keyword files are rejected. The state CSV format
(header ``freq_hz,state,mag_db,phase_deg``) carries measured or computed
per-switching-state reflection coefficients on a complete state-by-frequency
grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrequencyRangeError, InputDataError, StateCsvError, TouchstoneParseError

_FREQ_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("ri", "ma", "db")

STATE_CSV_HEADER = "freq_hz,state,mag_db,phase_deg"

# Magnitude floor used when writing exact zeros in dB-based formats.
_DB_FLOOR = -600.0

# State labels are read through a float table; this bound keeps them exact.
_MAX_STATE = 2**31


@dataclass(frozen=True)
class PortNetwork:
    """An n-port scattering-parameter sweep.

    ``s`` has shape (n_points, n_ports, n_ports) with s[k, i, j] the S(i+1)(j+1)
    entry at frequency ``frequencies[k]`` (Hz). The reference impedance is
    carried along but does not enter any reflection-coefficient math here
    (all quantities share one reference).
    """

    n_ports: int
    reference_impedance: float
    frequencies: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if self.n_ports < 1:
            raise InputDataError("n_ports must be >= 1")
        if self.reference_impedance <= 0:
            raise InputDataError("reference impedance must be > 0")
        if freqs.ndim != 1 or freqs.size < 1:
            raise InputDataError("need at least one frequency point")
        if np.any(np.diff(freqs) <= 0):
            raise InputDataError("frequencies must be strictly increasing")
        if s.shape != (freqs.size, self.n_ports, self.n_ports):
            raise InputDataError(
                f"S data shape {s.shape} does not match "
                f"{freqs.size} points of a {self.n_ports}-port"
            )
        if not np.all(np.isfinite(s.view(float))):
            raise InputDataError("S parameters must be finite")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "s", s)

    @property
    def f_min(self) -> float:
        return float(self.frequencies[0])

    @property
    def f_max(self) -> float:
        return float(self.frequencies[-1])


@dataclass(frozen=True)
class ReflectionProfile:
    """Per-state complex reflection coefficient on a shared frequency grid.

    ``gamma`` has shape (n_states, n_frequencies). ``states`` keeps the
    original switching-state labels, so a profile reduced to a subset of
    states (e.g. every second state) remembers which states it contains.
    """

    states: tuple
    frequencies: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        states = tuple(int(s) for s in self.states)
        freqs = np.asarray(self.frequencies, dtype=float)
        gamma = np.asarray(self.gamma, dtype=complex)
        n = len(states)
        if n < 1 or (n & (n - 1)) != 0:
            raise InputDataError("state count must be a power of two")
        if len(set(states)) != n:
            raise InputDataError("duplicate state labels")
        if list(states) != sorted(states):
            raise InputDataError("states must be sorted ascending")
        if freqs.ndim != 1 or freqs.size < 1:
            raise InputDataError("need at least one frequency point")
        if np.any(np.diff(freqs) <= 0):
            raise InputDataError("frequencies must be strictly increasing")
        if gamma.shape != (n, freqs.size):
            raise InputDataError("gamma grid must be states x frequencies")
        if not np.all(np.isfinite(gamma.view(float))):
            raise InputDataError("gamma entries must be finite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def at_frequency(self, f: float) -> np.ndarray:
        """Per-state gamma at ``f``, linear on real/imag parts, no extrapolation."""
        if not (self.frequencies[0] <= f <= self.frequencies[-1]):
            raise FrequencyRangeError(
                f"frequency {f} Hz outside profile sweep "
                f"[{self.frequencies[0]}, {self.frequencies[-1]}] Hz"
            )
        return _interp_complex(self.frequencies, self.gamma.T, f)


def _interp_complex(src_f: np.ndarray, src_v: np.ndarray, f) -> np.ndarray:
    """Complex samples ``src_v`` (frequency on axis 0) interpolated at ``f``.

    Linear on real and imaginary parts, exactly as ``np.interp`` per entry;
    the result has shape ``np.shape(f) + src_v.shape[1:]``. The loop runs
    over the trailing entries (S-matrix elements or states), never over
    frequencies. Range checks are the caller's.
    """
    cols = src_v.reshape(src_v.shape[0], -1)
    out = np.empty(np.shape(f) + cols.shape[1:], dtype=complex)
    for c in range(cols.shape[1]):
        out[..., c] = np.interp(f, src_f, cols[:, c].real) + 1j * np.interp(
            f, src_f, cols[:, c].imag
        )
    return out.reshape(np.shape(f) + src_v.shape[1:])


def _parse_option_line(line: str, line_no: int):
    tokens = line[1:].split()
    unit = None
    fmt = None
    z0 = None
    saw_parameter = None
    i = 0
    while i < len(tokens):
        tok = tokens[i].lower()
        if tok in _FREQ_SCALE:
            if unit is not None:
                raise TouchstoneParseError("duplicate frequency unit", line_no)
            unit = tok
        elif tok in _FORMATS:
            if fmt is not None:
                raise TouchstoneParseError("duplicate format token", line_no)
            fmt = tok
        elif tok in ("s", "y", "z", "g", "h"):
            if saw_parameter is not None:
                raise TouchstoneParseError("duplicate parameter token", line_no)
            saw_parameter = tok
            if tok != "s":
                raise TouchstoneParseError(
                    f"only S-parameters supported, got '{tokens[i]}'", line_no
                )
        elif tok == "r":
            if z0 is not None:
                raise TouchstoneParseError("duplicate reference impedance", line_no)
            if i + 1 >= len(tokens):
                raise TouchstoneParseError("R token without impedance value", line_no)
            try:
                z0 = float(tokens[i + 1])
            except ValueError:
                raise TouchstoneParseError(
                    f"bad reference impedance '{tokens[i + 1]}'", line_no
                ) from None
            if z0 <= 0:
                raise TouchstoneParseError("reference impedance must be > 0", line_no)
            i += 1
        else:
            raise TouchstoneParseError(f"unknown option token '{tokens[i]}'", line_no)
        i += 1
    return (
        unit if unit is not None else "ghz",
        fmt if fmt is not None else "ma",
        z0 if z0 is not None else 50.0,
    )


def _pairs_to_complex(a: np.ndarray, b: np.ndarray, fmt: str) -> np.ndarray:
    if fmt == "ri":
        return a + 1j * b
    if fmt == "ma":
        return a * np.exp(1j * np.deg2rad(b))
    # DB: a is 20*log10(magnitude), b is angle in degrees
    return 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))


def parse_touchstone(text: str) -> PortNetwork:
    """Parse Touchstone v1 text into a :class:`PortNetwork`.

    Defaults to GHz / S / MA / R 50 for omitted option-line fields. Data
    lines must hold 3 values (1-port) or 9 values (2-port, column order
    S11 S21 S12 S22). Frequencies must be strictly increasing; they are
    never reordered. All errors carry the offending line number.
    """
    option = None
    records = []  # (line_no, values)
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
    if n_values == 3:
        n_ports = 1
    elif n_values == 9:
        n_ports = 2
    else:
        raise TouchstoneParseError(
            f"expected 3 (1-port) or 9 (2-port) values per record, got {n_values}",
            records[0][0],
        )

    freqs = np.empty(len(records))
    raw = np.empty((len(records), n_values - 1))
    prev_f = -np.inf
    for k, (line_no, values) in enumerate(records):
        if len(values) != n_values:
            raise TouchstoneParseError(
                f"expected {n_values} values per record, got {len(values)}", line_no
            )
        f_hz = values[0] * _FREQ_SCALE[unit]
        if f_hz <= prev_f:
            raise TouchstoneParseError(
                "frequencies must be strictly increasing", line_no
            )
        prev_f = f_hz
        freqs[k] = f_hz
        raw[k] = values[1:]

    cplx = _pairs_to_complex(raw[:, 0::2], raw[:, 1::2], fmt)
    s = np.empty((len(records), n_ports, n_ports), dtype=complex)
    if n_ports == 1:
        s[:, 0, 0] = cplx[:, 0]
    else:
        # Touchstone v1 2-port column order: S11 S21 S12 S22
        s[:, 0, 0] = cplx[:, 0]
        s[:, 1, 0] = cplx[:, 1]
        s[:, 0, 1] = cplx[:, 2]
        s[:, 1, 1] = cplx[:, 3]
    return PortNetwork(n_ports=n_ports, reference_impedance=z0, frequencies=freqs, s=s)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _value_fields(v: complex, fmt: str) -> tuple:
    if fmt == "ri":
        return _fmt(v.real), _fmt(v.imag)
    mag = abs(v)
    ang = float(np.angle(v, deg=True)) if mag > 0 else 0.0
    if fmt == "ma":
        return _fmt(mag), _fmt(ang)
    db = 20.0 * np.log10(mag) if mag > 0 else _DB_FLOOR
    return _fmt(db), _fmt(ang)


def serialize_touchstone(net: PortNetwork, format: str = "RI", freq_unit: str = "GHz",
                         comments: tuple = ()) -> str:
    """Render a network as Touchstone v1 text.

    Round-trips through :func:`parse_touchstone` to within 1e-9 relative on
    every entry for all three formats and all four frequency units. Exact
    zeros in DB format are written at a -600 dB floor.
    """
    fmt = format.lower()
    unit = freq_unit.lower()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown format '{format}' (use RI, MA or DB)")
    if unit not in _FREQ_SCALE:
        raise ValueError(f"unknown frequency unit '{freq_unit}'")
    scale = _FREQ_SCALE[unit]
    unit_label = {"hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz"}[unit]

    lines = [f"! {c}" for c in comments]
    lines.append(f"# {unit_label} S {fmt.upper()} R {_fmt(net.reference_impedance)}")
    for k, f_hz in enumerate(net.frequencies):
        fields = [_fmt(f_hz / scale)]
        if net.n_ports == 1:
            entries = (net.s[k, 0, 0],)
        elif net.n_ports == 2:
            m = net.s[k]
            entries = (m[0, 0], m[1, 0], m[0, 1], m[1, 1])
        else:
            raise ValueError("only 1- and 2-port networks can be serialized")
        for v in entries:
            fields.extend(_value_fields(v, fmt))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def _csv_rows(text: str, header: str, error):
    """Yield ``(line_no, fields)`` for each data row of a headed CSV text.

    Blank lines and ``#`` comment lines are skipped. The first other line
    must equal ``header`` (fields compared after stripping); every later
    line is split on commas into stripped fields and must have as many
    fields as the header. Violations raise ``error(message, line_no)``.
    """
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


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` without its first-call import of ``numpy.ma`` (about 1 MB)."""
    s = np.sort(x)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def load_state_csv(text: str) -> ReflectionProfile:
    """Read a per-state reflection CSV into a :class:`ReflectionProfile`.

    Header must be ``freq_hz,state,mag_db,phase_deg``; ``#`` comment lines
    are ignored. Rows must cover the complete state-by-frequency grid with
    no duplicates. Gamma is reconstructed as 10^(mag_db/20) * exp(j*phase).
    """
    rows = []
    for line_no, fields in _csv_rows(text, STATE_CSV_HEADER, StateCsvError):
        try:
            f_hz, mag_db, phase_deg = float(fields[0]), float(fields[2]), float(fields[3])
            state = int(fields[1])
        except ValueError:
            raise StateCsvError(f"non-numeric field in '{','.join(fields)}'", line_no) from None
        if state < 0:
            raise StateCsvError(f"negative state index {state}", line_no)
        if state >= _MAX_STATE:
            raise StateCsvError(f"state index {state} out of range", line_no)
        if not math.isfinite(f_hz):
            raise StateCsvError(f"non-finite frequency {fields[0]}", line_no)
        rows.extend((f_hz, state, mag_db, phase_deg))
    if not rows:
        raise StateCsvError("no data rows", 1)

    table = np.array(rows).reshape(-1, 4)
    # The row floats are the largest allocation here; release them before
    # the array work so the two peaks do not add up.
    del rows
    freqs = _sorted_unique(table[:, 0])
    states = _sorted_unique(table[:, 1])
    k = np.searchsorted(freqs, table[:, 0])
    i = np.searchsorted(states, table[:, 1])
    cell = i * freqs.size + k
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if repeats.size:
        r = int(repeats.min())
        line_no = [n for n, _ in _csv_rows(text, STATE_CSV_HEADER, StateCsvError)][r]
        raise StateCsvError(
            f"duplicate row for state {int(table[r, 1])} at {table[r, 0]} Hz", line_no
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
    gamma = np.empty((n, freqs.size), dtype=complex)
    # float_power rounds exactly like the scalar **; np.power can differ in the last bit.
    gamma[i, k] = np.float_power(10.0, table[:, 2] / 20.0) * np.exp(1j * np.deg2rad(table[:, 3]))
    return ReflectionProfile(states=tuple(int(s) for s in states), frequencies=freqs, gamma=gamma)


def dump_state_csv(profile: ReflectionProfile, comments: tuple = ()) -> str:
    """Render a profile as state CSV text (inverse of :func:`load_state_csv`)."""
    f_text = [_fmt(f_hz) for f_hz in profile.frequencies.tolist()]
    lines = [f"# {c}" for c in comments]
    lines.append(STATE_CSV_HEADER)
    for state, g in zip(profile.states, profile.gamma):
        # hypot rounds exactly like the scalar abs(); np.abs can differ in the last bit
        mag = np.hypot(g.real, g.imag)
        live = mag > 0
        with np.errstate(divide="ignore"):
            mag_db = np.where(live, 20.0 * np.log10(mag), _DB_FLOOR)
        phase = np.where(live, np.angle(g, deg=True), 0.0)
        lines.extend(
            f"{f_s},{state},{_fmt(m)},{_fmt(a)}"
            for f_s, m, a in zip(f_text, mag_db.tolist(), phase.tolist())
        )
    return "\n".join(lines) + "\n"
