"""Touchstone v1 S-parameter files and per-state reflection CSV ingestion.

Supports 1- and 2-port networks in RI, MA, and DB formats with Hz/kHz/MHz/GHz
frequency units. Version-2 keyword files are rejected. The state CSV format
(header ``freq_hz,state,mag_db,phase_deg``) carries measured or computed
per-switching-state reflection coefficients on a complete state-by-frequency
grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputDataError, StateCsvError, TouchstoneParseError

_FREQ_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("ri", "ma", "db")

STATE_CSV_HEADER = "freq_hz,state,mag_db,phase_deg"

# Magnitude floor used when writing exact zeros in dB-based formats.
_DB_FLOOR = -600.0


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
        from .errors import FrequencyRangeError

        if not (self.frequencies[0] <= f <= self.frequencies[-1]):
            raise FrequencyRangeError(
                f"frequency {f} Hz outside profile sweep "
                f"[{self.frequencies[0]}, {self.frequencies[-1]}] Hz"
            )
        re = np.array([np.interp(f, self.frequencies, g.real) for g in self.gamma])
        im = np.array([np.interp(f, self.frequencies, g.imag) for g in self.gamma])
        return re + 1j * im


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


def _state_csv_fields(line: str, line_no: int) -> list:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) != 4:
        raise StateCsvError(f"expected 4 comma-separated fields, got {len(fields)}", line_no)
    return fields


def load_state_csv(text: str) -> ReflectionProfile:
    """Read a per-state reflection CSV into a :class:`ReflectionProfile`.

    Header must be ``freq_hz,state,mag_db,phase_deg``; ``#`` comment lines
    are ignored. Rows must cover the complete state-by-frequency grid with
    no duplicates. Gamma is reconstructed as 10^(mag_db/20) * exp(j*phase).
    """
    header_seen = False
    cells = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if [f.strip() for f in line.split(",")] != STATE_CSV_HEADER.split(","):
                raise StateCsvError(
                    f"expected header '{STATE_CSV_HEADER}', got '{line}'", line_no
                )
            header_seen = True
            continue
        f_s, state_s, mag_s, phase_s = _state_csv_fields(line, line_no)
        try:
            f_hz = float(f_s)
            state = int(state_s)
            mag_db = float(mag_s)
            phase_deg = float(phase_s)
        except ValueError:
            raise StateCsvError(f"non-numeric field in '{line}'", line_no) from None
        if state < 0:
            raise StateCsvError(f"negative state index {state}", line_no)
        key = (state, f_hz)
        if key in cells:
            raise StateCsvError(f"duplicate row for state {state} at {f_hz} Hz", line_no)
        cells[key] = 10.0 ** (mag_db / 20.0) * np.exp(1j * np.deg2rad(phase_deg))
    if not header_seen:
        raise StateCsvError("missing header line", 1)
    if not cells:
        raise StateCsvError("no data rows", 1)

    states = sorted({k[0] for k in cells})
    freqs = sorted({k[1] for k in cells})
    missing = [(s, f) for s in states for f in freqs if (s, f) not in cells]
    if missing:
        s, f = missing[0]
        raise StateCsvError(
            f"incomplete grid: missing state {s} at {f} Hz "
            f"({len(missing)} missing pairs in total)"
        )
    n = len(states)
    if n & (n - 1):
        raise StateCsvError(f"state count {n} is not a power of two")
    gamma = np.empty((n, len(freqs)), dtype=complex)
    for i, s in enumerate(states):
        for k, f in enumerate(freqs):
            gamma[i, k] = cells[(s, f)]
    return ReflectionProfile(states=tuple(states), frequencies=np.array(freqs), gamma=gamma)


def dump_state_csv(profile: ReflectionProfile, comments: tuple = ()) -> str:
    """Render a profile as state CSV text (inverse of :func:`load_state_csv`)."""
    lines = [f"# {c}" for c in comments]
    lines.append(STATE_CSV_HEADER)
    for i, state in enumerate(profile.states):
        for k, f_hz in enumerate(profile.frequencies):
            g = profile.gamma[i, k]
            mag = abs(g)
            mag_db = 20.0 * np.log10(mag) if mag > 0 else _DB_FLOOR
            phase = float(np.angle(g, deg=True)) if mag > 0 else 0.0
            lines.append(f"{_fmt(f_hz)},{state},{_fmt(mag_db)},{_fmt(phase)}")
    return "\n".join(lines) + "\n"
