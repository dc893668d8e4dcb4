"""Touchstone v1 S-parameter files, per-state reflection CSV, and the numeric
text layer that every risnet file format goes through.

Supports 1- and 2-port networks in RI, MA, and DB formats with Hz/kHz/MHz/GHz
frequency units; a 2-port noise-parameter block is skipped. Version-2 keyword
files are rejected. The state CSV format (header
``freq_hz,state,mag_db,phase_deg``) carries measured or computed
per-switching-state reflection coefficients on a complete state-by-frequency
grid.

Readers make a structural pass per line, then convert numeric tokens in
blocks of ``_BLOCK_ROWS`` rows (:func:`_read_numbers`); only a block that
fails is read again line by line, to name the line at fault. Writers format
all rows of a table with one ``%`` operation (:func:`_format_rows`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .errors import FrequencyRangeError, InputDataError, StateCsvError, TouchstoneParseError

_FREQ_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FORMATS = ("ri", "ma", "db")
# Option-line token kinds: the name in the duplicate-token message, the tokens
# of the kind, and its value when the line leaves it out.
_OPTION_KINDS = (
    ("frequency unit", tuple(_FREQ_SCALE), "ghz"),
    ("format token", _FORMATS, "ma"),
    ("parameter token", ("s", "y", "z", "g", "h"), "s"),
    ("reference impedance", ("r",), 50.0),
)
# Touchstone v1 2-port column order S11 S21 S12 S22, as flat (row-major)
# indices into a 2x2 S-matrix; a 1-port uses the first entry only.
_COLUMN_ORDER = [0, 2, 1, 3]

STATE_CSV_HEADER = "freq_hz,state,mag_db,phase_deg"

# Magnitude floor used when writing exact zeros in dB-based formats.
_DB_FLOOR = -600.0

# State labels are read through a float table; this bound keeps them exact.
_MAX_STATE = 2**31

# Rows per numeric block in the readers: one np.array call converts a block's
# tokens, and a few thousand rows keep that token list small next to the text.
_BLOCK_ROWS = 1024


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
        s = np.asarray(self.s, dtype=complex)
        if self.n_ports < 1:
            raise InputDataError("n_ports must be >= 1")
        if self.reference_impedance <= 0:
            raise InputDataError("reference impedance must be > 0")
        freqs = _frequency_grid(self.frequencies)
        if s.shape != (freqs.size, self.n_ports, self.n_ports):
            raise InputDataError(
                f"S data shape {s.shape} does not match "
                f"{freqs.size} points of a {self.n_ports}-port"
            )
        _reject_rows(~np.isfinite(s), InputDataError, "S parameters must be finite")
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
        gamma = np.asarray(self.gamma, dtype=complex)
        n = len(states)
        if n < 1 or (n & (n - 1)) != 0:
            raise InputDataError("state count must be a power of two")
        if len(set(states)) != n:
            raise InputDataError("duplicate state labels")
        if list(states) != sorted(states):
            raise InputDataError("states must be sorted ascending")
        freqs = _frequency_grid(self.frequencies)
        if gamma.shape != (n, freqs.size):
            raise InputDataError("gamma grid must be states x frequencies")
        _reject_rows(~np.isfinite(gamma), InputDataError, "gamma entries must be finite")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "gamma", gamma)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def at_frequency(self, f: float) -> np.ndarray:
        """Per-state gamma at ``f``, linear on real/imag parts, no extrapolation."""
        return _interp_complex(self.frequencies, self.gamma.T, f)


def _frequency_grid(freqs, error=InputDataError, line_nos=None) -> np.ndarray:
    """``freqs`` as a float array, checked as a 1-D, finite, non-negative, strictly increasing grid.

    Zero is accepted: Touchstone exports for time-domain work carry a DC point.
    """
    f = np.asarray(freqs, dtype=float)
    if f.ndim != 1 or f.size < 1:
        raise error("need at least one frequency point")
    _reject_rows(~np.isfinite(f), error, "frequencies must be finite", line_nos)
    _reject_rows(f < 0, error, "frequencies must be non-negative", line_nos)
    falling = np.append(False, f[1:] <= f[:-1])
    _reject_rows(falling, error, "frequencies must be strictly increasing", line_nos)
    return f


def _reject_rows(bad, error, message: str, line_nos=None) -> None:
    """Raise ``error(message, line_nos[row])`` at the first row (axis 0) flagged in ``bad``."""
    rows = np.any(bad, axis=tuple(range(1, np.ndim(bad))))
    if np.any(rows):
        raise error(message, None if line_nos is None else int(line_nos[np.argmax(rows)]))


def _require_in_sweep(sweep_f: np.ndarray, f) -> None:
    """Raise :class:`FrequencyRangeError` unless every ``f`` lies in ``sweep_f``'s span."""
    f = np.ravel(np.asarray(f, dtype=float))
    outside = ~((f >= sweep_f[0]) & (f <= sweep_f[-1]))
    if np.any(outside):
        f_out, lo, hi = float(f[np.argmax(outside)]), float(sweep_f[0]), float(sweep_f[-1])
        raise FrequencyRangeError(f"frequency {f_out} Hz not contained in sweep [{lo}, {hi}] Hz")


def _interp_complex(src_f: np.ndarray, src_v: np.ndarray, f) -> np.ndarray:
    """Complex samples ``src_v`` (frequency on axis 0) interpolated at ``f``.

    Linear on real and imaginary parts, exactly as ``np.interp`` per entry;
    the result has shape ``np.shape(f) + src_v.shape[1:]``. The loop runs
    over the trailing entries (S-matrix elements or states), never over
    frequencies. Out-of-sweep ``f`` raises :class:`FrequencyRangeError`.
    """
    _require_in_sweep(src_f, f)
    cols = src_v.reshape(src_v.shape[0], -1)
    out = np.empty(np.shape(f) + cols.shape[1:], dtype=complex)
    for c in range(cols.shape[1]):
        out[..., c] = np.interp(f, src_f, cols[:, c].real) + 1j * np.interp(
            f, src_f, cols[:, c].imag
        )
    return out.reshape(np.shape(f) + src_v.shape[1:])


def _parse_option_line(line: str, line_no: int):
    """(unit, format, reference impedance) of a ``#`` option line, defaults filled in."""
    tokens = iter(line[1:].split())
    seen = {}
    for token in tokens:
        tok = token.lower()
        kind = next((k for k, members, _ in _OPTION_KINDS if tok in members), None)
        if kind is None:
            raise TouchstoneParseError(f"unknown option token '{token}'", line_no)
        if kind in seen:
            raise TouchstoneParseError(f"duplicate {kind}", line_no)
        seen[kind] = tok
        if kind == "parameter token" and tok != "s":
            raise TouchstoneParseError(f"only S-parameters supported, got '{token}'", line_no)
        if kind == "reference impedance":
            value = next(tokens, None)
            if value is None:
                raise TouchstoneParseError("R token without impedance value", line_no)
            try:
                seen[kind] = float(value)
            except ValueError:
                raise TouchstoneParseError(f"bad reference impedance '{value}'", line_no) from None
            if seen[kind] <= 0:
                raise TouchstoneParseError("reference impedance must be > 0", line_no)
    unit, fmt, _, z0 = (seen.get(kind, default) for kind, _, default in _OPTION_KINDS)
    return unit, fmt, z0


def _pairs_to_complex(a: np.ndarray, b: np.ndarray, fmt: str) -> np.ndarray:
    if fmt == "ri":
        return a + 1j * b
    if fmt == "ma":
        return a * np.exp(1j * np.deg2rad(b))
    # DB: a is 20*log10(magnitude), b is angle in degrees
    return 10.0 ** (a / 20.0) * np.exp(1j * np.deg2rad(b))


def _read_numbers(blocks, per_line, refine=None):
    """Float values of the numeric rows in ``blocks``.

    Each block is ``(line_nos, counts, tokens)``: a few rows' line numbers,
    token counts and concatenated tokens. Returns ``(values, counts,
    line_nos)`` over all rows. A block's tokens are converted with one
    ``np.array(tokens, dtype=float)``; ``refine(tokens, values)`` may then
    adjust the values in place and raises ``ValueError`` on a row the format
    forbids. A block that fails either step goes through
    ``per_line(line_no, row_tokens)`` row by row, which returns the row's
    values or raises the error naming its line.
    """
    chunks, all_counts, all_line_nos = [], [], []
    for line_nos, counts, tokens in blocks:
        try:
            values = np.array(tokens, dtype=float)
            if refine is not None:
                refine(tokens, values)
        except (ValueError, OverflowError):
            ends = list(accumulate(counts))
            values = np.array([
                v for n, end, c in zip(line_nos, ends, counts)
                for v in per_line(n, tokens[end - c:end])
            ], dtype=float)
        chunks.append(values)
        all_counts.append(np.array(counts, dtype=np.int64))
        all_line_nos.append(np.array(line_nos, dtype=np.int64))
    return np.concatenate(chunks), np.concatenate(all_counts), np.concatenate(all_line_nos)


def _touchstone_row(line_no: int, tokens: list) -> list:
    values = []
    for tok in tokens:
        try:
            values.append(float(tok))
        except ValueError:
            raise TouchstoneParseError(f"non-numeric token '{tok}'", line_no) from None
    return values


def parse_touchstone(text: str) -> PortNetwork:
    """Parse Touchstone v1 text into a :class:`PortNetwork`.

    Defaults to GHz / S / MA / R 50 for omitted option-line fields. Data
    lines must hold 3 values (1-port) or 9 values (2-port, column order
    S11 S21 S12 S22). Frequencies must be finite and strictly increasing;
    they are never reordered. In a 2-port file, a 5-value record whose
    frequency is not above the previous one starts the noise-parameter
    block, which runs to the end of the file with 5 values per record and is
    skipped. All errors carry the offending line number.
    """
    option = []

    def blocks():
        """Data rows in blocks; on a fault, the rows before it come first."""
        line_nos, counts, tokens = [], [], []
        try:
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
                    if option:
                        raise TouchstoneParseError("duplicate option line", line_no)
                    option.append(_parse_option_line(line, line_no))
                    continue
                if "!" in line:
                    line = line.split("!", 1)[0].strip()
                    if not line:
                        continue
                if not option:
                    raise TouchstoneParseError("data before option line", line_no)
                fields = line.split()
                line_nos.append(line_no)
                counts.append(len(fields))
                tokens += fields
                if len(line_nos) == _BLOCK_ROWS:
                    yield line_nos, counts, tokens
                    line_nos, counts, tokens = [], [], []
        except TouchstoneParseError:
            yield line_nos, counts, tokens
            raise
        yield line_nos, counts, tokens

    values, counts, line_nos = _read_numbers(blocks(), _touchstone_row)
    if not option:
        raise TouchstoneParseError("missing option line", 1)
    if not counts.size:
        raise TouchstoneParseError("no data records", 1)

    unit, fmt, z0 = option[0]
    n_values = int(counts[0])
    n_ports = {3: 1, 9: 2}.get(n_values)
    if n_ports is None:
        raise TouchstoneParseError(
            f"expected 3 (1-port) or 9 (2-port) values per record, got {n_values}",
            int(line_nos[0]),
        )

    f_hz = values[np.cumsum(counts) - counts] * _FREQ_SCALE[unit]
    odd = np.flatnonzero(counts != n_values)
    n_points = int(odd[0]) if odd.size else counts.size
    freqs = _frequency_grid(f_hz[:n_points], TouchstoneParseError, line_nos)
    if n_points < counts.size:
        k = n_points
        if not (n_ports == 2 and counts[k] == 5 and f_hz[k] <= f_hz[k - 1]):
            raise TouchstoneParseError(
                f"expected {n_values} values per record, got {counts[k]}", int(line_nos[k])
            )
        bad = np.flatnonzero(counts[k:] != 5)
        if bad.size:
            raise TouchstoneParseError(
                f"expected 5 values per noise-parameter record, got {counts[k + bad[0]]}",
                int(line_nos[k + bad[0]]),
            )

    raw = values[:n_points * n_values].reshape(n_points, n_values)[:, 1:]
    with np.errstate(all="ignore"):  # inf values; rejected by line below
        cplx = _pairs_to_complex(raw[:, 0::2], raw[:, 1::2], fmt)
    _reject_rows(~np.isfinite(cplx), TouchstoneParseError, "S parameters must be finite", line_nos)
    s = np.ascontiguousarray(cplx[:, _COLUMN_ORDER[:n_ports**2]])
    s = s.reshape(n_points, n_ports, n_ports)
    return PortNetwork(n_ports=n_ports, reference_impedance=z0, frequencies=freqs, s=s)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _format_rows(row_format: str, *columns) -> str:
    """One ``row_format`` line per row of ``columns``, formatted in one ``%``.

    ``row_format`` holds one %-field per column and ends in a newline; a
    ``%.12g`` field prints a float exactly as :func:`_fmt` does.
    """
    k = len(columns)
    flat = [None] * (k * len(columns[0]))
    for j, col in enumerate(columns):
        flat[j::k] = col.tolist() if isinstance(col, np.ndarray) else col
    return (row_format * len(columns[0])) % tuple(flat)


def _polar_columns(v: np.ndarray, fmt: str, where) -> tuple:
    """Two columns of ``v`` in format ``fmt`` (RI, MA or DB), angles in degrees.

    An exact zero gets angle 0 and, in DB, the ``_DB_FLOOR`` magnitude. A
    magnitude past the float range would print as ``inf``, which no reader
    accepts, so it raises InputDataError naming ``where(k)``, ``k`` its index.
    """
    if fmt == "ri":
        return v.real, v.imag
    # hypot rounds exactly like the scalar abs(); np.abs can differ in the last bit.
    with np.errstate(over="ignore", divide="ignore"):
        mag = np.hypot(v.real, v.imag)
        if np.isinf(mag).any():
            k = int(np.argmax(np.isinf(mag)))
            raise InputDataError(f"{where(k)}: the magnitude of {v[k]} overflows the float range")
        live = mag > 0
        ang = np.where(live, np.angle(v, deg=True), 0.0)
        return (mag if fmt == "ma" else np.where(live, 20.0 * np.log10(mag), _DB_FLOOR)), ang


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
    if net.n_ports > 2:
        raise ValueError("only 1- and 2-port networks can be serialized")
    order = _COLUMN_ORDER[:net.n_ports**2]
    entries = net.s.reshape(net.frequencies.size, -1)[:, order]
    unit_label = {"hz": "Hz", "khz": "kHz", "mhz": "MHz", "ghz": "GHz"}[unit]
    columns = [net.frequencies / _FREQ_SCALE[unit]]
    for c, v in zip(order, entries.T):
        name = f"S{c // net.n_ports + 1}{c % net.n_ports + 1}"
        columns.extend(_polar_columns(v, fmt, lambda k: f"{name} at {net.frequencies[k]} Hz"))
    head = "".join(f"! {c}\n" for c in comments)
    head += f"# {unit_label} S {fmt.upper()} R {_fmt(net.reference_impedance)}\n"
    return head + _format_rows("%.12g" + " %.12g %.12g" * len(entries.T) + "\n", *columns)


def _csv_blocks(text: str, header: str, error):
    """Yield the data rows of a headed CSV text as ``_read_numbers`` blocks.

    Blank lines and ``#`` comment lines are skipped. The first other line
    must equal ``header`` (fields compared after stripping); every later
    line is split on commas into fields, left unstripped, and must have as
    many fields as the header. Violations raise ``error(message, line_no)``
    after the rows before them have been yielded.
    """
    names = header.split(",")
    width = len(names)
    lines = text.splitlines()
    header_seen = False
    for start in range(0, len(lines), _BLOCK_ROWS):
        chunk = list(map(str.strip, lines[start:start + _BLOCK_ROWS]))
        rows = [s for s in chunk if s and s[0] != "#"]
        if len(rows) == len(chunk):
            line_nos = range(start + 1, start + 1 + len(chunk))
        else:
            line_nos = [start + 1 + k for k, s in enumerate(chunk) if s and s[0] != "#"]
        if rows and not header_seen:
            if [f.strip() for f in rows[0].split(",")] != names:
                raise error(f"expected header '{header}', got '{rows[0]}'", line_nos[0])
            header_seen = True
            rows, line_nos = rows[1:], line_nos[1:]
        commas = list(map(str.count, rows, repeat(",")))
        if commas.count(width - 1) != len(rows):
            bad = next(k for k, c in enumerate(commas) if c != width - 1)
            yield line_nos[:bad], [width] * bad, ",".join(rows[:bad]).split(",") if bad else []
            raise error(
                f"expected {width} comma-separated fields, got {commas[bad] + 1}", line_nos[bad]
            )
        yield line_nos, [width] * len(rows), ",".join(rows).split(",") if rows else []
    if not header_seen:
        raise error("missing header line", 1)


def _csv_text(header: str, comments: tuple, body: str) -> str:
    """Comment lines, the header line and the formatted rows of a CSV text."""
    return "".join(f"# {c}\n" for c in comments) + header + "\n" + body


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` without its first-call import of ``numpy.ma`` (about 1 MB)."""
    s = np.sort(x)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _state_row(line_no: int, fields: list) -> tuple:
    fields = [f.strip() for f in fields]
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
    return f_hz, state, mag_db, phase_deg


def _state_labels(tokens: list, values: np.ndarray):
    """Cast a block's state column to integers and check it as :func:`_state_row` does."""
    states = np.array(tokens[1::4], dtype=np.int64)
    table = values.reshape(-1, 4)
    if not (np.all((states >= 0) & (states < _MAX_STATE)) and np.all(np.isfinite(table[:, 0]))):
        raise ValueError("state row out of range")
    table[:, 1] = states


def load_state_csv(text: str) -> ReflectionProfile:
    """Read a per-state reflection CSV into a :class:`ReflectionProfile`.

    Header must be ``freq_hz,state,mag_db,phase_deg``; ``#`` comment lines
    are ignored. Rows must cover the complete state-by-frequency grid with
    no duplicates. Gamma is reconstructed as 10^(mag_db/20) * exp(j*phase).
    """
    values, _, line_nos = _read_numbers(
        _csv_blocks(text, STATE_CSV_HEADER, StateCsvError), _state_row, _state_labels
    )
    if not line_nos.size:
        raise StateCsvError("no data rows", 1)

    table = values.reshape(-1, 4)
    _reject_rows(table[:, 0] < 0, StateCsvError, "frequencies must be non-negative", line_nos)
    freqs = _sorted_unique(table[:, 0])
    states = _sorted_unique(table[:, 1])
    k = np.searchsorted(freqs, table[:, 0])
    i = np.searchsorted(states, table[:, 1])
    cell = i * freqs.size + k
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if repeats.size:
        r = int(repeats.min())
        raise StateCsvError(
            f"duplicate row for state {int(table[r, 1])} at {table[r, 0]} Hz", int(line_nos[r])
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
    # float_power rounds exactly like the scalar **; np.power can differ in the last bit.
    with np.errstate(all="ignore"):  # inf or overflowing values; rejected by line below
        rows = np.float_power(10.0, table[:, 2] / 20.0) * np.exp(1j * np.deg2rad(table[:, 3]))
    _reject_rows(~np.isfinite(rows), StateCsvError, "gamma entries must be finite", line_nos)
    gamma = np.empty((n, freqs.size), dtype=complex)
    gamma[i, k] = rows
    return ReflectionProfile(states=tuple(int(s) for s in states), frequencies=freqs, gamma=gamma)


def dump_state_csv(profile: ReflectionProfile, comments: tuple = ()) -> str:
    """Render a profile as state CSV text (inverse of :func:`load_state_csv`)."""
    f_text = [_fmt(f_hz) for f_hz in profile.frequencies.tolist()]
    body = "".join(
        _format_rows(f"%s,{state},%.12g,%.12g\n", f_text, *_polar_columns(
            g, "db", lambda k: f"state {state} at {profile.frequencies[k]} Hz"))
        for state, g in zip(profile.states, profile.gamma)
    )
    return _csv_text(STATE_CSV_HEADER, comments, body)
