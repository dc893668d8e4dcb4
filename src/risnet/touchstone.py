"""Touchstone v1 S-parameter files, per-state reflection CSV, and the numeric
text layer that every risnet file format goes through.

Supports 1- and 2-port networks in RI, MA, and DB formats with Hz/kHz/MHz/GHz
frequency units; a 2-port noise-parameter block is skipped. Version-2 keyword
files are rejected. The state CSV format (header
``freq_hz,state,mag_db,phase_deg``) carries measured or computed
per-switching-state reflection coefficients on a complete state-by-frequency
grid.

Each reader splits its text into lines once, finds its header or option line
and hands the raw lines after it to one ``np.loadtxt`` call (a CSV reader skips
it when a ``#`` follows its header). Where loadtxt refuses the raw lines,
:func:`_data_lines` strips them and keeps those that are neither blank nor
comments, and then a per-line cast runs over them, which accepts exactly what
``float()`` and ``int()`` accept and stops at the first faulty line. Rows are
numbered on every read: by position when loadtxt skipped no line, otherwise
by the line lengths in a CSV (where loadtxt skips only empty lines) or by the
one :func:`_data_lines` pass (:func:`_row_lines`). Every row
and table rule then runs once, vectorized, and names its line. Every writer
formats its table with numpy in one :func:`_format_rows` call, in blocks of
about ``_CHUNK`` values, each float byte for byte as ``'%.12g' %`` prints it:
in bulk where the rounding is certain (:func:`_g_text`), and through
``'%.12g' %`` itself where it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, count

import numpy as np

from .errors import FrequencyRangeError, InputDataError, StateCsvError, TouchstoneParseError

# Speed of light in vacuum, m/s (exact SI value).
C0 = 299_792_458.0

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

# One state CSV row; the header is its field names.
_STATE_ROW = np.dtype(
    [("freq_hz", float), ("state", np.int64), ("mag_db", float), ("phase_deg", float)]
)
STATE_CSV_HEADER = ",".join(_STATE_ROW.names)

# Magnitude floor used when writing exact zeros in dB-based formats.
_DB_FLOOR = -600.0

_MAX_STATE = 2**31

# A passive surface reflects at most what falls on it: a |gamma| or a sigma_max
# above 1 + this is nonphysical (and a 0 dB profile or a lossless network is not).
GAIN_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PortNetwork:
    """A 1- or 2-port scattering-parameter sweep.

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
        if self.n_ports not in (1, 2):
            raise InputDataError(f"n_ports must be 1 or 2, got {self.n_ports}")
        if self.reference_impedance <= 0:
            raise InputDataError("reference impedance must be > 0")
        if not math.isfinite(self.reference_impedance):
            raise InputDataError("reference impedance must be finite")
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

    def sigma_max(self) -> np.ndarray:
        """The largest singular value of S at each frequency, of a 2-port only.

        In closed form, sigma_max^2 = (|S|_F^2 + sqrt(|S|_F^4 - 4 |det S|^2)) / 2.
        With p and r the squared norms of the two columns and q their inner
        product, the root's argument is (p - r)^2 + 4 |q|^2, which does not cancel
        when the two singular values are close (a lossless network has both at 1).
        S is first divided by its largest real or imaginary part, so no square
        overflows; a value past the float range reads inf.
        """
        _require_ports(self, 2)
        s = self.s
        scale = np.max(np.maximum(np.abs(s.real), np.abs(s.imag)), axis=(1, 2))
        d = np.where(scale > 0, scale, 1.0)[:, None, None]
        u = s.real / d + 1j * (s.imag / d)  # a complex division by a subnormal d overflows
        p, r = np.sum(u.real**2 + u.imag**2, axis=1).T
        q = np.sum(np.conj(u[:, :, 0]) * u[:, :, 1], axis=1)
        with np.errstate(over="ignore"):
            return scale * np.sqrt((p + r + np.hypot(p - r, 2.0 * np.abs(q))) / 2.0)


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
        _require_power_of_two(n, InputDataError)
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


def _wrap180(deg):
    """Phase differences (degrees) wrapped into [-180, 180)."""
    return (np.asarray(deg) + 180.0) % 360.0 - 180.0


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
        raise error(message, None if line_nos is None else line_nos[np.argmax(rows)])


def _require_in_sweep(sweep_f: np.ndarray, f) -> None:
    """Raise :class:`FrequencyRangeError` unless every ``f`` lies in ``sweep_f``'s span."""
    f = np.ravel(np.asarray(f, dtype=float))
    outside = ~((f >= sweep_f[0]) & (f <= sweep_f[-1]))
    if np.any(outside):
        f_out, lo, hi = float(f[np.argmax(outside)]), float(sweep_f[0]), float(sweep_f[-1])
        raise FrequencyRangeError(f"frequency {f_out} Hz not contained in sweep [{lo}, {hi}] Hz")


def _require_power_of_two(n: int, error) -> None:
    """Raise ``error`` unless the state count ``n`` is a power of two (1 included)."""
    if n < 1 or n & (n - 1):
        raise error(f"state count {n} is not a power of two")


def _require_ports(net: PortNetwork, n: int) -> None:
    """Raise InputDataError unless ``net`` is an ``n``-port."""
    if net.n_ports != n:
        raise InputDataError(f"need a {n}-port network, got {net.n_ports} ports")


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
            if not math.isfinite(seen[kind]):
                raise TouchstoneParseError(f"reference impedance '{value}' is not finite", line_no)
    unit, fmt, _, z0 = (seen.get(kind, default) for kind, _, default in _OPTION_KINDS)
    return unit, fmt, z0


def _pairs_to_complex(a: np.ndarray, b: np.ndarray, fmt: str) -> np.ndarray:
    if fmt == "ri":
        return a + 1j * b
    if fmt == "ma":
        return a * np.exp(1j * np.deg2rad(b))
    # DB: a is 20*log10(magnitude), b is angle in degrees. float_power rounds
    # exactly like the scalar **; np.power can differ in the last bit.
    return np.float_power(10.0, a / 20.0) * np.exp(1j * np.deg2rad(b))


def _data_lines(lines: list, comment: str, start: int) -> tuple:
    """The stripped lines of ``lines[start:]`` not blank or ``comment`` lines, and their numbers."""
    kept = [(n, s) for n, s in enumerate(map(str.strip, lines[start:]), start + 1)
            if s and s[0] != comment]
    return [s for _, s in kept], [n for n, _ in kept]


def _row_lines(lines: list, comment: str | None, start: int, n_rows: int) -> tuple:
    """The lines and line numbers of the ``n_rows`` rows loadtxt read from ``lines[start:]``.

    When loadtxt kept every line, row r is line ``start + 1 + r``; when it can
    skip only empty lines (``comment`` None), its rows are the others, and
    otherwise :func:`_data_lines` numbers the lines it kept.
    """
    if n_rows == len(lines) - start:
        return lines[start:], range(start + 1, start + 1 + n_rows)
    if comment is None:
        return list(filter(None, lines[start:])), list(compress(count(start + 1), lines[start:]))
    return _data_lines(lines, comment, start)


def _head(lines: list, comment: str, start: int = 0):
    """The index of the first line from ``start`` neither blank nor a ``comment`` line, or None."""
    return next((i for i in range(start, len(lines))
                 if (s := lines[i].strip()) and s[0] != comment), None)


def _v2_keyword(line: str, line_no: int) -> TouchstoneParseError:
    return TouchstoneParseError(
        f"Touchstone v2 keyword '{line.split()[0]}' not supported (this reader accepts v1 only)",
        line_no,
    )


def _touchstone_row(line_no: int, line: str) -> list:
    """The values of a line after the option line.

    A v2 keyword, a second option line or a token that ``float()`` refuses
    raises at the line.
    """
    if line[0] == "[":
        raise _v2_keyword(line, line_no)
    if line[0] == "#":
        raise TouchstoneParseError("duplicate option line", line_no)
    values = []
    for tok in line.split("!", 1)[0].split():
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
    skipped. All errors carry the offending line number. The raw lines after
    the option line go to one ``np.loadtxt`` call, whose rows are numbered by
    :func:`_row_lines`; where it refuses them, the data lines of
    :func:`_data_lines` are read one by one.
    """
    lines = text.splitlines()
    head = _head(lines, "!")
    if head is None:
        raise TouchstoneParseError("missing option line", 1)
    option = lines[head].strip()
    if option[0] == "[":
        raise _v2_keyword(option, head + 1)
    if option[0] != "#":
        raise TouchstoneParseError("data before option line", head + 1)
    option = _parse_option_line(option, head + 1)
    if _head(lines, "!", head + 1) is None:
        raise TouchstoneParseError("no data records", 1)
    try:
        table = np.loadtxt(lines[head + 1:], comments="!", ndmin=2)
        values, counts = table.ravel(), np.full(len(table), table.shape[1])
        _, line_nos = _row_lines(lines, "!", head + 1, len(table))
    except ValueError:  # a noise block, a v2 keyword or a spelling only float() reads
        rows, line_nos = _data_lines(lines, "!", head + 1)
        records = [_touchstone_row(n, line) for n, line in zip(line_nos, rows)]
        values = np.array([v for record in records for v in record])
        counts = np.array([len(record) for record in records], dtype=np.int64)
    return _network(option, values, counts, line_nos)


def _network(option: tuple, values: np.ndarray, counts: np.ndarray, line_nos) -> PortNetwork:
    """The network of a Touchstone text whose records hold ``counts`` of ``values`` in turn."""
    unit, fmt, z0 = option
    n_values = int(counts[0])
    n_ports = {3: 1, 9: 2}.get(n_values)
    if n_ports is None:
        raise TouchstoneParseError(
            f"expected 3 (1-port) or 9 (2-port) values per record, got {n_values}", line_nos[0]
        )

    with np.errstate(over="ignore"):  # a frequency that overflows is rejected by line below
        f_hz = values[np.cumsum(counts) - counts] * _FREQ_SCALE[unit]
    odd = np.flatnonzero(counts != n_values)
    n_points = int(odd[0]) if odd.size else counts.size
    freqs = _frequency_grid(f_hz[:n_points], TouchstoneParseError, line_nos)
    if n_points < counts.size:
        k = n_points
        if not (n_ports == 2 and counts[k] == 5 and f_hz[k] <= f_hz[k - 1]):
            raise TouchstoneParseError(
                f"expected {n_values} values per record, got {counts[k]}", line_nos[k]
            )
        bad = np.flatnonzero(counts[k:] != 5)
        if bad.size:
            raise TouchstoneParseError(
                f"expected 5 values per noise-parameter record, got {counts[k + bad[0]]}",
                line_nos[k + bad[0]],
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


def _digit_tables() -> tuple:
    """The ASCII digits of 0000..9999, (10000, 4) uint8, and the trailing zeros of each (4 for 0)."""
    digits = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T) + np.uint8(48)
    zero = digits == 48
    trailing = zero[:, 3] * (1 + zero[:, 2] * (1 + zero[:, 1] * (1 + zero[:, 0])))
    return digits, trailing.astype(np.uint8)


_DIGITS, _TRAILING_ZEROS = _digit_tables()
# Slots of one %.12g field: a sign, the "0.000" before a fixed-point value under
# 1, twelve digits each followed by a slot for the point (but the last), and
# "e+XX". A 0 byte is an empty slot.
_FIELD = 33
_CHUNK = 8192  # values formatted per block of rows


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 10**(11 - e)``, rounded once: a product or a quotient by an exact power of ten."""
    k = 11 - e
    p = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 1e0..1e22, each exact
    y = a * p[np.maximum(k, 0)]
    below = np.flatnonzero(k < 0)
    y[below] = a[below] / p[-k[below]]
    return y


def _g_text(x: np.ndarray) -> np.ndarray:
    """The ``'%.12g' % v`` text of each float ``v`` of ``x``, one row of ``_FIELD`` ASCII codes each.

    A value with 1e-10 <= |v| < 1e30 is scaled by one exact power of ten to
    12 integer digits. The scaled value is within 6.1e-5 (half an ulp below
    2**40) of the exact product, so rounding it to an integer is exact unless
    its fraction is within 1e-3 of 0.5. Those values, zeros, non-finite values
    and magnitudes outside the range go through ``'%.12g' %`` one by one.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    fast = (a >= 1e-10) & (a < 1e30)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)  # off by one at most, next to a power of ten
    y = _scaled(a, e)
    off = np.flatnonzero((y < 1e11) | (y >= 1e12))
    e[off] += np.where(y[off] < 1e11, -1, 1)
    y[off] = _scaled(a[off], e[off])
    whole = np.floor(y)
    frac = y - whole
    m = whole.astype(np.int64) + (frac > 0.5)
    carry = np.flatnonzero(m == 10**12)
    m[carry] = 10**11
    e[carry] += 1
    fast &= (np.abs(frac - 0.5) >= 1e-3) & (m >= 10**11) & (m < 10**12)

    q8, q4 = m // 10**8, m // 10**4
    groups = [q8, q4 - q8 * 10**4, m - q4 * 10**4]  # digits 1-4, 5-8 and 9-12 of m
    digits = np.stack([_DIGITS.view(np.uint32)[g, 0] for g in groups], axis=1)  # 4 ASCII codes each
    zeros = [_TRAILING_ZEROS[g] for g in groups]
    n_digits = 12 - np.where(groups[2], zeros[2], 4 + np.where(groups[1], zeros[1], 4 + zeros[0]))
    fixed = (e >= -4) & (e < 12)
    shown = np.maximum(n_digits, np.where(fixed, e + 1, 0))  # a fixed integer keeps its zeros
    keep = (np.arange(12) < np.arange(13)[:, None]).astype(np.uint8) * np.uint8(255)
    digits &= keep.view(np.uint32)[shown]  # keep[c] keeps the first c digits

    out = np.zeros((x.size, _FIELD), np.uint8)
    out[:, 0] = (x < 0).view(np.uint8) * np.uint8(ord("-"))
    lead = fixed & (e < 0)  # 1e-4 <= |v| < 1: "0." and up to three zeros
    if lead.any():
        for j, (char, below) in enumerate(zip("0.000", (0, 0, -1, -2, -3)), start=1):
            out[:, j] = (lead & (e < below)).view(np.uint8) * np.uint8(ord(char))
    out[:, 6:29:2] = digits.view(np.uint8)
    point = np.where(fixed, e, 0)  # the digit the point follows; none when negative
    rows = np.flatnonzero((point >= 0) & (point + 1 < n_digits))
    out.reshape(-1)[rows * _FIELD + 7 + 2 * point[rows]] = ord(".")
    rows = np.flatnonzero(~fixed)
    out[rows, 29] = ord("e")
    out[rows, 30] = np.where(e[rows] < 0, ord("-"), ord("+"))
    out[rows, 31:33] = _DIGITS[np.abs(e[rows]), 2:]

    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.12g" % v for v in x[slow].tolist()]
        out[slow] = np.array(text, dtype=f"S{_FIELD}").view(np.uint8).reshape(-1, _FIELD)
    return out


def _block_rows(n_fields: int) -> int:
    """Rows per block of a table whose rows hold ``n_fields`` formatted fields."""
    return max(1, _CHUNK // n_fields)


def _format_rows(row_format: str, *columns) -> str:
    """One ``row_format`` line per row of ``columns``, built in blocks of rows.

    ``row_format`` holds one ``%.12g`` or ``%s`` field per column, in order,
    and ends in a newline; the text between the fields is written as it is. A
    ``%.12g`` field prints its float exactly as :func:`_fmt` does. A ``%s``
    field writes its row of a text column: a uint8 matrix of ASCII codes, 0 in
    the slots a row leaves empty, as :func:`_g_text` returns. A block holds
    :func:`_block_rows` rows, about ``_CHUNK`` values, and formats its floats
    in one :func:`_g_text` call.
    """
    first, *fields = row_format.split("%")
    n_rows, step = len(columns[0]), _block_rows(len(columns))
    literal = lambda s: np.broadcast_to(np.frombuffer(s.encode(), np.uint8), (n_rows, len(s)))
    pieces = [literal(first)]  # uint8 text, written as it is, and float columns
    for field, c in zip(fields, columns):
        text = field[0] == "s"
        pieces += [c if text else np.asarray(c, dtype=float), literal(field[1 if text else 4:])]
    floats = [p for p in pieces if p.dtype == float]
    blocks = []
    for start in range(0, n_rows, step):
        stop = min(start + step, n_rows)
        values = np.stack([f[start:stop] for f in floats], axis=1).ravel()
        g = iter(_g_text(values).reshape(stop - start, len(floats), _FIELD).transpose(1, 0, 2))
        parts = [next(g) if p.dtype == float else p[start:stop] for p in pieces]
        blocks.append(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode())
    return "".join(blocks)


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


def _read_csv(text: str, dtype: np.dtype, error) -> tuple:
    """``(rows, lines, line_nos, fault)`` of a headed CSV text, ``rows`` indexed by field name.

    Blank and ``#`` comment lines are skipped. The first other line must be the
    header, the field names of ``dtype`` (compared after stripping). Unless a
    ``#`` follows it, ``np.loadtxt`` reads the raw lines after it, skipping
    empty ones, and :func:`_row_lines` numbers its rows: by position when it
    skipped none, and otherwise by their lengths. Where a ``#`` follows the
    header or loadtxt refuses the raw lines, it reads the data ``lines`` of
    :func:`_data_lines`, and where it refuses those,
    :func:`_csv_rows` casts them line by line. ``fault`` is the error of the
    first line that no cast accepts, unraised, and ``rows`` holds the rows
    before it; it is None when every line is read.
    """
    lines = text.splitlines()
    head = _head(lines, "#")
    if head is None:
        raise error("missing header line", 1)
    header, names = lines[head].strip(), list(dtype.names)
    if [f.strip() for f in header.split(",")] != names:
        raise error(f"expected header '{','.join(names)}', got '{header}'", head + 1)
    if _head(lines, "#", head + 1) is None:  # loadtxt would warn
        return np.zeros(0, dtype), [], [], None
    read = lambda rows: np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    if text.find("#", text.find(lines[head])) < 0:  # loadtxt refuses a line with a "#"
        try:
            rows = read(lines[head + 1:])
            return rows, *_row_lines(lines, None, head + 1, len(rows)), None
        except ValueError:
            pass
    lines, line_nos = _data_lines(lines, "#", head + 1)
    try:
        return read(lines), lines, line_nos, None
    except ValueError:  # a spelling only float() or int() reads, or a faulty line
        rows, fault = _csv_rows(lines, line_nos, dtype, error)
        return rows, lines, line_nos, fault


def _csv_rows(lines: list, line_nos, dtype: np.dtype, error) -> tuple:
    """``(rows, fault)`` of CSV data ``lines``, cast line by line up to the first faulty one.

    Each line must hold one comma-separated field per name of ``dtype``, which
    ``int()`` or ``float()`` accepts as that field is an integer or not. The
    first line that does not gives ``fault = error(message, line_no)``.
    ``rows`` maps each name to the column of the lines before it; an integer
    column holds Python ints, so that a value past int64 reaches the row rules.
    """
    names = list(dtype.names)
    casts = [int if dtype[name].kind == "i" else float for name in names]
    rows, fault = [], None
    for line_no, line in zip(line_nos, lines):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(names):
            fault = error(f"expected {len(names)} comma-separated fields, got {len(fields)}",
                          line_no)
            break
        try:
            rows.append([cast(f) for cast, f in zip(casts, fields)])
        except ValueError:
            fault = error(f"non-numeric field in '{','.join(fields)}'", line_no)
            break
    columns = zip(*rows) if rows else [()] * len(names)
    return {name: np.array(column, dtype=object if cast is int else float)
            for name, cast, column in zip(names, casts, columns)}, fault


def _csv_text(header: str, comments: tuple, body: str) -> str:
    """Comment lines, the header line and the formatted rows of a CSV text."""
    return "".join(f"# {c}\n" for c in comments) + header + "\n" + body


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique`` without its first-call import of ``numpy.ma`` (about 1 MB)."""
    s = np.sort(x)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def load_state_csv(text: str) -> ReflectionProfile:
    """Read a per-state reflection CSV into a :class:`ReflectionProfile`.

    Header must be ``freq_hz,state,mag_db,phase_deg``; ``#`` comment lines
    are ignored. Rows must cover the complete state-by-frequency grid with
    no duplicates. Gamma is reconstructed as 10^(mag_db/20) * exp(j*phase).
    A row's own rules (its state index, then its frequency) are checked
    before a later line's fault, and the table's rules after every line.
    """
    rows, lines, line_nos, fault = _read_csv(text, _STATE_ROW, StateCsvError)
    f_hz, state = rows["freq_hz"], rows["state"]
    bad = (state < 0) | (state >= _MAX_STATE) | ~np.isfinite(f_hz)
    if bad.any():
        r = int(np.argmax(bad))
        if state[r] < 0:
            raise StateCsvError(f"negative state index {state[r]}", line_nos[r])
        if state[r] >= _MAX_STATE:
            raise StateCsvError(f"state index {state[r]} out of range", line_nos[r])
        raise StateCsvError(f"non-finite frequency {lines[r].split(',')[0].strip()}", line_nos[r])
    if fault is not None:
        raise fault
    if not f_hz.size:
        raise StateCsvError("no data rows", 1)
    state = state.astype(np.int64)  # every index is in range now
    _reject_rows(f_hz < 0, StateCsvError, "frequencies must be non-negative", line_nos)
    freqs = _sorted_unique(f_hz)
    states = _sorted_unique(state)
    k = np.searchsorted(freqs, f_hz)
    i = np.searchsorted(states, state)
    cell = i * freqs.size + k
    order = np.argsort(cell, kind="stable")
    repeats = order[1:][cell[order[1:]] == cell[order[:-1]]]
    if repeats.size:
        r = int(repeats.min())
        raise StateCsvError(f"duplicate row for state {int(state[r])} at {f_hz[r]} Hz", line_nos[r])
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
    _require_power_of_two(n, StateCsvError)
    with np.errstate(all="ignore"):  # inf or overflowing values; rejected by line below
        gamma_rows = _pairs_to_complex(rows["mag_db"], rows["phase_deg"], "db")
    _reject_rows(~np.isfinite(gamma_rows), StateCsvError, "gamma entries must be finite", line_nos)
    gamma = np.empty((n, freqs.size), dtype=complex)
    gamma[i, k] = gamma_rows
    return ReflectionProfile(states=tuple(int(s) for s in states), frequencies=freqs, gamma=gamma)


def dump_state_csv(profile: ReflectionProfile, comments: tuple = ()) -> str:
    """Render a profile as state CSV text (inverse of :func:`load_state_csv`)."""
    freqs, n_f = profile.frequencies, profile.frequencies.size
    db, ang = _polar_columns(profile.gamma.ravel(), "db", lambda k: (
        f"state {profile.states[k // n_f]} at {freqs[k % n_f]} Hz"))
    labels = np.array([[f",{s},"] for s in profile.states], dtype=bytes).view(np.uint8)
    k = np.arange(db.size)
    body = _format_rows("%s%s%.12g,%.12g\n", _g_text(freqs)[k % n_f], labels[k // n_f], db, ang)
    return _csv_text(STATE_CSV_HEADER, comments, body)
