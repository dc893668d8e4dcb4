"""Switchable reflective terminations: SPDT open/ground, SP8T stub banks.

An SPDT throw presents an open (+1) or grounded (-1) termination, giving the
two-state 0/180 degree load. The eight-state load connects open- or
short-circuited microstrip stubs of different lengths to an SP8T switch; the
stub lengths are synthesized here so the per-state reflection phases land on
the 45-degree ladder.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import InputDataError
from .network import cascade, interp_s, profile_from_network
from .touchstone import (
    C0,
    PortNetwork,
    ReflectionProfile,
    _require_in_sweep,
    _require_ports,
    _wrap180,
    parse_touchstone,
    serialize_touchstone,
)

TERMINATIONS = ("open", "short")

# A stub's reflection is the open stub's times its termination's sign, exactly.
_SIGN = {"open": 1.0, "short": -1.0}

# Eight-state target reflection phases, degrees.
SP8T_TARGETS_DEG = tuple(45.0 * i for i in range(8))

_COARSE_POINTS = 64
_ZOOM_POINTS = 8  # intervals per rescan of a bracket

# The design JSON type of a number field.
_NUMBER = (int, float)


@dataclass(frozen=True)
class MicrostripLine:
    """Microstrip cross-section plus a scalar loss model.

    ``loss_db_per_m`` is the attenuation at ``reference_frequency`` (Hz) and
    scales with sqrt(f/reference_frequency). Dispersion is ignored; the
    quasi-static effective permittivity is used at all frequencies.
    """

    width: float
    substrate_height: float
    epsilon_r: float
    loss_db_per_m: float = 0.0
    reference_frequency: float = 3.6e9

    def __post_init__(self):
        if self.width <= 0 or self.substrate_height <= 0:
            raise ValueError("width and substrate height must be > 0")
        if self.epsilon_r < 1:
            raise ValueError("epsilon_r must be >= 1")
        if self.loss_db_per_m < 0:
            raise ValueError("loss must be >= 0")
        if self.reference_frequency <= 0:
            raise ValueError("reference frequency must be > 0")
        if not all(math.isfinite(v) for v in vars(self).values()):
            raise ValueError("line parameters must be finite")


@dataclass(frozen=True)
class StubState:
    """One switch throw: a stub of ``length_m`` ending open or short.

    ``residual_deg`` is the phase error against the state's target at the
    design center frequency, filled in by synthesis (None for hand-built
    designs).
    """

    state: int
    termination: str
    length_m: float
    residual_deg: float | None = None

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise ValueError(f"termination must be one of {TERMINATIONS}")
        if not 0 <= self.length_m < math.inf:
            raise ValueError("stub length must be finite and >= 0")


@dataclass(frozen=True)
class StubNetworkDesign:
    """The SP8T stub bank: states 0..7 in order, 4 open and 4 short, behind one switch model.

    ``switch`` is a measured 2-port per throw, or None for an ideal switch.
    """

    states: tuple
    line: MicrostripLine
    switch: PortNetwork | None = None

    def __post_init__(self):
        if (labels := [st.state for st in self.states]) != list(range(8)):
            raise ValueError(f"8-state design needs states 0..7 in order, got {labels}")
        n_open = sum(1 for st in self.states if st.termination == "open")
        if n_open != 4:
            raise ValueError(
                f"8-state design needs 4 open and 4 short terminations, got {n_open} open"
            )

    def to_json(self, f_center_hz: float | None = None) -> str:
        doc = {
            "line": _json_object(self.line),
            "switch": "ideal" if self.switch is None else {
                "touchstone": serialize_touchstone(self.switch, "RI", "Hz")
            },
            "states": [_json_object(st) for st in self.states],
        }
        if f_center_hz is not None:
            doc["f_center_hz"] = f_center_hz
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "StubNetworkDesign":
        """Inverse of :meth:`to_json`; a malformed document raises InputDataError."""
        try:
            doc = json.loads(text)
            line = _from_json_object(MicrostripLine, _json_field(doc, "line", dict), "line")
            switch_doc = _json_field(doc, "switch", (str, dict))
            switch = None
            if switch_doc != "ideal":
                switch = parse_touchstone(_json_field(switch_doc, "touchstone", str, "switch"))
            states = tuple(
                _from_json_object(StubState, st, f"states[{i}]")
                for i, st in enumerate(_json_field(doc, "states", list))
            )
            return cls(states=states, line=line, switch=switch)
        except InputDataError:
            raise
        except ValueError as e:
            raise InputDataError(f"design JSON: {e}") from None


# The design JSON schema: per object, (JSON key, attribute, accepted types) of
# each field, in document order. A field's default is its dataclass default.
_JSON_FIELDS = {
    MicrostripLine: (
        ("width_m", "width", _NUMBER),
        ("substrate_height_m", "substrate_height", _NUMBER),
        ("epsilon_r", "epsilon_r", _NUMBER),
        ("loss_db_per_m", "loss_db_per_m", _NUMBER),
        ("reference_frequency_hz", "reference_frequency", _NUMBER),
    ),
    StubState: (
        ("state", "state", int),
        ("termination", "termination", str),
        ("length_m", "length_m", _NUMBER),
        ("residual_deg", "residual_deg", _NUMBER + (type(None),)),
    ),
}


def _json_object(obj) -> dict:
    """The design JSON object of a line or stub state, keys in table order."""
    return {key: getattr(obj, attr) for key, attr, _ in _JSON_FIELDS[type(obj)]}


def _from_json_object(cls, node, path: str):
    """Inverse of :func:`_json_object`: a ``cls`` built from the object at ``path``."""
    defaults = {f.name: f.default for f in fields(cls)}
    return cls(**{
        attr: _json_field(node, key, kind, path, defaults[attr])
        for key, attr, kind in _JSON_FIELDS[cls]
    })


def _json_field(node, key: str, kind, parent: str = "", default=MISSING):
    """``node[key]`` of a design JSON document, checked against the types ``kind``.

    A missing field without a ``default``, or a mistyped one, raises
    InputDataError naming its path.
    """
    path = f"{parent}.{key}" if parent else key
    if not isinstance(node, dict):
        raise InputDataError(f"design JSON: '{parent or 'document'}' must be an object")
    value = node.get(key, default)
    if value is MISSING:
        raise InputDataError(f"design JSON: missing field '{path}'")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputDataError(
            f"design JSON: field '{path}' has the wrong type ({type(value).__name__})"
        )
    return value


def microstrip_eeff(line: MicrostripLine) -> float:
    """Quasi-static effective permittivity (Hammerstad-Jensen closed form)."""
    u = line.width / line.substrate_height
    er = line.epsilon_r
    try:
        u4 = u**4
    except OverflowError:
        raise ValueError(f"width/height ratio {u} is out of range") from None
    a = 1.0 + math.log((u4 + (u / 52.0) ** 2) / (u4 + 0.432)) / 49.0
    a += math.log(1.0 + (u / 18.1) ** 3) / 18.7
    b = 0.564 * ((er - 0.9) / (er + 3.0)) ** 0.053
    return (er + 1.0) / 2.0 + (er - 1.0) / 2.0 * (1.0 + 10.0 / u) ** (-a * b)


def guided_wavelength(line: MicrostripLine, f: float) -> float:
    """Wavelength on the line at ``f`` (Hz)."""
    return C0 / (f * math.sqrt(microstrip_eeff(line)))


def stub_reflection(length, termination: str, f, line: MicrostripLine):
    """Reflection looking into an open/short stub of ``length`` metres at ``f``.

    Lossless phase is exp(-j*2*beta*l), negated for a short; magnitude decays
    with the round-trip line loss. ``length`` and ``f`` may be scalars or
    arrays that broadcast together. A loss or phase past the float range
    raises InputDataError.
    """
    if termination not in TERMINATIONS:
        raise ValueError(f"termination must be one of {TERMINATIONS}")
    if np.any(np.asarray(length) < 0):
        raise ValueError("stub length must be >= 0")
    f = np.asarray(f, dtype=float)
    sign = _SIGN[termination]
    mag = ratio = 1.0  # a lossless line skips the loss term: 10**-0.0 is exactly 1
    with np.errstate(over="ignore", invalid="ignore"):
        beta = 2.0 * np.pi * f * math.sqrt(microstrip_eeff(line)) / C0
        if line.loss_db_per_m:
            ratio = f / line.reference_frequency
            alpha_db = line.loss_db_per_m * np.sqrt(ratio)
            mag = np.float_power(10.0, -2.0 * alpha_db * length / 20.0)
        out = sign * mag * np.exp(-2j * beta * length)
    if not np.isfinite(out).all():  # the phase grows with f, so it overflows at the top
        if not np.isfinite(ratio).all():
            cause = f"loss reference frequency of {line.reference_frequency:.12g} Hz"
        elif not np.isfinite(mag).all():
            cause = f"line loss of {line.loss_db_per_m:.12g} dB/m"
        else:
            cause = f"stub phase at {np.max(f):.12g} Hz"
        raise InputDataError(f"the {cause} overflows the stub model")
    return out if out.ndim else complex(out)


def _stub_bank(signs: np.ndarray, lengths, f, line: MicrostripLine) -> np.ndarray:
    """Reflections of stubs with termination ``signs`` (states,), one per row of ``lengths``.

    ``lengths`` (states, ...) broadcasts against ``f``; one open-stub call
    serves every state.
    """
    g = stub_reflection(lengths, "open", f, line)
    return signs.reshape(signs.shape + (1,) * (g.ndim - 1)) * g


def spdt_load_profile(switch: PortNetwork | None, frequencies) -> ReflectionProfile:
    """Two-state load: open throw (state 0) and grounded throw (state 1).

    An ideal switch yields exactly +1 and -1 at every frequency; a measured
    switch network cascades the open/ground terminations through its 2-port.
    """
    f = np.asarray(frequencies, dtype=float)
    gamma = np.outer([1.0, -1.0], np.ones(f.shape))
    bare = ReflectionProfile(states=(0, 1), frequencies=f, gamma=gamma)
    return bare if switch is None else profile_from_network(switch, bare)


def sp8t_load_profile(design: StubNetworkDesign, frequencies) -> ReflectionProfile:
    """Eight-state load profile of a stub-bank design, seen through its switch."""
    f = np.asarray(frequencies, dtype=float)
    signs = np.array([_SIGN[st.termination] for st in design.states])
    lengths = np.array([[st.length_m] for st in design.states])
    gamma = _stub_bank(signs, lengths, f, design.line)
    bare = ReflectionProfile(states=tuple(range(8)), frequencies=f, gamma=gamma)
    return bare if design.switch is None else profile_from_network(design.switch, bare)


def _lossless_solution_deg(target_deg: float) -> tuple:
    """(termination, electrical length in degrees) with the shorter stub.

    Open stub phase is -2*beta*l, short stub phase is 180 - 2*beta*l; the
    termination whose zero-loss solution needs the smaller electrical length
    wins. Over the eight 45-degree targets this forces 4 open / 4 short and
    keeps every electrical length at or below 67.5 degrees.
    """
    bl_open = ((360.0 - target_deg) % 360.0) / 2.0
    bl_short = ((180.0 - target_deg) % 360.0) / 2.0
    if bl_open <= bl_short:
        return "open", bl_open
    return "short", bl_short


def ideal_sp8t_design(line: MicrostripLine, f_center: float) -> StubNetworkDesign:
    """Closed-form stub bank hitting the 45-degree ladder exactly at ``f_center``."""
    lam_g = guided_wavelength(line, f_center)
    states = []
    for i, target in enumerate(SP8T_TARGETS_DEG):
        term, bl_deg = _lossless_solution_deg(target)
        states.append(StubState(state=i, termination=term, length_m=bl_deg / 360.0 * lam_g))
    return StubNetworkDesign(states=tuple(states), line=line, switch=None)


def _squared_wrap(phase_deg: np.ndarray, target_deg) -> np.ndarray:
    """``_wrap180(phase_deg - target_deg) ** 2`` bit for bit, without ``np.remainder``.

    Phases lie in [-180, 180] and targets in [0, 315], so v = (phase - target)
    + 180 lies in [-315, 360]. There ``v % 360`` is v itself, except below 0,
    where it is v + 360 rounded once, and at 360, where it is 0. Only the
    first exception needs a correction: 360 - 180 and 0 - 180 differ only in
    sign, which the square removes.
    """
    v = phase_deg - target_deg
    v += 180.0
    v += 360.0 * (v < 0.0)  # v + 0.0 is v
    v -= 180.0
    return v * v


def synthesize_stub_lengths(
    switch: PortNetwork | None,
    line: MicrostripLine,
    f_center: float,
    band,
    n_band_points: int = 21,
) -> StubNetworkDesign:
    """Fit the eight stub lengths to the 45-degree phase ladder over a band.

    Terminations come from the minimal-length zero-loss rule. Each length
    minimizes the weighted mean-square circular error between the realized
    and target phases on the band grid (``n_band_points`` >= 2 uniform points,
    or the single point for a degenerate band) over [0, lambda_g/2). The
    objective is periodic in length, so a coarse scan of 65 points, from 0 to
    lambda_g/2 inclusive, brackets each minimum first by the neighbours of its
    best point among the first 64. Each bracket is then rescanned at 9 evenly
    spaced lengths, keeping the two neighbours of the best one, until all are
    narrower than lambda_g/2 * 1e-9; one objective call serves all eight
    states per scan, and a bracket that is narrow enough keeps narrowing until
    all are. States that share a termination share the coarse scan's stubs,
    so it cascades each termination once. Every rescan evaluates only its 7
    interior lengths and reuses the objective at its ends, which the scan
    before it evaluated at the same floats.

    Each state's ``residual_deg`` is the phase error of the design's own
    :func:`sp8t_load_profile` at ``f_center``; for an ideal switch and
    moderate fractional bandwidths (the 14% default band included) it stays
    below a degree.
    """
    f_lo, f_hi = float(band[0]), float(band[1])
    if not (f_lo <= f_center <= f_hi):
        raise ValueError(f"band [{f_lo}, {f_hi}] Hz must contain f_center {f_center} Hz")
    if f_lo <= 0:
        raise ValueError("band frequencies must be > 0")
    if not (f_hi - f_lo) * (f_hi - f_lo) * n_band_points < math.inf:  # keeps sum(offsets**2) finite
        raise ValueError(f"band [{f_lo}, {f_hi}] Hz is too wide to weight")
    if switch is not None:
        _require_ports(switch, 2)
        _require_in_sweep(switch.frequencies, (f_lo, f_hi))
    if f_hi > f_lo and n_band_points < 2:
        raise ValueError(f"a band with f_hi > f_lo needs n_band_points >= 2, got {n_band_points}")
    grid = np.array([f_lo]) if f_hi == f_lo else np.linspace(f_lo, f_hi, n_band_points)
    # Uniform weights when the band is symmetric about f_center. Otherwise tilt
    # linearly so the weighted band centroid lands on f_center, keeping the
    # fitted phase anchored there (a plain uniform fit on an off-center band
    # drags the zero-error frequency to the band mean).
    offsets = grid - f_center
    s2 = float(np.sum(offsets**2))
    lam = 0.0 if s2 == 0 else -float(np.sum(offsets)) / s2
    w = np.maximum(1.0 + lam * offsets, 0.0)
    w = w / np.sum(w)

    s_grid = None if switch is None else interp_s(switch, grid)
    terms = [_lossless_solution_deg(target)[0] for target in SP8T_TARGETS_DEG]
    kinds = [TERMINATIONS.index(term) for term in terms]  # each state's termination
    targets = np.array(SP8T_TARGETS_DEG)
    rows = np.arange(8)

    def phases(signs, lengths, states) -> np.ndarray:
        """Realized phases (degrees) of the stubs ``signs`` x rows of ``lengths`` on the band grid.

        ``states`` names each row's state in a cascade error.
        """
        g = _stub_bank(signs, lengths[..., None], grid, line)
        if s_grid is not None:
            g = cascade(s_grid, g, lambda ijk: f"state {states[ijk[0]]} at {grid[ijk[2]]} Hz")
        return np.angle(g, deg=True)

    def objective(phase) -> np.ndarray:
        """Weighted mean-square wrapped phase error (states x lengths) of band-grid ``phase``."""
        return np.sum(w * _squared_wrap(phase, targets[:, None, None]), axis=2)

    period = guided_wavelength(line, f_center) / 2.0
    coarse = np.linspace(0.0, period, _COARSE_POINTS + 1)  # coarse[0] is 0.0, the lowest bound
    # States with one termination see the same stubs, so the coarse scan runs
    # once per termination and names the lowest state of a failing one: the
    # state an (8, 65, F) scan would name first.
    first = [terms.index(term) for term in TERMINATIONS]
    signs = np.array([_SIGN[term] for term in TERMINATIONS])
    f = objective(phases(signs, coarse[None, :], first)[kinds])
    # period, the 65th point, is only ever a bracket's end. A rescan keeps two
    # of its 8 intervals, a quarter of the bracket (an eighth at an end), so
    # period*1e-9 is reached in at most 13 rescans.
    k = np.argmin(f[:, :-1], axis=1)
    lo, hi = np.maximum(k - 1, 0), k + 1
    a, b, fa, fb = coarse[lo], coarse[hi], f[rows, lo], f[rows, hi]
    signs = signs[kinds]  # now per state
    steps = np.arange(_ZOOM_POINTS + 1.0)
    while (b - a > period * 1e-9).any():
        # np.linspace(a, b, 9, axis=1) by its own arithmetic: a + i*step, then b.
        x = a[:, None] + steps * ((b - a) / _ZOOM_POINTS)[:, None]
        x[:, -1] = b
        # The ends are two points of the scan before, so a rescan evaluates
        # only its 7 interior lengths.
        f = np.column_stack((fa, objective(phases(signs, x[:, 1:-1], rows)), fb))
        k = np.argmin(f, axis=1)
        lo, hi = np.maximum(k - 1, 0), np.minimum(k + 1, _ZOOM_POINTS)
        a, b, fa, fb = x[rows, lo], x[rows, hi], f[rows, lo], f[rows, hi]
    lengths = ((a + b) / 2.0).tolist()
    design = StubNetworkDesign(tuple(map(StubState, range(8), terms, lengths)), line, switch)
    g = sp8t_load_profile(design, [f_center]).gamma[:, 0]
    residuals = np.abs(_wrap180(np.angle(g, deg=True) - targets)).tolist()
    states = map(StubState, range(8), terms, lengths, residuals)
    return StubNetworkDesign(tuple(states), line, switch)
