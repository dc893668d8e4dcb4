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
from dataclasses import dataclass

import numpy as np

from .array import C0, _wrap180
from .errors import ConvergenceError, InputDataError
from .network import cascade, interp_s
from .touchstone import (
    PortNetwork,
    ReflectionProfile,
    _require_in_sweep,
    parse_touchstone,
    serialize_touchstone,
)

TERMINATIONS = ("open", "short")

# Eight-state target reflection phases, degrees.
SP8T_TARGETS_DEG = tuple(45.0 * i for i in range(8))

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_COARSE_POINTS = 64
_MAX_ITER = 200

# Design JSON field types; _REQUIRED marks a field without a default.
_NUMBER = (int, float)
_REQUIRED = object()


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
        if self.length_m < 0:
            raise ValueError("stub length must be >= 0")


@dataclass(frozen=True)
class StubNetworkDesign:
    """A bank of stub terminations behind one (shared) switch model.

    ``switch`` is a measured 2-port per throw, or None for an ideal switch.
    Eight-state designs must split terminations 4 open / 4 short.
    """

    states: tuple
    line: MicrostripLine
    switch: PortNetwork | None = None

    def __post_init__(self):
        n = len(self.states)
        if n < 1 or (n & (n - 1)) != 0:
            raise ValueError("state count must be a power of two")
        if [st.state for st in self.states] != list(range(n)):
            raise ValueError("states must be labelled 0..n-1 in order")
        if n == 8:
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


# The design JSON schema: per object, (JSON key, attribute, accepted types,
# default) of each field, in document order.
_JSON_FIELDS = {
    MicrostripLine: (
        ("width_m", "width", _NUMBER, _REQUIRED),
        ("substrate_height_m", "substrate_height", _NUMBER, _REQUIRED),
        ("epsilon_r", "epsilon_r", _NUMBER, _REQUIRED),
        ("loss_db_per_m", "loss_db_per_m", _NUMBER, 0.0),
        ("reference_frequency_hz", "reference_frequency", _NUMBER, 3.6e9),
    ),
    StubState: (
        ("state", "state", int, _REQUIRED),
        ("termination", "termination", str, _REQUIRED),
        ("length_m", "length_m", _NUMBER, _REQUIRED),
        ("residual_deg", "residual_deg", _NUMBER + (type(None),), None),
    ),
}


def _json_object(obj) -> dict:
    """The design JSON object of a line or stub state, keys in table order."""
    return {key: getattr(obj, attr) for key, attr, _, _ in _JSON_FIELDS[type(obj)]}


def _from_json_object(cls, node, path: str):
    """Inverse of :func:`_json_object`: a ``cls`` built from the object at ``path``."""
    return cls(**{
        attr: _json_field(node, key, kind, path, default)
        for key, attr, kind, default in _JSON_FIELDS[cls]
    })


def _json_field(node, key: str, kind, parent: str = "", default=_REQUIRED):
    """``node[key]`` of a design JSON document, checked against the types ``kind``.

    A missing or mistyped field raises InputDataError naming its path.
    """
    path = f"{parent}.{key}" if parent else key
    if not isinstance(node, dict):
        raise InputDataError(f"design JSON: '{parent or 'document'}' must be an object")
    value = node.get(key, default)
    if value is _REQUIRED:
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
    arrays that broadcast together.
    """
    if termination not in TERMINATIONS:
        raise ValueError(f"termination must be one of {TERMINATIONS}")
    if np.any(np.asarray(length) < 0):
        raise ValueError("stub length must be >= 0")
    f = np.asarray(f, dtype=float)
    beta = 2.0 * np.pi * f * math.sqrt(microstrip_eeff(line)) / C0
    alpha_db = line.loss_db_per_m * np.sqrt(f / line.reference_frequency)
    mag = 10.0 ** (-2.0 * alpha_db * length / 20.0)
    sign = 1.0 if termination == "open" else -1.0
    out = sign * mag * np.exp(-2j * beta * length)
    return out if out.ndim else complex(out)


def _terminated_gamma(switch: PortNetwork | None, gamma_term: np.ndarray, f: np.ndarray):
    """Loads (states x frequencies) seen through the switch path (identity if ideal)."""
    if switch is None:
        return gamma_term
    return cascade(
        interp_s(switch, f), gamma_term, lambda ik: f"state {ik[0]} at {f[ik[1]]} Hz"
    )


def spdt_load_profile(switch: PortNetwork | None, frequencies) -> ReflectionProfile:
    """Two-state load: open throw (state 0) and grounded throw (state 1).

    An ideal switch yields exactly +1 and -1 at every frequency; a measured
    switch network cascades the open/ground terminations through its 2-port.
    """
    f = np.asarray(frequencies, dtype=float)
    term = np.outer([1.0, -1.0], np.ones(f.shape)).astype(complex)
    return ReflectionProfile(states=(0, 1), frequencies=f, gamma=_terminated_gamma(switch, term, f))


def sp8t_load_profile(design: StubNetworkDesign, frequencies) -> ReflectionProfile:
    """Eight-state load profile of a stub-bank design."""
    if len(design.states) != 8:
        raise InputDataError(f"need an 8-state design, got {len(design.states)} states")
    f = np.asarray(frequencies, dtype=float)
    term = np.array(
        [stub_reflection(st.length_m, st.termination, f, design.line) for st in design.states]
    )
    return ReflectionProfile(
        states=tuple(range(8)), frequencies=f, gamma=_terminated_gamma(design.switch, term, f)
    )


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


def _golden_section(fn, a: float, b: float, tol: float) -> float:
    """Minimize ``fn`` on [a, b]; assumes the bracket holds a single minimum."""
    h = b - a
    c = b - _INV_PHI * h
    d = a + _INV_PHI * h
    fc, fd = fn(c), fn(d)
    for _ in range(_MAX_ITER):
        if b - a <= tol:
            return (a + b) / 2.0
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
    raise ConvergenceError(
        f"stub length search did not converge within {_MAX_ITER} iterations"
    )


def synthesize_stub_lengths(
    switch: PortNetwork | None,
    line: MicrostripLine,
    f_center: float,
    band,
    weights=None,
    n_band_points: int = 21,
) -> StubNetworkDesign:
    """Fit the eight stub lengths to the 45-degree phase ladder over a band.

    Terminations come from the minimal-length zero-loss rule; each length is
    then found independently by golden-section search over [0, lambda_g/2)
    minimizing the weighted mean-square circular error between the realized
    and target phases on the band grid (``n_band_points`` >= 2 uniform points,
    or the single point for a degenerate band). A coarse scan brackets the
    minimum first since the objective is periodic in length.

    Per-state residuals are reported at ``f_center``; for an ideal switch
    and moderate fractional bandwidths (the 14% default band included) they
    stay below a degree.
    """
    f_lo, f_hi = float(band[0]), float(band[1])
    if not (f_lo <= f_center <= f_hi):
        raise ValueError(f"band [{f_lo}, {f_hi}] Hz must contain f_center {f_center} Hz")
    if f_lo <= 0:
        raise ValueError("band frequencies must be > 0")
    if switch is not None:
        _require_in_sweep(switch.frequencies, (f_lo, f_hi))
    if f_hi > f_lo and n_band_points < 2:
        raise ValueError(f"a band with f_hi > f_lo needs n_band_points >= 2, got {n_band_points}")
    grid = np.array([f_lo]) if f_hi == f_lo else np.linspace(f_lo, f_hi, n_band_points)
    if weights is None:
        # Uniform when the band is symmetric about f_center. Otherwise tilt
        # linearly so the weighted band centroid lands on f_center, keeping
        # the fitted phase anchored there (a plain uniform fit on an
        # off-center band drags the zero-error frequency to the band mean).
        offsets = grid - f_center
        s2 = float(np.sum(offsets**2))
        lam = 0.0 if s2 == 0 else -float(np.sum(offsets)) / s2
        w = np.maximum(1.0 + lam * offsets, 0.0)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != grid.shape:
            raise ValueError(
                f"weights length {w.size} does not match the {grid.size}-point band grid"
            )
        if np.any(w < 0) or not np.any(w > 0):
            raise ValueError("weights must be non-negative with a positive sum")
    w = w / np.sum(w)

    s_grid = None if switch is None else interp_s(switch, grid)
    s_center = None if switch is None else interp_s(switch, np.array([f_center]))

    def realized_phase_deg(lengths, term: str, freqs, s, state: int) -> np.ndarray:
        """Phases (lengths x freqs) of one state's stub behind the switch."""
        g = stub_reflection(np.reshape(lengths, (-1, 1)), term, freqs, line)
        if s is not None:
            g = cascade(s, g, lambda jk: f"state {state} at {freqs[jk[1]]} Hz")
        return np.angle(g, deg=True)

    period = guided_wavelength(line, f_center) / 2.0
    tol = period * 1e-9
    coarse = np.linspace(0.0, period, _COARSE_POINTS, endpoint=False)
    states = []
    for i, target in enumerate(SP8T_TARGETS_DEG):
        term, _ = _lossless_solution_deg(target)

        def objective(lengths, _term=term, _target=target, _state=i):
            err = _wrap180(realized_phase_deg(lengths, _term, grid, s_grid, _state) - _target)
            return np.sum(w * err**2, axis=1)

        values = objective(coarse)
        if not np.all(np.isfinite(values)):
            raise ConvergenceError(
                f"non-finite synthesis objective for state {i} (pathological switch data)"
            )
        k = int(np.argmin(values))
        a = coarse[k - 1] if k > 0 else 0.0
        b = coarse[k + 1] if k + 1 < _COARSE_POINTS else period
        length = _golden_section(lambda x: float(objective(x)[0]), a, b, tol)
        phase_at_center = realized_phase_deg(length, term, np.array([f_center]), s_center, i)
        residual = abs(float(_wrap180(phase_at_center - target)[0, 0]))
        states.append(StubState(state=i, termination=term, length_m=length, residual_deg=residual))
    return StubNetworkDesign(states=tuple(states), line=line, switch=switch)
