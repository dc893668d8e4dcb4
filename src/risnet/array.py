"""Tile/wall geometry, steering codebooks, far-field array factor, power, LEDs.

Tiles hold a fixed 4x4 grid of cells; walls are rectangular tilings of
tiles. Cell centers form a regular centered grid with the unit-cell pitch
of 60 mm by 45 mm. Steering codebooks quantize the ideal linear phase
profile onto the available discrete reflection states.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputDataError
from .touchstone import C0

CELLS_PER_TILE_SIDE = 4
DEFAULT_PITCH_X = 0.060
DEFAULT_PITCH_Y = 0.045

# Switching-circuitry power per tile in microwatts (controller and LEDs excluded).
_TILE_POWER_UW = {1: 200, 3: 2200}

# State LED colors, index = state. The 3-bit row follows the phase ladder
# (state i at i*45 degrees); the 1-bit pair reuses the 0/180 degree entries.
_LED_COLORS_3BIT = ("black", "cyan", "red", "magenta", "green", "yellow", "blue", "white")
_LED_COLORS_1BIT = ("black", "green")

# array_factor keeps the steering matrices of this many (wall, wavenumber,
# theta/phi grid) triples, and sums the pattern this many directions at a time.
_STEERING_CACHE_SIZE = 4
_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class ArrayLayout:
    """A wall of tiles_x by tiles_y tiles of 4x4 cells each."""

    tiles_x: int
    tiles_y: int
    resolution_bits: int
    pitch_x: float = DEFAULT_PITCH_X
    pitch_y: float = DEFAULT_PITCH_Y

    def __post_init__(self):
        if self.tiles_x < 1 or self.tiles_y < 1:
            raise ValueError("need at least one tile per axis")
        if self.resolution_bits not in (1, 3):
            raise ValueError("resolution_bits must be 1 or 3")
        if not (math.isfinite(self.pitch_x) and math.isfinite(self.pitch_y)):
            raise ValueError("pitch must be finite")
        if self.pitch_x <= 0 or self.pitch_y <= 0:
            raise ValueError("pitch must be > 0")

    @property
    def cells_x(self) -> int:
        return self.tiles_x * CELLS_PER_TILE_SIDE

    @property
    def cells_y(self) -> int:
        return self.tiles_y * CELLS_PER_TILE_SIDE

    @property
    def n_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def n_cells(self) -> int:
        return self.cells_x * self.cells_y

    @property
    def width_m(self) -> float:
        return self.cells_x * self.pitch_x

    @property
    def height_m(self) -> float:
        return self.cells_y * self.pitch_y

    @property
    def area_m2(self) -> float:
        return self.width_m * self.height_m

    def cell_positions(self) -> tuple:
        """(x, y) cell-center coordinate arrays, each shaped (cells_y, cells_x)."""
        return np.meshgrid(*_cell_axes(self))


def _cell_axes(layout: ArrayLayout) -> tuple:
    """The cell-center x of each column and y of each row, 1-D."""
    cols = (np.arange(layout.cells_x) + 0.5 - layout.cells_x / 2.0) * layout.pitch_x
    rows = (np.arange(layout.cells_y) + 0.5 - layout.cells_y / 2.0) * layout.pitch_y
    return cols, rows


def build_array(tiles_x: int, tiles_y: int, resolution_bits: int) -> ArrayLayout:
    """Construct a wall layout with the standard cell pitch."""
    return ArrayLayout(tiles_x=tiles_x, tiles_y=tiles_y, resolution_bits=resolution_bits)


def _states_and_wavenumber(gamma_states, f: float) -> tuple:
    """(``gamma_states`` as a complex array, free-space wavenumber at ``f``), both checked."""
    gamma_states = np.asarray(gamma_states, dtype=complex)
    if not np.isfinite(gamma_states).all():
        raise ValueError("gamma_states must be finite")
    k0 = 2.0 * np.pi * float(f) / C0
    if not 0.0 < k0 < np.inf:
        raise ValueError(f"f must be finite and > 0 (with a finite wavenumber), got {f}")
    return gamma_states, k0


def steering_codebook(layout: ArrayLayout, gamma_states, direction, f: float) -> tuple:
    """Quantized per-cell state map steering toward ``direction``.

    ``gamma_states`` holds one complex reflection coefficient per state at
    the operating frequency; ``direction`` is (theta_deg from broadside,
    phi_az_deg). Returns (state_map, residual_deg), both shaped
    (cells_y, cells_x); the residual is each cell's circular distance from
    its ideal continuous phase and never exceeds half the largest gap
    between available state phases. Exact ties go to the lowest state index.
    Non-finite ``gamma_states``, or an ``f`` that is not finite and > 0 or
    whose wavenumber overflows, raise ValueError.
    """
    gamma_states, k0 = _states_and_wavenumber(gamma_states, f)
    if len(gamma_states) != 2**layout.resolution_bits:
        raise ValueError(
            f"{len(gamma_states)} states do not match "
            f"{layout.resolution_bits}-bit resolution"
        )
    theta_deg, phi_az_deg = direction
    if not (0.0 <= abs(theta_deg) < 90.0):
        raise ValueError("theta must satisfy 0 <= |theta| < 90 degrees")
    if not np.isfinite(phi_az_deg):
        raise ValueError(f"phi_az_deg must be finite, got {phi_az_deg}")
    theta = np.deg2rad(theta_deg)
    phi = np.deg2rad(phi_az_deg)
    x, y = _cell_axes(layout)
    psi = np.rad2deg(-k0 * np.sin(theta) * (x * np.cos(phi) + y[:, np.newaxis] * np.sin(phi)))
    psi %= 360.0

    # States on axis 0, so the wrap runs on whole (cells_y, cells_x) planes
    # and min reduces plane by plane. psi lies in [0, 360] (the % can round
    # up to 360) and np.angle in [-180, 180], so v = d + 180, d = psi - angle,
    # lies in [0, 720]. There v - 360 is exact (Sterbenz) and equals v % 360
    # wherever v >= 360, except at v = 720, where % gives 0; 0 and 360 are
    # both 180 from 180, so |v - 180| keeps the bits of |_wrap180(d)|. (The
    # equal min(|v - 180|, |v - 540|) needs a second states x cells array,
    # which costs more than the masked subtract on a 24x24-tile wall.)
    v = psi - np.angle(gamma_states, deg=True)[:, np.newaxis, np.newaxis]
    v += 180.0
    np.subtract(v, 360.0, out=v, where=v >= 360.0)
    v -= 180.0
    dist = np.abs(v, out=v)
    # argmin without its transposed copy: stamp each state where it attains the
    # min, highest first, so ties go to the lowest index. The gamma and theta/phi
    # checks keep NaN out of dist; a NaN psi (only from a non-finite pitch) NaNs
    # every plane of a cell, which no state stamps, and argmin also gives 0.
    best = np.min(dist, axis=0)
    state_map = np.zeros(best.shape, dtype=np.intp)
    for state in range(len(dist) - 1, -1, -1):
        np.putmask(state_map, dist[state] == best, state)
    return state_map, best


def _steering_vectors(u, coords, k0: float, m: int) -> np.ndarray:
    """exp(j*k0*outer(u, coords)) for the (theta, phi)-shaped u, one row per direction.

    Only the right half of the centred coords and theta rows ``m:`` are
    exponentiated; theta row i < m is the conjugate of row -1 - i, which the
    caller guarantees by u[i] == -u[-1 - i] (see array_factor).
    """
    n = coords.size // 2
    out = np.zeros((*u.shape, 2 * n), dtype=complex)
    right = out[m:, :, n:]
    phase = right.imag
    np.multiply.outer(u[m:], coords[n:], out=phase)
    phase *= k0
    np.exp(right, out=right)
    np.conjugate(right[..., ::-1], out=out[m:, :, :n])
    np.conjugate(out[::-1][:m], out=out[:m])
    return out.reshape(u.size, 2 * n)


@functools.lru_cache(maxsize=_STEERING_CACHE_SIZE)
def _steering_matrices(layout: ArrayLayout, k0: float, theta: bytes, phi: bytes) -> tuple:
    """Read-only (A_x, A_y, m) over theta rows m: x phi, 1-D radians given as bytes.

    The bytes key keeps -0.0 apart from 0.0, whose exponentials differ in the
    sign of a zero imaginary part. When the computed sines are mirrored bit
    for bit, sin_t[i] == -sin_t[-1 - i] (signs of zero included), theta row
    i < T // 2 is the conjugate of row -1 - i (an odd grid's centre row is
    computed): m = T // 2 over more than one block, else those rows are filled.
    """
    theta, phi = np.frombuffer(theta), np.frombuffer(phi)
    x, y = _cell_axes(layout)
    sin_t = np.sin(theta)
    fill = sin_t.size // 2
    if sin_t[:fill].tobytes() != (-sin_t[::-1][:fill]).tobytes():
        fill = 0
    m = fill if theta.size * phi.size > _BLOCK_ROWS + 1 else 0
    sin_t = sin_t[m:, np.newaxis]
    a_x = _steering_vectors(sin_t * np.cos(phi), x, k0, fill - m)
    a_y = _steering_vectors(sin_t * np.sin(phi), y, k0, fill - m)
    a_x.flags.writeable = a_y.flags.writeable = False
    return a_x, a_y, m


def _unmirror(a: np.ndarray, m: int, n_phi: int) -> np.ndarray:
    """The full steering matrix from its theta rows m: (see _steering_matrices)."""
    a = a.reshape(-1, n_phi, a.shape[1])
    return np.concatenate((np.conjugate(a[::-1][:m]), a)).reshape(-1, a.shape[2])


def _sum_rows(a_x: np.ndarray, a_y: np.ndarray, grids: tuple, outs: tuple) -> None:
    """outs[k] = sum((a_y @ grids[k]) * a_x, axis=1), in blocks of rows (see array_factor)."""
    stops = [*range(_BLOCK_ROWS, len(a_x) - 1, _BLOCK_ROWS), len(a_x)]
    for start, stop in zip([0, *stops], stops):
        for gamma, out in zip(grids, outs):
            p = a_y[start:stop] @ gamma
            p *= a_x[start:stop]
            np.sum(p, axis=1, out=out[start:stop])


def array_factor(
    layout: ArrayLayout,
    state_map: np.ndarray,
    gamma_states,
    f: float,
    theta_deg,
    phi_az_deg=0.0,
    element_exponent: float = 1.0,
) -> np.ndarray:
    """Complex far-field sum over the cell grid.

    Evaluates sum_cells gamma(cell) * exp(+j*k*(x*sin(theta)*cos(phi) +
    y*sin(theta)*sin(phi))) times an optional cos^q(theta) element factor
    (q = ``element_exponent``, 0 disables it), which is 0 behind the surface
    (|theta| > 90 degrees). ``theta_deg`` and ``phi_az_deg`` are scalars or
    non-empty 1-D arrays (anything else raises ValueError); the output shape is
    (len(theta_deg), len(phi_az_deg)) squeezed to 1-D when a single azimuth
    is given. Normalize against its own max for dB plots. On the regular cell
    grid the sum factors as a_y(v)^T G a_x(u) with G the (cells_y, cells_x)
    gamma grid, so memory is O(directions * (cells_x + cells_y)). The cell
    coordinates are centred and even in count, hence exactly antisymmetric,
    so a_x and a_y exponentiate only their right halves: the left half is
    conj(right[:, ::-1]), the bits of the full exponential except the sign
    of a zero imaginary part where u or v is 0. Likewise, when the grid's
    sines are mirrored bit for bit, sin(theta[i]) == -sin(theta[-1 - i]) as
    for the default -90...90 cut, theta row i < T // 2 is the conjugate of
    row -1 - i and only the second half is exponentiated; a grid that is
    not mirrored (say an asymmetric span, or ``np.arange`` at step 0.1)
    exponentiates every row. a_x and a_y depend only on the wall, f and the
    theta/phi grid; the last few such pairs are kept read-only and reused.
    The pattern is summed 1024 directions at a time, so the temporaries stay
    one block in size; a one-row remainder joins the block before it, as a
    one-row product has other bits than the same row in a larger one. A
    mirrored grid of more than one block keeps only rows T // 2 on (6.4 of
    12.65 MB for a 6x6 wall on a 181 x 91 grid) and sums them with G and
    conj(G): AF at row -1 - i is conj(sum((a_y[i] @ conj(G)) * a_x[i])),
    the full sum's bits but for the sign of an exact 0, so a mirrored exact
    0 has the grid summed again from the full matrices. A one-block grid
    keeps every row: halving its one product could change its bits. With
    more than one BLAS thread, a grid of several blocks on a wall over 128
    cells tall can still differ in its last bits from one product over the
    grid; a CLI process runs one thread (see :mod:`risnet.cli`).
    ``gamma_states`` and ``f`` are checked as in :func:`steering_codebook`;
    a sum past the float range raises InputDataError naming its direction.
    """
    state_map = np.asarray(state_map)
    if state_map.shape != (layout.cells_y, layout.cells_x):
        raise ValueError(
            f"state map shape {state_map.shape} does not match layout "
            f"({layout.cells_y}, {layout.cells_x})"
        )
    gamma_states, k0 = _states_and_wavenumber(gamma_states, f)
    if np.any(state_map < 0) or np.any(state_map >= len(gamma_states)):
        raise ValueError("state map indices out of range")
    if not (np.isfinite(element_exponent) and element_exponent >= 0):
        raise ValueError(f"element_exponent must be finite and >= 0, got {element_exponent}")
    theta_deg = np.atleast_1d(np.asarray(theta_deg, dtype=float))
    phi_az_deg = np.atleast_1d(np.asarray(phi_az_deg, dtype=float))
    if theta_deg.ndim > 1 or phi_az_deg.ndim > 1:
        raise ValueError("theta_deg and phi_az_deg must be scalars or 1-D arrays")
    for name, grid in (("theta_deg", theta_deg), ("phi_az_deg", phi_az_deg)):
        if grid.size == 0:
            raise ValueError(f"{name} must not be empty")
    theta, phi = np.deg2rad(theta_deg), np.deg2rad(phi_az_deg)
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise ValueError("theta_deg and phi_az_deg must be finite")
    a_x, a_y, m = _steering_matrices(layout, k0, theta.tobytes(), phi.tobytes())
    gamma = gamma_states[state_map]
    af = np.empty((theta.size, phi.size), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        if m:
            # Theta row i < m is conj(sum((A_y[-1 - i] @ conj(G)) * A_x[-1 - i])).
            mirrored = np.empty_like(af[m:])
            _sum_rows(a_x, a_y, (gamma, gamma.conj()), (af[m:].reshape(-1), mirrored.reshape(-1)))
            np.conjugate(mirrored[::-1][:m], out=af[:m])
        if m and not np.all(af[:m].view(float)):
            # There an exact 0 may have the other sign: sum the full matrices.
            a_x, a_y, m = _unmirror(a_x, m, phi.size), _unmirror(a_y, m, phi.size), 0
        if not m:
            _sum_rows(a_x, a_y, (gamma,), (af.reshape(-1),))
    bad = ~np.isfinite(af)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InputDataError(
            f"array factor at theta {theta_deg[i]:.12g} deg, phi {phi_az_deg[j]:.12g} deg "
            "is past the float range"
        )
    if element_exponent:
        # A reflecting surface radiates into its front half-space only.
        af = af * np.maximum(np.cos(theta), 0.0)[:, np.newaxis] ** element_exponent
    return af if af.shape[1] > 1 else af[:, 0]


def power_consumption(layout: ArrayLayout) -> float:
    """Switching-circuitry power of the whole wall in watts."""
    return layout.n_tiles * _TILE_POWER_UW[layout.resolution_bits] / 1e6


def led_color(state: int, resolution_bits: int) -> str:
    """Indicator LED color of a switching state."""
    if resolution_bits == 3:
        table = _LED_COLORS_3BIT
    elif resolution_bits == 1:
        table = _LED_COLORS_1BIT
    else:
        raise ValueError("resolution_bits must be 1 or 3")
    if not (0 <= state < len(table)):
        raise ValueError(f"state {state} out of range for {resolution_bits}-bit")
    return table[state]


def state_map_to_text(state_map: np.ndarray) -> str:
    """Plain-text grid: one line per cell row, states space-separated."""
    return "\n".join(" ".join(str(int(s)) for s in row) for row in np.asarray(state_map)) + "\n"


def state_map_to_json(state_map: np.ndarray) -> str:
    return json.dumps({"states": np.asarray(state_map).astype(int).tolist()}, indent=2) + "\n"
