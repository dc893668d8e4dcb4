"""Tile/wall geometry, steering codebooks, far-field array factor, power, LEDs.

Tiles hold a fixed 4x4 grid of cells; walls are rectangular tilings of
tiles. Cell centers form a regular centered grid with the unit-cell pitch
of 60 mm by 45 mm. Steering codebooks quantize the ideal linear phase
profile onto the available discrete reflection states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# Speed of light in vacuum, m/s (exact SI value).
C0 = 299_792_458.0

CELLS_PER_TILE_SIDE = 4
DEFAULT_PITCH_X = 0.060
DEFAULT_PITCH_Y = 0.045

# Switching-circuitry power per tile in microwatts (controller and LEDs excluded).
_TILE_POWER_UW = {1: 200, 3: 2200}

# State LED colors, index = state. The 3-bit row follows the phase ladder
# (state i at i*45 degrees); the 1-bit pair reuses the 0/180 degree entries.
_LED_COLORS_3BIT = ("black", "cyan", "red", "magenta", "green", "yellow", "blue", "white")
_LED_COLORS_1BIT = ("black", "green")


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
        cols = (np.arange(self.cells_x) + 0.5 - self.cells_x / 2.0) * self.pitch_x
        rows = (np.arange(self.cells_y) + 0.5 - self.cells_y / 2.0) * self.pitch_y
        return np.meshgrid(cols, rows)


def build_array(tiles_x: int, tiles_y: int, resolution_bits: int) -> ArrayLayout:
    """Construct a wall layout with the standard cell pitch."""
    return ArrayLayout(tiles_x=tiles_x, tiles_y=tiles_y, resolution_bits=resolution_bits)


def _wrap180(deg):
    """Phase differences (degrees) wrapped into [-180, 180)."""
    return (np.asarray(deg) + 180.0) % 360.0 - 180.0


def steering_codebook(layout: ArrayLayout, gamma_states, direction, f: float) -> tuple:
    """Quantized per-cell state map steering toward ``direction``.

    ``gamma_states`` holds one complex reflection coefficient per state at
    the operating frequency; ``direction`` is (theta_deg from broadside,
    phi_az_deg). Returns (state_map, residual_deg), both shaped
    (cells_y, cells_x); the residual is each cell's circular distance from
    its ideal continuous phase and never exceeds half the largest gap
    between available state phases. Exact ties go to the lowest state index.
    """
    gamma_states = np.asarray(gamma_states, dtype=complex)
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
    x, y = layout.cell_positions()
    k0 = 2.0 * np.pi * f / C0
    psi = np.rad2deg(-k0 * np.sin(theta) * (x * np.cos(phi) + y * np.sin(phi))) % 360.0

    state_phases = np.angle(gamma_states, deg=True)
    dist = np.abs(_wrap180(psi[..., np.newaxis] - state_phases[np.newaxis, np.newaxis, :]))
    state_map = np.argmin(dist, axis=-1).astype(int)
    residual = np.min(dist, axis=-1)
    return state_map, residual


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
    (|theta| > 90 degrees). Output shape is
    (len(theta_deg), len(phi_az_deg)) squeezed to 1-D when a single azimuth
    is given. Normalize against its own max for dB plots. On the regular cell
    grid the sum factors as a_y(v)^T G a_x(u) with G the (cells_y, cells_x)
    gamma grid, so memory is O(directions * (cells_x + cells_y)).
    """
    state_map = np.asarray(state_map)
    if state_map.shape != (layout.cells_y, layout.cells_x):
        raise ValueError(
            f"state map shape {state_map.shape} does not match layout "
            f"({layout.cells_y}, {layout.cells_x})"
        )
    gamma_states = np.asarray(gamma_states, dtype=complex)
    if np.any(state_map < 0) or np.any(state_map >= len(gamma_states)):
        raise ValueError("state map indices out of range")
    if not (np.isfinite(element_exponent) and element_exponent >= 0):
        raise ValueError(f"element_exponent must be finite and >= 0, got {element_exponent}")
    theta = np.deg2rad(np.atleast_1d(np.asarray(theta_deg, dtype=float)))
    phi = np.deg2rad(np.atleast_1d(np.asarray(phi_az_deg, dtype=float)))
    if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(phi))):
        raise ValueError("theta_deg and phi_az_deg must be finite")
    x, y = layout.cell_positions()
    k0 = 2.0 * np.pi * f / C0

    sin_t = np.sin(theta)[:, np.newaxis]
    ux = (sin_t * np.cos(phi)).ravel()
    uy = (sin_t * np.sin(phi)).ravel()
    a_x = np.exp(1j * k0 * np.multiply.outer(ux, x[0]))
    a_y = np.exp(1j * k0 * np.multiply.outer(uy, y[:, 0]))
    af = np.sum((a_y @ gamma_states[state_map]) * a_x, axis=1).reshape(theta.size, phi.size)
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
