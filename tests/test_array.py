import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from risnet.array import (
    C0,
    ArrayLayout,
    _steering_matrices,
    _wrap180,
    array_factor,
    build_array,
    led_color,
    power_consumption,
    state_map_to_json,
    state_map_to_text,
    steering_codebook,
)
from risnet.errors import InputDataError

F = 3.6e9
IDEAL_3BIT = np.exp(1j * np.deg2rad(np.arange(8) * 45.0))
IDEAL_1BIT = np.array([1.0 + 0j, -1.0 + 0j])


def direct_sum_af(layout, state_map, gamma_states, f, theta_deg, phi_az_deg=0.0,
                  element_exponent=1.0):
    """Reference array factor: the plain sum over a (theta, phi, cell) phase tensor."""
    theta = np.deg2rad(np.atleast_1d(np.asarray(theta_deg, dtype=float)))
    phi = np.deg2rad(np.atleast_1d(np.asarray(phi_az_deg, dtype=float)))
    x, y = layout.cell_positions()
    gamma_cells = np.asarray(gamma_states, dtype=complex)[state_map].ravel()
    k0 = 2.0 * np.pi * f / C0
    sin_t = np.sin(theta)[:, np.newaxis]
    ux = sin_t * np.cos(phi)[np.newaxis, :]
    uy = sin_t * np.sin(phi)[np.newaxis, :]
    phase = k0 * (ux[..., np.newaxis] * x.ravel() + uy[..., np.newaxis] * y.ravel())
    af = np.sum(gamma_cells * np.exp(1j * phase), axis=-1)
    if element_exponent:
        af = af * np.cos(theta)[:, np.newaxis] ** element_exponent
    return af if af.shape[1] > 1 else af[:, 0]


def full_exp_af(layout, state_map, gamma_states, f, theta_deg, phi_az_deg, element_exponent):
    """Reference array factor on the separable path with every steering exponential computed."""
    theta = np.deg2rad(np.atleast_1d(np.asarray(theta_deg, dtype=float)))
    phi = np.deg2rad(np.atleast_1d(np.asarray(phi_az_deg, dtype=float)))
    x, y = layout.cell_positions()
    k0 = 2.0 * np.pi * f / C0
    sin_t = np.sin(theta)[:, np.newaxis]
    ux = (sin_t * np.cos(phi)).ravel()
    uy = (sin_t * np.sin(phi)).ravel()
    a_x = np.exp(1j * k0 * np.multiply.outer(ux, x[0]))
    a_y = np.exp(1j * k0 * np.multiply.outer(uy, y[:, 0]))
    gamma = np.asarray(gamma_states, dtype=complex)[state_map]
    af = np.sum((a_y @ gamma) * a_x, axis=1).reshape(theta.size, phi.size)
    if element_exponent:
        af = af * np.maximum(np.cos(theta), 0.0)[:, np.newaxis] ** element_exponent
    return af if af.shape[1] > 1 else af[:, 0]


def wrap_codebook(layout, gamma_states, direction, f):
    """Reference codebook: |_wrap180| distances over a trailing state axis."""
    theta_deg, phi_az_deg = direction
    theta = np.deg2rad(theta_deg)
    phi = np.deg2rad(phi_az_deg)
    x, y = layout.cell_positions()
    k0 = 2.0 * np.pi * f / C0
    psi = np.rad2deg(-k0 * np.sin(theta) * (x * np.cos(phi) + y * np.sin(phi))) % 360.0
    dist = np.abs(_wrap180(psi[..., np.newaxis] - np.angle(gamma_states, deg=True)))
    return np.argmin(dist, axis=-1), np.min(dist, axis=-1)


def test_build_array_wall_geometry():
    layout = build_array(6, 6, 1)
    assert layout.n_cells == 576
    assert layout.cells_x == 24 and layout.cells_y == 24
    np.testing.assert_allclose(layout.width_m, 1.44)
    np.testing.assert_allclose(layout.height_m, 1.08)
    np.testing.assert_allclose(layout.area_m2, 1.5552)
    # within 0.5% of the quoted ~1.56 m^2
    assert abs(layout.area_m2 - 1.56) / 1.56 < 0.005


def test_build_array_single_tile():
    layout = build_array(1, 1, 3)
    assert layout.n_cells == 16


def test_build_array_validation():
    with pytest.raises(ValueError):
        build_array(0, 6, 1)
    with pytest.raises(ValueError):
        build_array(1, 1, 2)


def test_cell_positions_centered():
    layout = build_array(1, 1, 1)
    x, y = layout.cell_positions()
    assert x.shape == (4, 4)
    np.testing.assert_allclose(x.sum(), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.sum(), 0.0, atol=1e-12)
    np.testing.assert_allclose(x[0, 1] - x[0, 0], 0.060)
    np.testing.assert_allclose(y[1, 0] - y[0, 0], 0.045)


def test_codebook_broadside_all_state_zero():
    layout = build_array(2, 2, 3)
    state_map, residual = steering_codebook(layout, IDEAL_3BIT, (0.0, 0.0), F)
    assert np.all(state_map == 0)
    np.testing.assert_allclose(residual, 0.0, atol=1e-9)


def test_codebook_residual_bounds():
    rng = np.random.default_rng(13)
    layout3 = build_array(3, 3, 3)
    layout1 = build_array(3, 3, 1)
    for _ in range(20):
        theta = rng.uniform(0, 89)
        phi = rng.uniform(0, 360)
        _, r3 = steering_codebook(layout3, IDEAL_3BIT, (theta, phi), F)
        assert np.max(r3) <= 22.5 + 1e-9
        _, r1 = steering_codebook(layout1, IDEAL_1BIT, (theta, phi), F)
        assert np.max(r1) <= 90.0 + 1e-9


def test_codebook_residual_bound_nonideal_states():
    # bound is half the largest circular gap of the available phases
    rng = np.random.default_rng(31)
    layout = build_array(2, 2, 3)
    for _ in range(10):
        phases = np.sort(rng.uniform(0, 360, size=8))
        gaps = np.append(np.diff(phases), 360 - phases[-1] + phases[0])
        gamma = np.exp(1j * np.deg2rad(phases))
        _, residual = steering_codebook(layout, gamma, (rng.uniform(0, 89), 0.0), F)
        assert np.max(residual) <= np.max(gaps) / 2 + 1e-9


def test_codebook_state_count_must_match_resolution():
    layout = build_array(1, 1, 3)
    with pytest.raises(ValueError):
        steering_codebook(layout, IDEAL_1BIT, (0.0, 0.0), F)


def test_array_factor_uniform_peaks_broadside():
    layout = build_array(2, 2, 3)
    state_map = np.zeros((8, 8), dtype=int)
    theta = np.arange(-90.0, 90.5, 0.5)
    af = array_factor(layout, state_map, np.ones(8, complex), F, theta)
    mag = np.abs(af)
    assert theta[np.argmax(mag)] == 0.0
    np.testing.assert_allclose(np.max(mag), layout.n_cells, rtol=1e-12)


def test_array_factor_zero_gamma():
    layout = build_array(1, 1, 1)
    af = array_factor(layout, np.zeros((4, 4), int), np.zeros(2, complex), F, [0.0, 10.0])
    np.testing.assert_allclose(af, 0.0)


def test_array_factor_steered_peak_lands_on_target():
    layout = build_array(6, 6, 3)
    state_map, _ = steering_codebook(layout, IDEAL_3BIT, (20.0, 0.0), F)
    theta = np.arange(-90.0, 90.25, 0.5)
    af = array_factor(layout, state_map, IDEAL_3BIT, F, theta)
    peak = theta[np.argmax(np.abs(af))]
    assert abs(peak - 20.0) <= 0.5


def test_array_factor_mirror_symmetry():
    # mirrored steering with the x-mirrored state map gives the mirrored cut
    layout = build_array(3, 2, 3)
    state_map, _ = steering_codebook(layout, IDEAL_3BIT, (25.0, 0.0), F)
    theta = np.arange(-60.0, 60.5, 0.5)
    af = array_factor(layout, state_map, IDEAL_3BIT, F, theta)
    af_mirror = array_factor(layout, state_map[:, ::-1], IDEAL_3BIT, F, -theta)
    np.testing.assert_allclose(np.abs(af_mirror), np.abs(af), rtol=1e-9, atol=1e-9)


def test_array_factor_element_factor_default():
    layout = build_array(1, 1, 1)
    state_map = np.zeros((4, 4), int)
    af_q1 = array_factor(layout, state_map, np.ones(2, complex), F, [60.0])
    af_q0 = array_factor(layout, state_map, np.ones(2, complex), F, [60.0], element_exponent=0.0)
    np.testing.assert_allclose(np.abs(af_q1[0]) / np.abs(af_q0[0]), 0.5, rtol=1e-9)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
def test_element_factor_is_zero_behind_the_surface(q):
    # cos(theta) < 0 beyond 90 degrees; a fractional power of it would be NaN.
    layout = build_array(1, 1, 1)
    state_map = np.zeros((4, 4), int)
    theta = np.arange(-120.0, 120.5, 0.5)
    af = array_factor(layout, state_map, np.ones(2, complex), F, theta, element_exponent=q)
    assert np.all(np.isfinite(af))
    behind = np.abs(theta) > 90.0
    assert np.all(af[behind] == 0) and np.all(af[~behind] != 0)


def test_array_factor_shape_validation():
    layout = build_array(1, 1, 1)
    with pytest.raises(ValueError, match="shape"):
        array_factor(layout, np.zeros((3, 4), int), np.ones(2, complex), F, [0.0])


angles_deg = st.floats(-90.0, 90.0, allow_nan=False)
azimuths_deg = st.floats(0.0, 360.0, allow_nan=False)


@st.composite
def walls(draw):
    """A wall of 1-4 tiles per side, its resolution, state gammas and a random state map."""
    tiles = st.integers(1, 4)
    layout = build_array(draw(tiles), draw(tiles), draw(st.sampled_from((1, 3))))
    n = 2**layout.resolution_bits
    mags = draw(arrays(float, n, elements=st.floats(0.05, 1.0)))
    phases = draw(arrays(float, n, elements=azimuths_deg))
    state_map = draw(arrays(int, (layout.cells_y, layout.cells_x), elements=st.integers(0, n - 1)))
    return layout, state_map, mags * np.exp(1j * np.deg2rad(phases))


@settings(deadline=None, max_examples=150)
@given(walls(), st.floats(3.3e9, 3.8e9),
       st.lists(angles_deg, min_size=1, max_size=40),
       azimuths_deg | st.lists(azimuths_deg, min_size=2, max_size=12),
       st.sampled_from((0.0, 1.0)))
def test_array_factor_matches_direct_sum(wall, f, theta, phi, q):
    layout, state_map, gammas = wall
    af = array_factor(layout, state_map, gammas, f, theta, phi, element_exponent=q)
    ref = direct_sum_af(layout, state_map, gammas, f, theta, phi, element_exponent=q)
    assert af.shape == ref.shape
    scale = np.sum(np.abs(gammas[state_map]))
    assert np.max(np.abs(af - ref)) <= 1e-12 * scale


tile_counts = st.integers(1, 64)
pitches = st.floats(1e-4, 1.0)


@settings(deadline=None, max_examples=200)
@given(tile_counts, tile_counts, pitches, pitches)
def test_cell_positions_are_exactly_antisymmetric(tiles_x, tiles_y, pitch_x, pitch_y):
    # The premise of array_factor's conjugate half: coords[::-1] == -coords, bit for bit.
    x, y = ArrayLayout(tiles_x, tiles_y, 1, pitch_x, pitch_y).cell_positions()
    assert np.array_equal(x[0][::-1], -x[0]) and np.array_equal(y[:, 0][::-1], -y[:, 0])
    assert np.all(x[0][x.shape[1] // 2:] > 0) and np.all(y[:, 0][y.shape[0] // 2:] > 0)


# State gammas with exact +-180 degree phases (the two signs of zero), quadrature
# points that tie at psi = 0 or 180, and repeats that tie exactly.
special_gammas = st.sampled_from((
    complex(-1.0, 0.0), complex(-1.0, -0.0), 1.0 + 0j, 1j, -1j, 0.5 + 0.5j, -0.25 - 0.25j,
))
drawn_gammas = st.builds(lambda mag, deg: mag * np.exp(1j * np.deg2rad(deg)),
                         st.floats(0.05, 1.0), st.floats(-360.0, 360.0))


@st.composite
def wide_walls(draw):
    """A wall of 1-64 tiles per side with random pitches and state gammas."""
    layout = ArrayLayout(draw(tile_counts), draw(tile_counts), draw(st.sampled_from((1, 3))),
                         draw(pitches), draw(pitches))
    n = 2**layout.resolution_bits
    gammas = np.array(draw(st.lists(special_gammas | drawn_gammas, min_size=n, max_size=n)))
    return layout, gammas


steer_thetas = st.sampled_from((0.0, -0.0)) | st.floats(-89.99, 89.99)
frequencies = st.floats(1e8, 1e11)


@settings(deadline=None, max_examples=200)
@given(wide_walls(), steer_thetas, st.floats(-720.0, 720.0), frequencies)
def test_codebook_equals_the_trailing_axis_wrap(wall, theta, phi, f):
    layout, gammas = wall
    state_map, residual = steering_codebook(layout, gammas, (theta, phi), f)
    ref_map, ref_residual = wrap_codebook(layout, gammas, (theta, phi), f)
    assert state_map.dtype == np.intp and np.array_equal(state_map, ref_map)
    assert residual.tobytes() == ref_residual.tobytes()


@settings(deadline=None, max_examples=100)
@given(wide_walls(), steer_thetas, st.floats(-720.0, 720.0), frequencies)
def test_codebook_on_the_ideal_ladder_equals_the_trailing_axis_wrap(wall, theta, phi, f):
    # Evenly spaced states tie wherever psi falls halfway between two of them.
    layout, _ = wall
    gammas = IDEAL_3BIT if layout.resolution_bits == 3 else IDEAL_1BIT
    state_map, residual = steering_codebook(layout, gammas, (theta, phi), f)
    ref_map, ref_residual = wrap_codebook(layout, gammas, (theta, phi), f)
    assert np.array_equal(state_map, ref_map)
    assert residual.tobytes() == ref_residual.tobytes()


exponents = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 4.0)
cut_thetas = st.lists(st.sampled_from((0.0, 90.0, -90.0)) | st.floats(-120.0, 120.0),
                      min_size=1, max_size=40)


@settings(deadline=None, max_examples=150)
@given(wide_walls(), st.integers(0, 2**32 - 1), frequencies, cut_thetas,
       azimuths_deg | st.lists(azimuths_deg, min_size=2, max_size=12), exponents)
def test_array_factor_equals_the_full_exponential_path(wall, seed, f, theta, phi, q):
    # Same bits as exponentiating every cell column, not just the right half,
    # signs of zero included.
    layout, gammas = wall
    state_map = np.random.default_rng(seed).integers(
        0, len(gammas), (layout.cells_y, layout.cells_x))
    af = array_factor(layout, state_map, gammas, f, theta, phi, element_exponent=q)
    ref = full_exp_af(layout, state_map, gammas, f, theta, phi, q)
    assert af.shape == ref.shape
    assert af.tobytes() == ref.tobytes()


def mirrored_sines(theta_deg) -> bool:
    """Whether sin(theta)[i] and -sin(theta)[-1 - i] have the same bits (the theta mirror)."""
    s = np.sin(np.deg2rad(theta_deg))
    m = s.size // 2
    return s[:m].tobytes() == (-s[::-1][:m]).tobytes()


@st.composite
def mirrored_grids(draw, near_miss):
    """concat(-h[::-1], [centre], h) in degrees, with +-90 included and the centre 0.0,
    -0.0 or absent. A near miss moves one element by one ulp and keeps it only where
    that breaks the mirror of the computed sines, so the unmirrored build runs."""
    h = np.unique(draw(st.lists(st.floats(0.0, 90.0, exclude_min=True), max_size=40)) + [90.0])
    centre = draw(st.sampled_from(([], [0.0], [-0.0])))
    theta = np.concatenate([-h[::-1], centre, h])
    if near_miss:
        i = draw(st.integers(0, theta.size - 1))
        theta[i] = np.nextafter(theta[i], draw(st.sampled_from((-np.inf, np.inf))))
        assume(not mirrored_sines(theta))
    return theta


@settings(deadline=None, max_examples=150)
@given(wide_walls(), st.integers(0, 2**32 - 1), frequencies,
       st.booleans().flatmap(mirrored_grids),
       azimuths_deg | st.lists(azimuths_deg, min_size=2, max_size=12), exponents)
def test_mirrored_and_near_miss_grids_equal_the_full_exponential_path(
        wall, seed, f, theta, phi, q):
    layout, gammas = wall
    state_map = np.random.default_rng(seed).integers(
        0, len(gammas), (layout.cells_y, layout.cells_x))
    af = array_factor(layout, state_map, gammas, f, theta, phi, element_exponent=q)
    ref = full_exp_af(layout, state_map, gammas, f, theta, phi, q)
    assert af.shape == ref.shape
    assert af.tobytes() == ref.tobytes()


@settings(deadline=None, max_examples=100)
@given(wide_walls(), frequencies, mirrored_grids(near_miss=False),
       st.lists(st.sampled_from((0.0, 90.0, 180.0)) | azimuths_deg, min_size=1, max_size=6))
def test_mirrored_steering_matrices_equal_the_full_exponential(wall, f, theta_deg, phi_deg):
    # Bit for bit, except the sign of a zero imaginary part where the phase is
    # 0: where u or v is 0, or their product with k0 and a coordinate underflows.
    layout, _ = wall
    theta, phi = np.deg2rad(theta_deg), np.deg2rad(np.array(phi_deg))
    k0 = 2.0 * np.pi * f / C0
    a_x, a_y = _steering_matrices(layout, k0, theta.tobytes(), phi.tobytes())
    x, y = layout.cell_positions()
    sin_t = np.sin(theta)[:, np.newaxis]
    for a, u, coords in ((a_x, sin_t * np.cos(phi), x[0]), (a_y, sin_t * np.sin(phi), y[:, 0])):
        phase = k0 * np.multiply.outer(u.ravel(), coords)
        ref = np.exp(1j * phase)
        assert a.real.tobytes() == ref.real.tobytes()
        assert np.array_equal(a.imag, ref.imag)
        assert a.imag[phase != 0].tobytes() == ref.imag[phase != 0].tobytes()


def test_array_factor_memory_stays_small():
    # A 24x24-tile wall over a 361-theta cut: the (directions, cells) phase
    # tensor alone is 361 x 9216 complex values, about 53 MB.
    layout = build_array(24, 24, 3)
    state_map, _ = steering_codebook(layout, IDEAL_3BIT, (20.0, 10.0), F)
    theta = np.arange(-90.0, 90.25, 0.5)
    tracemalloc.start()
    try:
        array_factor(layout, state_map, IDEAL_3BIT, F, theta, 10.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_grid_over_several_row_blocks_matches_the_full_matrix_product():
    # 181 x 91 = 16471 directions, summed in row blocks from memoized matrices.
    layout = build_array(6, 6, 3)
    state_map = np.random.default_rng(5).integers(0, 8, (layout.cells_y, layout.cells_x))
    theta, phi = np.linspace(-90.0, 90.0, 181), np.linspace(0.0, 180.0, 91)
    ref = full_exp_af(layout, state_map, IDEAL_3BIT, F, theta, phi, 1.0)
    first = array_factor(layout, state_map, IDEAL_3BIT, F, theta, phi)
    again = array_factor(layout, state_map, IDEAL_3BIT, F, theta, phi)
    assert first.shape == (181, 91)
    assert first.tobytes() == ref.tobytes() and again.tobytes() == ref.tobytes()


def test_memoized_steering_matrices_are_read_only():
    theta = np.deg2rad(np.array([0.0, 30.0]))
    phi = np.deg2rad(np.array([0.0]))
    k0 = 2.0 * np.pi * F / C0
    for a in _steering_matrices(build_array(1, 1, 1), k0, theta.tobytes(), phi.tobytes()):
        assert not a.flags.writeable


def test_steering_matrices_are_kept_for_the_last_four_grids():
    layout = build_array(1, 1, 1)
    state_map = np.zeros((4, 4), int)

    def misses(theta_deg):
        before = _steering_matrices.cache_info().misses
        array_factor(layout, state_map, IDEAL_1BIT, F, [theta_deg])
        return _steering_matrices.cache_info().misses - before

    _steering_matrices.cache_clear()
    assert [misses(t) for t in (0.0, 1.0, 2.0, 3.0, 0.0)] == [1, 1, 1, 1, 0]
    assert misses(-0.0) == 1  # keyed by bytes: -0.0 is another grid
    assert [misses(t) for t in (4.0, 5.0, 6.0, 0.0)] == [1, 1, 1, 1]


@pytest.mark.parametrize("kwargs, named", [
    (dict(element_exponent=float("nan")), "element_exponent"),
    (dict(element_exponent=float("inf")), "element_exponent"),
    (dict(element_exponent=-1.0), "element_exponent"),
    (dict(phi_az_deg=float("nan")), "phi_az_deg"),
    (dict(theta_deg=[0.0, float("inf")]), "theta_deg"),
])
def test_array_factor_rejects_nonphysical_arguments(kwargs, named):
    layout = build_array(1, 1, 1)
    args = {"theta_deg": [0.0, 10.0], **kwargs}
    with pytest.raises(ValueError, match=named):
        array_factor(layout, np.zeros((4, 4), int), IDEAL_1BIT, F, **args)


@pytest.mark.parametrize("kwargs, named", [
    (dict(theta_deg=[]), "theta_deg"),
    (dict(theta_deg=np.zeros(0), phi_az_deg=[0.0, 10.0]), "theta_deg"),
    (dict(theta_deg=[0.0, 10.0], phi_az_deg=[]), "phi_az_deg"),
], ids=["empty theta cut", "empty theta grid", "empty phi"])
def test_array_factor_rejects_an_empty_direction_grid(kwargs, named):
    with pytest.raises(ValueError, match=f"^{named} must not be empty$"):
        array_factor(build_array(1, 1, 1), np.zeros((4, 4), int), IDEAL_1BIT, F, **kwargs)


@pytest.mark.parametrize("phi", [float("nan"), float("inf"), float("-inf")])
def test_codebook_rejects_non_finite_azimuth(phi):
    with pytest.raises(ValueError, match="phi_az_deg"):
        steering_codebook(build_array(1, 1, 1), IDEAL_1BIT, (10.0, phi), F)


@pytest.mark.parametrize("gamma_states, f, named", [
    ([1.0, np.nan], F, "gamma_states"),
    ([1.0, complex(0.0, np.inf)], F, "gamma_states"),
    (IDEAL_1BIT, np.nan, "f must be"),
    (IDEAL_1BIT, np.inf, "f must be"),
    (IDEAL_1BIT, 0.0, "f must be"),
    (IDEAL_1BIT, -F, "f must be"),
    (IDEAL_1BIT, np.float64(1e308), "finite wavenumber"),
])
def test_codebook_and_array_factor_reject_non_finite_states_and_bad_f(gamma_states, f, named):
    layout = build_array(1, 1, 1)
    with pytest.raises(ValueError, match=named):
        steering_codebook(layout, gamma_states, (20.0, 0.0), f)
    with pytest.raises(ValueError, match=named):
        array_factor(layout, np.zeros((4, 4), int), gamma_states, f, [0.0, 10.0])


def test_array_factor_names_a_sum_past_the_float_range():
    layout = build_array(1, 1, 1)
    gamma_states = np.array([1e308, -1e308])
    assert np.isfinite(array_factor(layout, np.zeros((4, 4), int), gamma_states / 16, F, [0.0]))
    with pytest.raises(InputDataError, match=r"^array factor at theta 0 deg, phi 0 deg is past"):
        array_factor(layout, np.zeros((4, 4), int), gamma_states, F, [0.0, 30.0])


def test_power_consumption_exact():
    assert power_consumption(build_array(6, 6, 1)) == 7.2e-3
    assert power_consumption(build_array(1, 1, 3)) == 2.2e-3
    # scales linearly in tile count
    assert power_consumption(build_array(3, 4, 3)) == 12 * 2.2e-3


def test_led_colors_three_bit():
    expected = ["black", "cyan", "red", "magenta", "green", "yellow", "blue", "white"]
    assert [led_color(i, 3) for i in range(8)] == expected


def test_led_colors_one_bit():
    assert led_color(0, 1) == "black"
    assert led_color(1, 1) == "green"
    with pytest.raises(ValueError):
        led_color(2, 1)
    with pytest.raises(ValueError):
        led_color(0, 2)


def test_state_map_serialization():
    sm = np.array([[0, 7], [3, 1]])
    assert state_map_to_text(sm) == "0 7\n3 1\n"
    assert '"states"' in state_map_to_json(sm)


def test_layout_pitch_override():
    layout = ArrayLayout(tiles_x=1, tiles_y=1, resolution_bits=1, pitch_x=0.05, pitch_y=0.05)
    np.testing.assert_allclose(layout.area_m2, (4 * 0.05) ** 2)


@pytest.mark.parametrize("pitch", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["pitch_x", "pitch_y"])
def test_layout_rejects_a_non_finite_pitch(axis, pitch):
    with pytest.raises(ValueError, match="pitch must be finite"):
        ArrayLayout(tiles_x=1, tiles_y=1, resolution_bits=1, **{axis: pitch})


@pytest.mark.parametrize("theta_deg, phi_az_deg", [
    (np.zeros((3, 2)), 0.0),
    (np.zeros(3), np.zeros((2, 1))),
], ids=["2-D theta", "2-D phi"])
def test_direction_grids_are_scalars_or_1d(theta_deg, phi_az_deg):
    with pytest.raises(ValueError, match="theta_deg and phi_az_deg must be scalars or 1-D arrays"):
        array_factor(build_array(1, 1, 1), np.zeros((4, 4), int), IDEAL_1BIT, F,
                     theta_deg, phi_az_deg)
