import numpy as np
import pytest

from risnet.errors import FrequencyRangeError, InputDataError, SingularityError
from risnet.network import (
    TwoPortPoint,
    cascade_reflection,
    interpolate_at,
    profile_from_network,
    two_port_at,
)
from risnet.touchstone import PortNetwork, ReflectionProfile


def one_port(freqs, s11):
    s = np.asarray(s11, dtype=complex).reshape(-1, 1, 1)
    return PortNetwork(1, 50.0, np.asarray(freqs, float), s)


def thru_two_port(freqs):
    k = len(freqs)
    s = np.zeros((k, 2, 2), complex)
    s[:, 0, 1] = 1.0
    s[:, 1, 0] = 1.0
    return PortNetwork(2, 50.0, np.asarray(freqs, float), s)


def random_two_port_point(rng, frequency=3.6e9):
    vals = rng.normal(size=8) @ np.kron(np.eye(4), [[1], [1j]])
    return TwoPortPoint(frequency, *vals)


def test_interpolate_exact_on_grid():
    net = one_port([1e9, 2e9, 3e9], [1 + 1j, 2 + 2j, 3 - 3j])
    np.testing.assert_allclose(interpolate_at(net, 2e9), [[2 + 2j]])


def test_interpolate_midpoint():
    net = one_port([1e9, 2e9], [0.0, 1.0])
    np.testing.assert_allclose(interpolate_at(net, 1.5e9), [[0.5 + 0j]])


def test_interpolate_out_of_range():
    net = one_port([1e9, 2e9], [0.0, 1.0])
    with pytest.raises(FrequencyRangeError):
        interpolate_at(net, 0.99e9)
    with pytest.raises(FrequencyRangeError):
        interpolate_at(net, 2.01e9)


def test_cascade_identity_thru():
    p = TwoPortPoint(3.6e9, 0.0, 1.0, 1.0, 0.0)
    g = np.exp(1j * np.pi / 4)
    np.testing.assert_allclose(cascade_reflection(p, g), g, rtol=1e-15)


def test_cascade_matched_load_returns_s11():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = random_two_port_point(rng)
        assert cascade_reflection(p, 0.0) == p.s11


def test_cascade_derived_value():
    p = TwoPortPoint(1e9, 0.1, 0.9, 0.9, 0.2)
    # 0.1 + 0.81*(-1)/(1 + 0.2) = -0.575
    np.testing.assert_allclose(cascade_reflection(p, -1.0), -0.575, rtol=1e-15)


def test_cascade_singularity():
    p = TwoPortPoint(1e9, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(SingularityError):
        cascade_reflection(p, 1.0)


def test_cascade_matches_moebius_form():
    # independent evaluation through the (a*g + b)/(c*g + d) coefficients
    rng = np.random.default_rng(17)
    for _ in range(300):
        p = random_two_port_point(rng)
        g = complex(rng.normal(), rng.normal())
        if abs(-p.s22 * g + 1.0) <= 1e-12:
            continue
        a = p.s12 * p.s21 - p.s11 * p.s22
        expected = (a * g + p.s11) / (-p.s22 * g + 1.0)
        np.testing.assert_allclose(cascade_reflection(p, g), expected, rtol=1e-12)


def test_cascade_preserves_cross_ratio():
    rng = np.random.default_rng(23)

    def cross_ratio(z1, z2, z3, z4):
        return ((z1 - z3) * (z2 - z4)) / ((z1 - z4) * (z2 - z3))

    for _ in range(50):
        p = random_two_port_point(rng)
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        ws = [cascade_reflection(p, z) for z in zs]
        np.testing.assert_allclose(
            cross_ratio(*ws), cross_ratio(*zs), rtol=1e-8
        )


def random_passive_two_port_point(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, sv, vh = np.linalg.svd(m)
    s = u @ np.diag(np.minimum(sv, rng.uniform(0.2, 1.0))) @ vh
    return TwoPortPoint(3.6e9, s[0, 0], s[0, 1], s[1, 0], s[1, 1])


def test_passivity_propagates():
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = random_passive_two_port_point(rng)
        g = rng.uniform(0, 1) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        assert abs(cascade_reflection(p, g)) <= 1.0 + 1e-9


def test_profile_through_thru_is_identity():
    freqs = np.array([3.3e9, 3.6e9, 3.8e9])
    loads = ReflectionProfile(
        states=(0, 1),
        frequencies=freqs,
        gamma=np.array([[1.0, 1.0, 1.0], [-1.0, -1.0, -1.0]], complex),
    )
    out = profile_from_network(thru_two_port([3e9, 4e9]), loads)
    np.testing.assert_allclose(out.gamma, loads.gamma, atol=1e-15)
    np.testing.assert_allclose(out.frequencies, freqs)


def test_profile_matched_load_gives_s11():
    freqs = np.array([3.0e9, 4.0e9])
    s = np.zeros((2, 2, 2), complex)
    s[:, 0, 0] = [0.3 + 0.1j, 0.2 - 0.2j]
    s[:, 0, 1] = s[:, 1, 0] = 0.5
    net = PortNetwork(2, 50.0, freqs, s)
    loads = ReflectionProfile(
        states=(0,), frequencies=np.array([3.5e9]), gamma=np.zeros((1, 1), complex)
    )
    out = profile_from_network(net, loads)
    np.testing.assert_allclose(out.gamma[0, 0], 0.25 - 0.05j)


def test_profile_matches_scalar_oracle_per_point():
    rng = np.random.default_rng(31)
    freqs = np.linspace(3.0e9, 4.0e9, 5)
    s = rng.normal(size=(5, 2, 2)) * 0.4 + 1j * rng.normal(size=(5, 2, 2)) * 0.4
    net = PortNetwork(2, 50.0, freqs, s)
    loads = ReflectionProfile(
        states=(0, 1),
        frequencies=freqs,
        gamma=np.vstack([np.ones(5), -np.ones(5)]).astype(complex),
    )
    out = profile_from_network(net, loads)
    for i in range(2):
        for k, f in enumerate(freqs):
            expected = cascade_reflection(two_port_at(net, f), loads.gamma[i, k])
            np.testing.assert_allclose(out.gamma[i, k], expected, rtol=1e-12)


def test_profile_range_error_annotates():
    loads = ReflectionProfile(
        states=(0,), frequencies=np.array([2.9e9]), gamma=np.ones((1, 1), complex)
    )
    with pytest.raises(FrequencyRangeError, match="not contained"):
        profile_from_network(thru_two_port([3e9, 4e9]), loads)


def test_profile_singularity_annotates_state_and_frequency():
    freqs = np.array([3e9, 4e9])
    s = np.zeros((2, 2, 2), complex)
    s[:, 0, 1] = s[:, 1, 0] = 1.0
    s[:, 1, 1] = 1.0
    net = PortNetwork(2, 50.0, freqs, s)
    loads = ReflectionProfile(
        states=(0, 1),
        frequencies=np.array([3.5e9]),
        gamma=np.array([[0.5], [1.0]], complex),
    )
    with pytest.raises(SingularityError, match="state 1 at 3500000000"):
        profile_from_network(net, loads)


def test_profile_past_the_float_range_names_state_and_frequency():
    freqs = np.array([3.0e9, 4.0e9])
    s = np.zeros((2, 2, 2), complex)
    s[:, 0, 1] = s[:, 1, 0] = 1e200
    loads = ReflectionProfile((0, 1), freqs, [[1.0, 1.0], [-1.0, -1.0]])
    with pytest.raises(InputDataError, match=r"^cascade result for state 0 at 3000000000\.0 Hz"):
        profile_from_network(PortNetwork(2, 50.0, freqs, s), loads)


def test_an_infinite_denominator_is_past_the_float_range():
    # S22*gamma overflows while S21*S12*gamma does not: the finite quotient
    # 0 would silently drop a term of -0.5.
    p = TwoPortPoint(3.6e9, 0.0, 1e150, 1e150, 2e300)
    assert cascade_reflection(p, 1e7) == pytest.approx(-0.5)
    with pytest.raises(InputDataError, match=r"frequency 3600000000\.0 Hz is past the float range"):
        cascade_reflection(p, 1e8)
