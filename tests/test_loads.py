import re

import numpy as np
import pytest
from scipy.constants import c as C0

from risnet.errors import FrequencyRangeError, InputDataError, SingularityError
from risnet.loads import (
    MicrostripLine,
    StubNetworkDesign,
    StubState,
    guided_wavelength,
    ideal_sp8t_design,
    microstrip_eeff,
    sp8t_load_profile,
    spdt_load_profile,
    stub_reflection,
    synthesize_stub_lengths,
)
from risnet.touchstone import PortNetwork

F_CENTER = 3.6e9


def lossless_line(epsilon_r=4.9):
    return MicrostripLine(width=1.5e-3, substrate_height=0.8e-3, epsilon_r=epsilon_r)


def thru_switch(freqs, s21=1.0, s11=0.0, s22=0.0):
    k = len(freqs)
    s = np.zeros((k, 2, 2), complex)
    s[:, 0, 0] = s11
    s[:, 1, 1] = s22
    s[:, 0, 1] = s[:, 1, 0] = s21
    return PortNetwork(2, 50.0, np.asarray(freqs, float), s)


def test_eeff_vacuum_limit():
    assert microstrip_eeff(lossless_line(epsilon_r=1.0)) == 1.0


def test_eeff_frozen_value_and_bounds():
    ee = microstrip_eeff(lossless_line())
    assert 1.0 < ee < 4.9
    np.testing.assert_allclose(ee, 3.66484243312406, rtol=1e-12)


def test_eeff_parallel_plate_limit():
    wide = MicrostripLine(width=0.8, substrate_height=0.8e-3, epsilon_r=4.9)
    assert microstrip_eeff(wide) >= 0.98 * 4.9


def test_line_validation():
    with pytest.raises(ValueError):
        MicrostripLine(width=0.0, substrate_height=1e-3, epsilon_r=4.9)
    with pytest.raises(ValueError):
        MicrostripLine(width=1e-3, substrate_height=1e-3, epsilon_r=0.5)
    with pytest.raises(ValueError):
        MicrostripLine(width=1e-3, substrate_height=1e-3, epsilon_r=2.0, loss_db_per_m=-1)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("field", [
    "width", "substrate_height", "epsilon_r", "loss_db_per_m", "reference_frequency",
])
def test_line_rejects_non_finite(field, value):
    kwargs = dict(width=1.5e-3, substrate_height=0.8e-3, epsilon_r=4.9)
    kwargs[field] = value
    with pytest.raises(ValueError, match="finite"):
        MicrostripLine(**kwargs)


def test_eeff_width_ratio_out_of_range():
    with pytest.raises(ValueError, match="width/height ratio"):
        microstrip_eeff(MicrostripLine(width=1.5e-3, substrate_height=1e-300, epsilon_r=4.9))


def test_stub_zero_length():
    line = lossless_line()
    assert stub_reflection(0.0, "open", F_CENTER, line) == 1.0
    assert stub_reflection(0.0, "short", F_CENTER, line) == -1.0


def test_stub_short_eighth_wavelength_gives_plus_90():
    line = lossless_line()
    length = guided_wavelength(line, F_CENTER) / 8.0  # beta*l = 45 degrees
    g = stub_reflection(length, "short", F_CENTER, line)
    np.testing.assert_allclose(np.angle(g, deg=True), 90.0, atol=1e-9)
    np.testing.assert_allclose(abs(g), 1.0, rtol=1e-12)


def test_stub_loss_scales_with_sqrt_frequency():
    line = MicrostripLine(1.5e-3, 0.8e-3, 4.9, loss_db_per_m=10.0, reference_frequency=F_CENTER)
    length = 0.01
    g_ref = stub_reflection(length, "open", F_CENTER, line)
    np.testing.assert_allclose(abs(g_ref), 10 ** (-2 * 10.0 * length / 20), rtol=1e-12)
    g_double = stub_reflection(length, "open", 2 * F_CENTER, line)
    np.testing.assert_allclose(
        abs(g_double), 10 ** (-2 * 10.0 * np.sqrt(2) * length / 20), rtol=1e-12
    )


def test_spdt_ideal_switch():
    freqs = np.linspace(3.3e9, 3.8e9, 6)
    profile = spdt_load_profile(None, freqs)
    assert profile.states == (0, 1)
    np.testing.assert_allclose(profile.gamma[0], 1.0)
    np.testing.assert_allclose(profile.gamma[1], -1.0)


def test_spdt_insertion_loss_roundtrip():
    # 1 dB per pass -> round trip magnitude 10^(-2/20) in both states
    loss = 10 ** (-1 / 20)
    freqs = np.array([3.3e9, 3.8e9])
    profile = spdt_load_profile(thru_switch(freqs, s21=loss), freqs)
    np.testing.assert_allclose(np.abs(profile.gamma), 10 ** (-2 / 20), rtol=1e-12)


def test_spdt_mismatched_switch_matches_scalar_cascade():
    freqs = np.array([3.3e9, 3.8e9])
    switch = thru_switch(freqs, s11=0.1)
    profile = spdt_load_profile(switch, freqs)
    # scalar oracle: s11 + s21*s12*g/(1 - s22*g) with s22 = 0
    np.testing.assert_allclose(profile.gamma[0], 0.1 + 1.0, rtol=1e-12)
    np.testing.assert_allclose(profile.gamma[1], 0.1 - 1.0, rtol=1e-12)


def resonant_design(line):
    """Behind a switch with S22 = -1, state 5's zero-length short (gamma = -1) is singular."""
    states = tuple(
        StubState(state=i, termination="open" if i < 4 else "short",
                  length_m=0.0 if i == 5 else 5e-3)
        for i in range(8)
    )
    switch = thru_switch([3.0e9, 4.2e9], s21=0.5, s22=-1.0)
    return StubNetworkDesign(states=states, line=line, switch=switch)


def test_switch_singularity_names_state_and_frequency():
    freqs = np.array([3.3e9, 3.6e9])
    design = resonant_design(lossless_line())
    with pytest.raises(SingularityError, match=r"state 5 at 3300000000\.0 Hz"):
        sp8t_load_profile(design, freqs)
    # the grounded throw (state 1, gamma = -1) is the singular one of the SPDT pair
    with pytest.raises(SingularityError, match=r"state 1 at 3300000000\.0 Hz"):
        spdt_load_profile(design.switch, freqs)


def test_sp8t_ideal_design_hits_ladder():
    line = lossless_line()
    design = ideal_sp8t_design(line, F_CENTER)
    profile = sp8t_load_profile(design, [F_CENTER])
    phases = np.angle(profile.gamma[:, 0], deg=True) % 360.0
    np.testing.assert_allclose(phases, np.arange(8) * 45.0, atol=1e-6)


def test_sp8t_zero_lengths_give_two_phases():
    line = lossless_line()
    states = tuple(
        StubState(state=i, termination="open" if i < 4 else "short", length_m=0.0)
        for i in range(8)
    )
    design = StubNetworkDesign(states=states, line=line)
    profile = sp8t_load_profile(design, [F_CENTER])
    phases = set(np.round(np.angle(profile.gamma[:, 0], deg=True) % 360.0, 6))
    assert phases == {0.0, 180.0}


def test_sp8t_loss_monotone_in_length():
    line = MicrostripLine(1.5e-3, 0.8e-3, 4.9, loss_db_per_m=20.0, reference_frequency=F_CENTER)
    design = ideal_sp8t_design(line, F_CENTER)
    profile = sp8t_load_profile(design, [F_CENTER])
    mags = {st.state: abs(profile.gamma[st.state, 0]) for st in design.states}
    by_length = sorted(design.states, key=lambda st: st.length_m)
    for shorter, longer in zip(by_length, by_length[1:]):
        if longer.length_m > shorter.length_m:
            assert mags[longer.state] < mags[shorter.state]
        assert mags[longer.state] <= 1.0


def test_design_validation():
    line = lossless_line()
    states = tuple(StubState(state=i, termination="open", length_m=0.0) for i in range(8))
    with pytest.raises(ValueError, match="4 open"):
        StubNetworkDesign(states=states, line=line)
    with pytest.raises(ValueError):
        StubState(state=0, termination="grounded", length_m=0.0)
    for length in (-1e-3, np.inf, np.nan):
        with pytest.raises(ValueError, match="stub length must be finite and >= 0"):
            StubState(state=0, termination="open", length_m=length)


def test_synthesis_closed_form_at_center():
    line = lossless_line()
    design = synthesize_stub_lengths(None, line, F_CENTER, (F_CENTER, F_CENTER))
    lam_g = guided_wavelength(line, F_CENTER)
    by_state = {st.state: st for st in design.states}

    assert by_state[0].termination == "open"
    assert by_state[0].length_m <= 1e-9
    assert by_state[4].termination == "short"
    assert by_state[4].length_m <= 1e-9
    # target 90 -> short stub of lambda_g/8; target 315 -> open stub of lambda_g/16
    assert by_state[2].termination == "short"
    np.testing.assert_allclose(by_state[2].length_m, lam_g / 8, rtol=1e-6)
    assert by_state[7].termination == "open"
    np.testing.assert_allclose(by_state[7].length_m, lam_g / 16, rtol=1e-6)

    terms = [st.termination for st in design.states]
    assert [t == "open" for t in terms] == [True, False, False, False, False, True, True, True]
    for st in design.states:
        assert st.length_m / lam_g * 360.0 <= 67.5 + 1e-6

    profile = sp8t_load_profile(design, [F_CENTER])
    phases = np.angle(profile.gamma[:, 0], deg=True) % 360.0
    err = (phases - np.arange(8) * 45.0 + 180.0) % 360.0 - 180.0
    assert np.max(np.abs(err)) <= 1e-3
    for st in design.states:
        assert st.residual_deg is not None and st.residual_deg <= 1e-3


def test_synthesis_band_keeps_lengths_short_and_residual_small():
    line = lossless_line()
    design = synthesize_stub_lengths(None, line, F_CENTER, (3.3e9, 3.8e9))
    lam_g = guided_wavelength(line, F_CENTER)
    for st in design.states:
        # band fitting may nudge lengths a little past the zero-loss 67.5
        # degree assignment values, but they stay well inside [0, lambda_g/2)
        assert st.length_m / lam_g * 360.0 <= 90.0
        assert st.residual_deg <= 1.0
    assert sum(st.termination == "open" for st in design.states) == 4


def test_synthesis_with_lossy_switch():
    freqs = np.linspace(3.0e9, 4.0e9, 11)
    switch = thru_switch(freqs, s21=10 ** (-0.5 / 20), s11=0.05)
    design = synthesize_stub_lengths(switch, lossless_line(), F_CENTER, (3.3e9, 3.8e9))
    profile = sp8t_load_profile(design, [F_CENTER])
    phases = np.angle(profile.gamma[:, 0], deg=True) % 360.0
    err = (phases - np.arange(8) * 45.0 + 180.0) % 360.0 - 180.0
    # a mildly mismatched switch still lands close to the ladder at center
    assert np.max(np.abs(err)) < 10.0


def test_synthesis_band_must_contain_center():
    with pytest.raises(ValueError, match="contain"):
        synthesize_stub_lengths(None, lossless_line(), F_CENTER, (3.7e9, 3.8e9))


def test_synthesis_band_outside_switch_sweep():
    switch = thru_switch(np.array([3.5e9, 3.7e9]))
    with pytest.raises(FrequencyRangeError):
        synthesize_stub_lengths(switch, lossless_line(), F_CENTER, (3.3e9, 3.8e9))


def test_synthesis_names_the_singular_state_and_frequency():
    # S22 = -1 meets the short's gamma = -1 at length 0, the first point of the
    # coarse scan; the band grid avoids f_center, where an open stub a quarter
    # wave long would also be singular.
    band = (3.5e9, 3.7e9)
    switch = thru_switch(np.linspace(3.0e9, 4.0e9, 11), s22=-1.0)
    with pytest.raises(SingularityError) as exc:
        synthesize_stub_lengths(switch, lossless_line(), F_CENTER, band, n_band_points=4)
    state, f_hz = re.match(r"cascade singular for state (\d) at (\S+) Hz", str(exc.value)).groups()
    assert ideal_sp8t_design(lossless_line(), F_CENTER).states[int(state)].termination == "short"
    assert float(f_hz) in np.linspace(*band, 4)


def test_design_json_roundtrip_ideal():
    design = synthesize_stub_lengths(None, lossless_line(), F_CENTER, (F_CENTER, F_CENTER))
    back = StubNetworkDesign.from_json(design.to_json(f_center_hz=F_CENTER))
    assert back.switch is None
    assert back.line == design.line
    for a, b in zip(back.states, design.states):
        assert a.termination == b.termination
        np.testing.assert_allclose(a.length_m, b.length_m, rtol=1e-12)


def test_design_json_roundtrip_with_switch():
    freqs = np.linspace(3.0e9, 4.0e9, 5)
    switch = thru_switch(freqs, s21=0.9, s11=0.05)
    design = StubNetworkDesign(
        states=ideal_sp8t_design(lossless_line(), F_CENTER).states,
        line=lossless_line(),
        switch=switch,
    )
    back = StubNetworkDesign.from_json(design.to_json())
    assert back.switch is not None
    np.testing.assert_allclose(back.switch.frequencies, freqs, rtol=1e-9)
    np.testing.assert_allclose(back.switch.s, switch.s, rtol=1e-9, atol=1e-12)


def test_guided_wavelength_vacuum():
    line = lossless_line(epsilon_r=1.0)
    np.testing.assert_allclose(guided_wavelength(line, C0), 1.0, rtol=1e-12)


def test_synthesis_names_an_overflowing_switch():
    switch = thru_switch(np.linspace(3.0e9, 4.2e9, 13), s21=1e200)
    with pytest.raises(InputDataError, match=r"^cascade result for state 0 at 3300000000\.0 Hz"):
        synthesize_stub_lengths(switch, lossless_line(), F_CENTER, (3.3e9, 3.8e9))


def test_stub_model_names_what_overflows():
    line = MicrostripLine(1.5e-3, 0.8e-3, 4.9, loss_db_per_m=1e308)
    with pytest.raises(InputDataError, match=r"^the line loss of 1e\+308 dB/m overflows"):
        synthesize_stub_lengths(None, line, F_CENTER, (3.3e9, 3.8e9))
    assert stub_reflection(0.01, "open", 3.3e9, line) == 0  # all lost, not past the range
    with pytest.raises(InputDataError, match=r"^the stub phase at 1e\+308 Hz overflows"):
        stub_reflection(0.01, "open", [3.3e9, 1e308], lossless_line())


@pytest.mark.parametrize("band", [(3.3e9, np.inf), (1.0, 1e160)])
def test_synthesis_rejects_a_band_too_wide_to_weight(band):
    with pytest.raises(ValueError, match="too wide to weight"):
        synthesize_stub_lengths(None, lossless_line(), 3.6e9, band)
