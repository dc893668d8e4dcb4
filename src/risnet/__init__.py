"""Network-level modeling of switched-load reflective surfaces.

Per-state reflection coefficients from switch and stub load models cascaded
through unit-cell S-parameters, phase-dispersion bandwidth metrics, tiled
wall codebooks and far-field patterns, and frequency-domain measurement
post-processing.
"""

from .array import (
    ArrayLayout,
    array_factor,
    build_array,
    led_color,
    power_consumption,
    steering_codebook,
)
from .gating import GateSpec, Sweep, normalize_to_plate, synth_multipath, time_gate
from .loads import (
    MicrostripLine,
    StubNetworkDesign,
    StubState,
    ideal_sp8t_design,
    microstrip_eeff,
    sp8t_load_profile,
    spdt_load_profile,
    stub_reflection,
    synthesize_stub_lengths,
)
from .metrics import (
    BandwidthReport,
    bandwidth,
    circular_gaps,
    effective_bits,
    select_states,
    sigma_phase,
    sigma_threshold,
)
from .network import TwoPortPoint, cascade_reflection, profile_from_network
from .touchstone import (
    PortNetwork,
    ReflectionProfile,
    dump_state_csv,
    load_state_csv,
    parse_touchstone,
    serialize_touchstone,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayLayout",
    "BandwidthReport",
    "GateSpec",
    "MicrostripLine",
    "PortNetwork",
    "ReflectionProfile",
    "StubNetworkDesign",
    "StubState",
    "Sweep",
    "TwoPortPoint",
    "array_factor",
    "bandwidth",
    "build_array",
    "cascade_reflection",
    "circular_gaps",
    "dump_state_csv",
    "effective_bits",
    "ideal_sp8t_design",
    "led_color",
    "load_state_csv",
    "microstrip_eeff",
    "normalize_to_plate",
    "parse_touchstone",
    "power_consumption",
    "profile_from_network",
    "select_states",
    "serialize_touchstone",
    "sigma_phase",
    "sigma_threshold",
    "sp8t_load_profile",
    "spdt_load_profile",
    "steering_codebook",
    "stub_reflection",
    "synth_multipath",
    "synthesize_stub_lengths",
    "time_gate",
]
