"""Network-level modeling of switched-load reflective surfaces.

Per-state reflection coefficients from switch and stub load models cascaded
through unit-cell S-parameters, phase-dispersion bandwidth metrics, tiled
wall codebooks and far-field patterns, and frequency-domain measurement
post-processing.

``import risnet`` loads this file alone. A public name or a submodule
attribute (``risnet.errors``) imports its submodule, and numpy, the first time
it is used, so a process pays only for what it runs.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    **dict.fromkeys(("ArrayLayout", "array_factor", "build_array", "led_color",
                     "power_consumption", "steering_codebook"), "array"),
    **dict.fromkeys(("GateSpec", "Sweep", "normalize_to_plate", "synth_multipath",
                     "time_gate"), "gating"),
    **dict.fromkeys(("MicrostripLine", "StubNetworkDesign", "StubState", "ideal_sp8t_design",
                     "microstrip_eeff", "sp8t_load_profile", "spdt_load_profile",
                     "stub_reflection", "synthesize_stub_lengths"), "loads"),
    **dict.fromkeys(("BandwidthReport", "bandwidth", "circular_gaps", "effective_bits",
                     "select_states", "sigma_phase", "sigma_threshold"), "metrics"),
    **dict.fromkeys(("TwoPortPoint", "cascade_reflection", "profile_from_network"), "network"),
    **dict.fromkeys(("PortNetwork", "ReflectionProfile", "dump_state_csv", "load_state_csv",
                     "parse_touchstone", "serialize_touchstone"), "touchstone"),
}

__all__ = sorted(_SUBMODULE)

# Every submodule, reachable as ``risnet.<name>`` once the package is imported.
_MODULES = frozenset({*_SUBMODULE.values(), "cli", "errors"})


def __getattr__(name: str):
    """Import public ``name``'s submodule, or submodule ``name``, and bind it here (PEP 562)."""
    if name in _SUBMODULE:
        value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    elif name in _MODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
