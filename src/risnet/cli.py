"""Command-line frontend: parse, profile, synth, bandwidth, pattern, gate.

All subcommands are deterministic: the same inputs and flags produce
byte-identical outputs. Timestamps only appear when --stamp is given.
Exit codes: 0 success, 2 usage error, 3 input/parse error (or a failed
write to stdout or stderr), 4 numerical failure.

Every subcommand reads or writes through ``touchstone``; each imports the
other modules it runs where it runs them, so a process loads only those.
After its outputs, a subcommand warns once per input with a |gamma| or a
``PortNetwork.sigma_max()`` past 1 + ``touchstone.GAIN_TOLERANCE`` (not passive).
A process started as ``risnet`` or ``python -m risnet.cli`` enters through
``run``, which flushes stdout and stderr and leaves through ``os._exit``
without tearing the interpreter down; ``main`` called in-process returns
its exit code as usual.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import touchstone
from .errors import InputDataError, NumericalError
from .touchstone import _csv_text, _fmt, _format_rows

N78_BAND = (3.3e9, 3.8e9)
DEFAULT_F_CENTER = 3.6e9

# Grid-size caps, checked before anything is allocated. At the caps a pattern
# cut (64x64 tiles, 20001 angles) keeps A_x and A_y, 2 x 20001 x 256 complex
# values (164 MB), plus one row block of temporaries (about 0.2 GB peak RSS);
# a process keeps the matrices of at most 4 grids. The synthesis coarse scan
# works on (8, 64, n_band_points) complex arrays of 82 MB each (about 0.28 GB
# peak RSS behind a measured switch).
MAX_TILES = 64
MAX_THETA_POINTS = 20_001
MAX_BAND_POINTS = 10_001


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``, read the same with or without a leading byte-order mark."""
    return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")  # errors count from byte 0


def _write_file(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 over ``path`` in place, creating it if missing.

    An existing file keeps its inode, mode, owner and hard links, and a
    symlink writes its target. The file is cut to the new length only after
    the bytes are written, and only if it is a regular file (a FIFO or
    /dev/null cannot be truncated). On ext4, truncating first or renaming a
    new file over the old stalls for tens of milliseconds when the old file
    had data; the final cut stalls only when it frees blocks already on disk
    (a shorter output over an old file). Like a truncating write, this is
    not atomic: a crash part way can leave old bytes after the new ones.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):  # a pipe may take part of the bytes per call
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_file(out, text)


def _stamp_pairs(args) -> list:
    """``[("generated", <UTC time>)]`` with --stamp, else no pairs."""
    return [("generated", datetime.now(timezone.utc).isoformat())] if args.stamp else []


def _stamp_comments(args) -> tuple:
    return tuple(f"{key} {value}" for key, value in _stamp_pairs(args))


def _text_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value) if isinstance(value, float) else str(value)


def _text_lines(pairs, prefix: str = ""):
    for key, value in pairs:
        if isinstance(value, dict):
            yield from _text_lines(value.items(), f"{prefix}{key}.")
        elif not isinstance(value, list):
            yield f"{prefix}{key}: {_text_value(value)}\n"


def _render(pairs, fmt: str) -> str:
    """A summary, given as ordered (key, raw value) pairs, as JSON or as text.

    Text has one ``key: value`` line per scalar: floats as ``%.12g``, None as
    ``none``, booleans as in JSON, and the members of an object as
    ``key.member``. Lists appear in JSON only.
    """
    if fmt == "json":
        return json.dumps(dict(pairs), indent=2) + "\n"
    return "".join(_text_lines(pairs))


def _warn_nonphysical(mag: np.ndarray, what: str, where, unit: str) -> None:
    """Write one ``warning:`` line on stderr if a value of ``mag`` exceeds 1 + GAIN_TOLERANCE.

    The line gives ``what``, its largest value, ``where(k)`` for that value's
    flat index k, and how many ``unit`` are past the limit. A command calls it
    once its outputs are written, so a command that fails prints only its
    ``error:`` line.
    """
    above = int(np.count_nonzero(mag > 1.0 + touchstone.GAIN_TOLERANCE))
    if above:
        k = int(np.argmax(mag))
        sys.stderr.write(
            f"warning: nonphysical {what} {_fmt(float(mag.flat[k]))} > 1 at {where(k)} Hz "
            f"({above} of {mag.size} {unit} above 1 + {touchstone.GAIN_TOLERANCE:g})\n"
        )


def _warn_if_active(p: touchstone.ReflectionProfile) -> None:
    """:func:`_warn_nonphysical` on the |gamma| of profile ``p``, naming state and frequency."""
    f = p.frequencies
    _warn_nonphysical(np.abs(p.gamma), "profile: |gamma|",
                      lambda k: f"state {p.states[k // f.size]}, {_fmt(float(f[k % f.size]))}",
                      "entries")


def _warn_if_not_passive(net: touchstone.PortNetwork, name: str) -> None:
    """:func:`_warn_nonphysical` on the sigma_max of input ``name``'s 2-port S-data."""
    _warn_nonphysical(net.sigma_max(), f"S-data in {name}: sigma_max",
                      lambda k: _fmt(float(net.frequencies[k])), "points")


def _line_from_args(args, f_center: float, needed_by: str):
    from . import loads

    if args.line_width_m is None:
        raise ValueError(f"{needed_by} requires --line-width-m (no published default)")
    return loads.MicrostripLine(
        width=args.line_width_m,
        substrate_height=args.substrate_height_m,
        epsilon_r=args.epsilon_r,
        loss_db_per_m=args.loss_db_per_m,
        reference_frequency=args.loss_ref_hz if args.loss_ref_hz is not None else f_center,
    )


def _resolution_bits(args, n_states: int) -> int:
    """``--bits``, or the resolution of ``n_states``; the library checks that the two match."""
    return args.bits or n_states.bit_length() - 1


def cmd_parse(args) -> int:
    text = _read_text(args.file)
    if Path(args.file).suffix.lower() == ".csv":
        profile = touchstone.load_state_csv(text)
        pairs = [
            ("type", "state_csv"),
            ("states", profile.n_states),
            ("frequencies", int(profile.frequencies.size)),
            ("f_min_hz", float(profile.frequencies[0])),
            ("f_max_hz", float(profile.frequencies[-1])),
        ]
    else:
        profile, net = None, touchstone.parse_touchstone(text)
        pairs = [
            ("type", "touchstone"),
            ("n_ports", net.n_ports),
            ("points", int(net.frequencies.size)),
            ("f_min_hz", net.f_min),
            ("f_max_hz", net.f_max),
            ("reference_impedance_ohm", net.reference_impedance),
        ]
    _write_output(_render(pairs, args.format), args.out)
    if profile is not None:
        _warn_if_active(profile)
    elif net.n_ports == 2:
        # A 1-port file may be a scene sweep (what gate reads), not component data.
        _warn_if_not_passive(net, args.file)
    return 0


def _load_profile_source(args, frequencies: np.ndarray, f_center: float) -> tuple:
    """(load profile of --loads, its switch network or None, the switch's name in a warning)."""
    from . import loads

    src = args.loads
    if src == "ideal-1bit":
        return loads.spdt_load_profile(None, frequencies), None, src
    if src == "ideal-3bit":
        line = _line_from_args(args, f_center, "--loads ideal-3bit")
        design = loads.ideal_sp8t_design(line, f_center)
        return loads.sp8t_load_profile(design, frequencies), None, src
    suffix = Path(src).suffix.lower()
    if suffix == ".json":
        design = loads.StubNetworkDesign.from_json(_read_text(src))
        return loads.sp8t_load_profile(design, frequencies), design.switch, f"{src} (switch)"
    if suffix in (".s2p", ".s1p", ".snp"):
        switch = touchstone.parse_touchstone(_read_text(src))
        return loads.spdt_load_profile(switch, frequencies), switch, src
    raise ValueError(
        f"unknown loads source '{src}' (expected ideal-1bit, ideal-3bit, "
        "a design .json or a switch .s2p)"
    )


def cmd_profile(args) -> int:
    from . import network

    unit_cell = touchstone.parse_touchstone(_read_text(args.unit_cell))
    freqs = unit_cell.frequencies
    if args.band_low_hz is not None:
        freqs = freqs[freqs >= args.band_low_hz]
    if args.band_high_hz is not None:
        freqs = freqs[freqs <= args.band_high_hz]
    if freqs.size == 0:
        raise InputDataError("no unit-cell sweep points inside the requested band")
    f_center = args.f_center_hz
    load_profile, switch, switch_name = _load_profile_source(args, freqs, f_center)
    profile = network.profile_from_network(unit_cell, load_profile)
    # A file source is named by its basename (the ideal-* names are their own),
    # so the output does not depend on the path used to reach the same file.
    comments = _stamp_comments(args) + (
        f"surface reflection profile, loads={Path(args.loads).name}",
    )
    _write_output(touchstone.dump_state_csv(profile, comments=comments), args.out)
    _warn_if_active(profile)
    if switch is not None:
        _warn_if_not_passive(switch, switch_name)
    return 0


def cmd_synth(args) -> int:
    from . import loads

    if args.n_band_points > MAX_BAND_POINTS:
        raise ValueError(
            f"--n-band-points {args.n_band_points} is above the limit of {MAX_BAND_POINTS}"
        )
    f_center = args.f_center_hz
    line = _line_from_args(args, f_center, "synth")
    band = (
        args.band_low_hz if args.band_low_hz is not None else N78_BAND[0],
        args.band_high_hz if args.band_high_hz is not None else N78_BAND[1],
    )
    switch = None
    if args.switch != "ideal":
        switch = touchstone.parse_touchstone(_read_text(args.switch))
    design = loads.synthesize_stub_lengths(
        switch, line, f_center, band, n_band_points=args.n_band_points
    )
    _write_output(design.to_json(f_center_hz=f_center), args.out)
    if switch is not None:
        _warn_if_not_passive(switch, args.switch)
    return 0


def cmd_bandwidth(args) -> int:
    from . import metrics

    profile = touchstone.load_state_csv(_read_text(args.profile))
    if args.virtual_2bit:
        if profile.n_states != 8:
            raise InputDataError(
                f"--virtual-2bit needs an 8-state profile, got {profile.n_states} states"
            )
        profile = metrics.select_states(profile, (0, 2, 4, 6))
    bits = _resolution_bits(args, profile.n_states)
    report = metrics.bandwidth(profile, bits, args.f_center_hz)
    if args.format == "csv":
        _write_output(report.to_csv(comments=_stamp_comments(args)), args.out)
    else:
        pairs = [
            *report.to_json_dict().items(),
            ("resolution_bits", bits),
            ("f_center_hz", args.f_center_hz),
            ("virtual_2bit", bool(args.virtual_2bit)),
            *_stamp_pairs(args),
        ]
        _write_output(_render(pairs, args.format), args.out)
    _warn_if_active(profile)
    return 0


def _theta_grid(args) -> np.ndarray:
    """The --theta-* cut, with its length checked before it is allocated."""
    start, stop, step = args.theta_start_deg, args.theta_stop_deg, args.theta_step_deg
    for flag, value in (("--theta-start-deg", start), ("--theta-stop-deg", stop)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"--theta-step-deg must be finite and > 0, got {step}")
    if not stop >= start:
        raise ValueError(f"--theta-stop-deg {stop} must be >= --theta-start-deg {start}")
    n = (stop - start) / step + 1
    if not n <= MAX_THETA_POINTS:
        raise ValueError(
            f"--theta-step-deg {step} from --theta-start-deg {start} to --theta-stop-deg "
            f"{stop} gives {n:.3g} angles; the limit is {MAX_THETA_POINTS}"
        )
    return np.arange(start, stop + step / 2, step)


def cmd_pattern(args) -> int:
    from . import array as arr

    for flag, tiles in (("--tiles-x", args.tiles_x), ("--tiles-y", args.tiles_y)):
        if tiles > MAX_TILES:
            raise ValueError(f"{flag} {tiles} is above the limit of {MAX_TILES} tiles")
    theta_grid = _theta_grid(args)
    profile = touchstone.load_state_csv(_read_text(args.profile))
    bits = _resolution_bits(args, profile.n_states)
    layout = arr.build_array(args.tiles_x, args.tiles_y, bits)
    f = args.f_center_hz
    gamma_states = profile.at_frequency(f)
    state_map, residual = arr.steering_codebook(
        layout, gamma_states, (args.theta_deg, args.phi_az_deg), f
    )
    af = arr.array_factor(
        layout, state_map, gamma_states, f, theta_grid, args.phi_az_deg,
        element_exponent=args.element_exponent,
    )
    mag = np.abs(af)
    peak = np.max(mag)
    if peak == 0:
        raise NumericalError("the array factor is 0 on the whole cut; no peak to normalize to")
    af_db = 20.0 * np.log10(np.maximum(mag / peak, 1e-300))

    pattern_csv = _csv_text(
        "theta_deg,phi_deg,af_db", _stamp_comments(args),
        _format_rows(f"%.12g,{_fmt(args.phi_az_deg)},%.12g\n", theta_grid, af_db),
    )

    if args.state_map_out is not None:  # the map holds state labels, not row positions
        labels = np.asarray(profile.states)[state_map]
        if args.state_map_out.lower().endswith(".json"):
            _write_file(args.state_map_out, arr.state_map_to_json(labels))
        else:
            _write_file(args.state_map_out, arr.state_map_to_text(labels))

    summary = [
        ("tiles", f"{layout.tiles_x}x{layout.tiles_y}"),
        ("cells", layout.n_cells),
        ("resolution_bits", bits),
        ("area_m2", layout.area_m2),
        ("power_mw", arr.power_consumption(layout) * 1e3),
        ("f_hz", f),
        ("steer_theta_deg", args.theta_deg),
        ("steer_phi_az_deg", args.phi_az_deg),
        ("peak_theta_deg", float(theta_grid[int(np.argmax(mag))])),
        ("max_residual_deg", float(np.max(residual))),
    ]
    _write_output(pattern_csv, args.out)
    # stdout carries only the CSV when it goes there; the summary then goes to stderr.
    (sys.stderr if args.out is None else sys.stdout).write(_render(summary, args.format))
    _warn_if_active(profile)
    return 0


def _load_sweep(path: str) -> tuple:
    """(sweep, reference impedance in ohms) of a sweep file; a CSV sweep counts as 50 ohms."""
    from . import gating

    text = _read_text(path)
    if Path(path).suffix.lower() == ".csv":
        return gating.load_sweep_csv(text), 50.0
    net = touchstone.parse_touchstone(text)
    return gating.sweep_from_network(net), net.reference_impedance


def cmd_gate(args) -> int:
    from . import gating

    if args.normalize and args.reference is None:
        raise ValueError("--normalize requires --reference <plate sweep file>")
    if args.reference is not None and not args.normalize:
        raise ValueError("--reference is only read with --normalize")
    sweep, z0 = _load_sweep(args.sweep)
    gate = gating.GateSpec(
        t_start=args.t_start_s,
        t_stop=args.t_stop_s,
        window_shape=args.edge_fraction,
        pre_window=args.kaiser_beta,
    )
    result = gating.time_gate(sweep, gate)
    if args.normalize:
        plate, plate_z0 = _load_sweep(args.reference)
        if plate_z0 != z0:
            raise InputDataError(
                f"--reference is at R {_fmt(plate_z0)} ohm but the sweep at R {_fmt(z0)} ohm"
            )
        result = gating.normalize_to_plate(result, gating.time_gate(plate, gate))
    lo, hi = gating.low_confidence_edges(result)
    comments = _stamp_comments(args) + (
        f"gate_start_s={_fmt(gate.t_start)} gate_stop_s={_fmt(gate.t_stop)} "
        f"edge_fraction={_fmt(gate.window_shape)} kaiser_beta={_fmt(gate.pre_window)}",
        f"low_confidence_below_hz={_fmt(lo)} low_confidence_above_hz={_fmt(hi)}",
    )
    if args.out is not None and args.out.lower().endswith(".s1p"):
        net = gating.sweep_to_network(result, z0)
        _write_output(
            touchstone.serialize_touchstone(net, "RI", "GHz", comments=comments), args.out
        )
    else:
        _write_output(gating.dump_sweep_csv(result, comments=comments), args.out)
    return 0


# Flags that more than one subcommand reads; each subcommand names its own.
_SHARED_FLAGS = {
    "--line-width-m": dict(type=float, default=None, help="microstrip width in metres"),
    "--substrate-height-m": dict(type=float, default=0.8e-3,
                                 help="substrate height in metres (default 0.8e-3)"),
    "--epsilon-r": dict(type=float, default=4.9,
                        help="substrate relative permittivity (default 4.9)"),
    "--loss-db-per-m": dict(type=float, default=0.0,
                            help="line loss in dB/m at the loss reference frequency"),
    "--loss-ref-hz": dict(type=float, default=None,
                          help="loss reference frequency (default: f_center)"),
    "--band-low-hz": dict(type=float, default=None,
                          help="lower band edge in Hz (default: n78 3.3e9 where a band is needed)"),
    "--band-high-hz": dict(type=float, default=None,
                           help="upper band edge in Hz (default: n78 3.8e9 where a band is needed)"),
    "--f-center-hz": dict(type=float, default=DEFAULT_F_CENTER,
                          help="center frequency in Hz (default 3.6e9)"),
    "--bits": dict(type=int, choices=(1, 2, 3), default=None,
                   help="phase resolution in bits (default: inferred)"),
    "--out": dict(type=str, default=None, help="output path (default: stdout)"),
    "--stamp": dict(action="store_true", help="include a generation timestamp in outputs"),
}


def _subparser(sub, name, func, flags, formats=(), **kwargs) -> argparse.ArgumentParser:
    """Subcommand ``name`` with the shared ``flags``; ``formats[0]`` is the --format default."""
    p = sub.add_parser(name, **kwargs)
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0],
                       help="structured output format")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="risnet",
        description="Network-level modeling of switched-load reflective surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    line = ("--line-width-m", "--substrate-height-m", "--epsilon-r", "--loss-db-per-m",
            "--loss-ref-hz")
    band = ("--band-low-hz", "--band-high-hz", "--f-center-hz")

    p = _subparser(sub, "parse", cmd_parse, ("--out",), ("text", "json"),
                   help="summarize a Touchstone or state CSV file")
    p.add_argument("file")

    p = _subparser(sub, "profile", cmd_profile, line + band + ("--out", "--stamp"),
                   help="cascade loads through a unit cell into a state CSV")
    p.add_argument("unit_cell", help="unit-cell 2-port Touchstone file (.s2p)")
    p.add_argument("--loads", required=True,
                   help="ideal-1bit | ideal-3bit | design .json | switch .s2p")

    p = _subparser(sub, "synth", cmd_synth, line + band + ("--out",),
                   help="synthesize 8-state stub lengths for the 45-degree ladder")
    p.add_argument("--switch", default="ideal", help="'ideal' or a switch .s2p path")
    p.add_argument("--n-band-points", type=int, default=21,
                   help="points on the synthesis band grid (default 21)")

    p = _subparser(sub, "bandwidth", cmd_bandwidth,
                   ("--bits", "--f-center-hz", "--out", "--stamp"), ("json", "csv", "text"),
                   help="sigma, effective bits and usable band of a profile")
    p.add_argument("profile", help="state CSV path")
    p.add_argument("--virtual-2bit", action="store_true",
                   help="reduce an 8-state profile to states 0,2,4,6 first")

    p = _subparser(sub, "pattern", cmd_pattern,
                   ("--bits", "--f-center-hz", "--out", "--stamp"), ("text", "json"),
                   help="steering codebook and far-field cut for a tiled wall")
    p.add_argument("profile", help="state CSV path")
    p.add_argument("--tiles-x", type=int, default=6)
    p.add_argument("--tiles-y", type=int, default=6)
    p.add_argument("--theta-deg", type=float, default=0.0, help="steer elevation from broadside")
    p.add_argument("--phi-az-deg", type=float, default=0.0, help="steer azimuth")
    p.add_argument("--theta-start-deg", type=float, default=-90.0)
    p.add_argument("--theta-stop-deg", type=float, default=90.0)
    p.add_argument("--theta-step-deg", type=float, default=0.5)
    p.add_argument("--element-exponent", type=float, default=1.0,
                   help="cos^q element factor exponent (0 disables)")
    p.add_argument("--state-map-out", type=str, default=None,
                   help="write the per-cell state map (.json for JSON, else text grid)")

    p = _subparser(sub, "gate", cmd_gate, ("--out", "--stamp"),
                   help="time-gate a sweep, optionally normalizing to a plate reference")
    p.add_argument("sweep", help="sweep file (.s1p or CSV freq_hz,re,im)")
    p.add_argument("--t-start-s", type=float, required=True)
    p.add_argument("--t-stop-s", type=float, required=True)
    p.add_argument("--edge-fraction", type=float, default=0.25,
                   help="Tukey taper fraction of the gate (default 0.25)")
    p.add_argument("--kaiser-beta", type=float, default=6.0,
                   help="pre-window Kaiser beta (default 6.0)")
    p.add_argument("--normalize", action="store_true",
                   help="divide by a gated metal-plate reference")
    p.add_argument("--reference", type=str, default=None,
                   help="plate reference sweep file, read with --normalize")
    return parser


# First match wins: InputDataError and UnicodeDecodeError (non-text input) are ValueErrors.
_EXIT_CODES = (
    (InputDataError, 3), (NumericalError, 4), (OSError, 3), (UnicodeDecodeError, 3), (ValueError, 2)
)


def _write_error(e: Exception) -> None:
    """Write one ``error:`` line on stderr, unless stderr itself refuses it."""
    try:
        sys.stderr.write(f"error: {e}\n")
    except OSError:
        pass


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        f_center = getattr(args, "f_center_hz", DEFAULT_F_CENTER)
        if not math.isfinite(f_center):
            raise ValueError(f"--f-center-hz must be finite, got {f_center}")
        for flag in ("--band-low-hz", "--band-high-hz"):
            value = getattr(args, flag[2:].replace("-", "_"), None)
            if value is not None and math.isnan(value):
                raise ValueError(f"{flag} must be a number, got {value}")
        return args.func(args)
    except (NumericalError, OSError, ValueError) as e:
        _write_error(e)
        return next(code for kind, code in _EXIT_CODES if isinstance(e, kind))


def run():
    """Run ``main`` as a process and leave without tearing the interpreter down.

    When ``main`` returns, every output file is written and closed; only the
    stdout and stderr buffers are left. They are flushed once, and the process
    leaves through ``os._exit``, which skips the final garbage collection and
    the freeing of numpy's modules (about 13 ms of a call). Usage errors and
    --help leave ``main`` as argparse's SystemExit, whose code is taken as
    main's. A flush that fails (a full device, a closed pipe) writes one
    ``error:`` line, if stderr takes it, and exits 3, or with main's code when
    that is already non-zero. Uncaught exceptions leave through the usual
    teardown.
    """
    try:
        rc = main()
    except SystemExit as e:  # argparse's exit, code 0 after --help or 2 on a usage error
        rc = e.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as e:
        _write_error(e)
        rc = rc or 3
    os._exit(rc)


if __name__ == "__main__":
    run()
