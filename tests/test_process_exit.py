"""How a CLI process ends: ``risnet.cli.run`` flushes stdout and stderr and
leaves through ``os._exit``. No output byte may be lost on the way, and a
failed write to stdout or stderr exits 3 with one ``error:`` line, whether or
not PYTHONUNBUFFERED is set (when it is, a missing flush would not show)."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from risnet import cli
from risnet.gating import dump_sweep_csv, synth_multipath

SRC = Path(__file__).resolve().parents[1] / "src"
FREQS = np.linspace(3.0e9, 4.2e9, 1601)


def cli_process(argv, cwd, unbuffered=False, **streams):
    """``python -m risnet.cli *argv`` in ``cwd``, PYTHONUNBUFFERED removed or set to 1."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "risnet.cli", *argv], cwd=cwd, env=env,
                          timeout=120, **streams)


def state_csv(mag_db, slope_deg_per_ghz):
    """An 8-state CSV on 1601 points, states 45 degrees apart, each tilted by ``s * slope``."""
    return "freq_hz,state,mag_db,phase_deg\n" + "".join(
        f"{f:.12g},{s},{mag_db},{45.0 * s + slope_deg_per_ghz * s * (f - 3.6e9) / 1e9:.12g}\n"
        for s in range(8) for f in FREQS
    )


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    here = tmp_path_factory.mktemp("inputs")
    (here / "thru.s2p").write_text(
        "# Hz S RI R 50\n" + "".join(f"{f:.12g} 0 0 1 0 1 0 0 0\n" for f in FREQS)
    )
    (here / "p3.csv").write_text(state_csv(-0.5, 30.0))
    (here / "active.csv").write_text(state_csv(14, 0.0))  # |gamma| = 5: a warning after the outputs
    (here / "sweep.csv").write_text(dump_sweep_csv(synth_multipath([(2e-9, 1.0)], FREQS)))
    return here


# Every output goes to stdout or stderr, so the two runs of a case share no file.
CASES = {
    "parse": ["parse", "thru.s2p", "--format", "json"],
    "synth": ["synth", "--line-width-m", "1.5e-3", "--n-band-points", "3"],
    "profile": ["profile", "thru.s2p", "--loads", "ideal-1bit"],
    "bandwidth": ["bandwidth", "p3.csv"],  # about 143 KB of JSON, past any stdout buffer
    "bandwidth-active": ["bandwidth", "active.csv", "--format", "text"],
    "pattern-active": ["pattern", "active.csv"],  # cut on stdout, summary and warning on stderr
    "gate": ["gate", "sweep.csv", "--t-start-s", "0", "--t-stop-s", "6e-9"],
    "parse-missing": ["parse", "missing.s2p"],
}


@pytest.mark.parametrize("case", CASES)
def test_a_cli_process_writes_what_main_writes_in_process(inputs, monkeypatch, case):
    argv = CASES[case]
    done = cli_process(argv, inputs, capture_output=True)
    monkeypatch.chdir(inputs)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    assert (done.stdout.decode(), done.stderr.decode(), done.returncode) == (
        out.getvalue(), err.getvalue(), code
    )
    if case == "bandwidth":
        assert len(done.stdout) > 100_000
    if case.endswith("-active"):
        assert done.stderr.decode().splitlines()[-1].startswith("warning: nonphysical profile")


def closed_pipe():
    """The write end of a pipe whose read end is already closed: every write fails with EPIPE."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [CASES["parse"], CASES["bandwidth"]], ids=["small", "large"])
@pytest.mark.parametrize("target, errno", [("/dev/full", 28), ("closed-pipe", 32)])
def test_a_failed_stdout_write_exits_3_with_one_error_line(inputs, target, errno, argv,
                                                           unbuffered):
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this system")
    fd = closed_pipe() if target == "closed-pipe" else os.open(target, os.O_WRONLY)
    try:
        done = cli_process(argv, inputs, unbuffered, stdout=fd, stderr=subprocess.PIPE)
    finally:
        os.close(fd)
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 3, lines
    assert len(lines) == 1 and lines[0].startswith(f"error: [Errno {errno}] "), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_failed_stderr_write_exits_3(inputs, unbuffered):
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        done = cli_process(CASES["bandwidth-active"], inputs, unbuffered,
                           stdout=subprocess.PIPE, stderr=fd)
    finally:
        os.close(fd)
    assert done.returncode == 3
    assert done.stdout.decode().startswith("threshold_deg: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("argv", [["--help"], ["gate", "--help"]], ids=["help", "gate-help"])
def test_help_into_a_full_stdout_exits_3_with_one_error_line(tmp_path, argv):
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        done = cli_process(argv, tmp_path, stdout=fd, stderr=subprocess.PIPE)
    finally:
        os.close(fd)
    lines = done.stderr.decode().splitlines()
    assert done.returncode == 3, lines
    assert len(lines) == 1 and lines[0].startswith("error: [Errno 28] "), lines


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_usage_error_into_a_full_stderr_exits_2(tmp_path):
    fd = os.open("/dev/full", os.O_WRONLY)
    try:
        done = cli_process(["parse"], tmp_path, stdout=subprocess.PIPE, stderr=fd)
    finally:
        os.close(fd)
    assert (done.returncode, done.stdout) == (2, b"")


@pytest.mark.parametrize("main_code, exit_code", [(0, 3), (4, 4)])
def test_a_failed_flush_exits_3_unless_main_already_failed(monkeypatch, capsys, main_code,
                                                          exit_code):
    class FullStream(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    exits = []
    monkeypatch.setattr(cli, "main", lambda: main_code)
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    monkeypatch.setattr(sys, "stdout", FullStream())
    cli.run()
    assert exits == [exit_code]
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
