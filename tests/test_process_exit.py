"""How a CLI process starts and ends. It pins every BLAS/OpenMP pool to one
thread before numpy loads, whatever the environment says, so its bytes do not
depend on the thread count. ``risnet.cli.run`` flushes stdout and stderr and
leaves through ``os._exit``. No output byte may be lost on the way, and a
failed write to stdout or stderr exits 3 with one ``error:`` line, whether or
not PYTHONUNBUFFERED is set (when it is, a missing flush would not show)."""

import errno
import io
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from risnet import cli
from risnet.gating import dump_sweep_csv, synth_multipath

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
FREQS = np.linspace(3.0e9, 4.2e9, 1601)
# The thread variables perfbench sets, one more than the CLI pins.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def process_env(unbuffered=False, threads=None):
    """This environment with ``src`` on PYTHONPATH and PYTHONUNBUFFERED removed or set to 1.

    ``threads`` "unset" removes each of ``THREAD_VARS``, and a count sets each to it.
    """
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for var in THREAD_VARS if threads else ():
        if threads == "unset":
            env.pop(var, None)
        else:
            env[var] = threads
    return env


def cli_process(argv, cwd, unbuffered=False, threads=None, **streams):
    """``python -m risnet.cli *argv`` in ``cwd``, in ``process_env(unbuffered, threads)``."""
    return subprocess.run([sys.executable, "-m", "risnet.cli", *argv], cwd=cwd,
                          env=process_env(unbuffered, threads), timeout=120, **streams)


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


def console_script():
    """``python -c`` running the ``risnet`` script of pyproject.toml as its launcher does."""
    scripts = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, func = re.search(r'^risnet = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    return [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


def open_when_read(fifo, proc) -> int:
    """A write end of ``fifo``, opened once ``proc`` opens it to read (or fail if it exits)."""
    deadline = time.monotonic() + 120
    while True:
        try:
            return os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
        except OSError as e:  # ENXIO until a reader has it open
            if e.errno != errno.ENXIO or proc.poll() is not None or time.monotonic() > deadline:
                raise
        time.sleep(0.005)


@pytest.mark.skipif(not (os.path.exists("/proc/self/status") and hasattr(os, "mkfifo")),
                    reason="needs /proc and FIFOs")
@pytest.mark.parametrize("entry", ["python -m", "console script"])
def test_a_cli_process_runs_one_blas_thread_whatever_the_environment_says(tmp_path, entry):
    # The CLI opens its input after numpy has loaded and started its BLAS pool.
    fifo = tmp_path / "in.s2p"
    os.mkfifo(fifo)
    argv = [sys.executable, "-m", "risnet.cli"] if entry == "python -m" else console_script()
    proc = subprocess.Popen([*argv, "parse", str(fifo)], env=process_env(threads="2"),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        fd = open_when_read(fifo, proc)
        with open(f"/proc/{proc.pid}/status") as status:
            threads = next(line.split()[1] for line in status if line.startswith("Threads:"))
        os.write(fd, b"# Hz S RI R 50\n1 0.5 0 1 0 1 0 0.5 0\n2 0.5 0 1 0 1 0 0.5 0\n")
        os.close(fd)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert threads == "1"
    assert proc.returncode == 0, err.decode()


def test_pattern_bytes_do_not_depend_on_the_blas_thread_variables(inputs):
    # A 30x39-tile wall (156 cells tall) over 1801 directions, summed in blocks
    # of rows: unpinned, 2 of its 1802 lines differed at 1 and at 2 OpenBLAS threads.
    argv = ["pattern", "p3.csv", "--tiles-x", "30", "--tiles-y", "39", "--theta-deg", "54.086",
            "--phi-az-deg", "2.75", "--theta-step-deg", "0.1"]
    runs = [cli_process(argv, inputs, threads=t, capture_output=True) for t in ("unset", "1", "2")]
    assert [done.returncode for done in runs] == [0, 0, 0]
    assert len(runs[0].stdout.splitlines()) == 1802
    assert runs[1].stdout == runs[0].stdout and runs[2].stdout == runs[0].stdout


def test_a_library_import_of_the_cli_leaves_the_environment_alone():
    code = "import os, numpy; env = dict(os.environ); import risnet.cli; print(os.environ == env)"
    done = subprocess.run([sys.executable, "-c", code], env=process_env(threads="2"),
                          capture_output=True, text=True, timeout=120)
    assert (done.stdout, done.stderr) == ("True\n", "")
