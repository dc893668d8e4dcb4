import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from risnet.gating import dump_sweep_csv, synth_multipath

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_scipy_unloaded():
    """numpy is the only runtime dependency; scipy is needed by the tests alone."""
    code = (
        "import risnet, risnet.cli, sys; "
        "print(risnet.__file__); print('scipy' in sys.modules)"
    )
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    module_file, scipy_loaded = done.stdout.splitlines()
    assert Path(module_file).is_relative_to(SRC)
    assert scipy_loaded == "False"


def run_python(*args, cwd=None):
    """``python *args`` in a fresh interpreter that finds this checkout's ``risnet``."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)


# The modules of each subcommand: every one reads or writes through touchstone.
BASE = {"risnet", "risnet.cli", "risnet.errors", "risnet.touchstone"}
SUBCOMMANDS = {
    "parse": (["parse", "thru.s2p"], BASE),
    "synth": (["synth", "--line-width-m", "1.5e-3", "--n-band-points", "3"],
              BASE | {"risnet.loads", "risnet.network"}),
    "profile": (["profile", "thru.s2p", "--loads", "ideal-1bit"],
                BASE | {"risnet.loads", "risnet.network"}),
    "bandwidth": (["bandwidth", "p.csv"], BASE | {"risnet.metrics"}),
    "pattern": (["pattern", "p.csv", "--tiles-x", "1", "--tiles-y", "1"], BASE | {"risnet.array"}),
    "gate": (["gate", "sweep.csv", "--t-start-s", "0", "--t-stop-s", "6e-9"],
             BASE | {"risnet.gating"}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    here = tmp_path_factory.mktemp("inputs")
    freqs = np.linspace(3.0e9, 4.2e9, 13)
    (here / "thru.s2p").write_text(
        "# Hz S RI R 50\n" + "".join(f"{f:.12g} 0 0 1 0 1 0 0 0\n" for f in freqs)
    )
    (here / "p.csv").write_text("freq_hz,state,mag_db,phase_deg\n" + "".join(
        f"{f:.12g},{s},0,{45 * s}\n" for s in range(8) for f in freqs
    ))
    (here / "sweep.csv").write_text(
        dump_sweep_csv(synth_multipath([(2e-9, 1.0)], np.linspace(1e9, 5e9, 201)))
    )
    return here


def test_import_risnet_loads_only_the_package():
    code = (
        "import json, sys; before = set(sys.modules); import risnet; "
        "print(json.dumps(sorted(set(sys.modules) - before))); print('numpy' in sys.modules)"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    added, numpy_loaded = done.stdout.splitlines()
    assert [m for m in json.loads(added) if m.startswith("risnet.")] == []
    assert numpy_loaded == "False"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_loads_only_the_modules_it_runs(inputs, command):
    argv, expected = SUBCOMMANDS[command]
    code = (
        "import json, sys; from risnet.cli import main; code = main(sys.argv[1:]); "
        "print(code, json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'risnet')), "
        "file=sys.stderr)"
    )
    done = run_python("-c", code, *argv, cwd=inputs)
    code, loaded = done.stderr.splitlines()[-1].split(" ", 1)
    assert code == "0", done.stderr
    assert set(json.loads(loaded)) == expected


def test_star_import_binds_every_public_name_to_its_definition():
    # With every module loaded, scipy must still be absent: numpy is the one runtime dependency.
    code = (
        "import sys, risnet; ns = {}; exec('from risnet import *', ns); ns.pop('__builtins__'); "
        "import risnet.cli; "
        "print(sorted(ns) == sorted(risnet.__all__)); "
        "print([n for n, v in ns.items() if getattr(sys.modules[v.__module__], n) is not v]); "
        "print(len([m for m in sys.modules if m.startswith('risnet.')]), 'scipy' in sys.modules)"
    )
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    n_modules = len([p for p in (SRC / "risnet").glob("*.py") if p.name != "__init__.py"])
    assert done.stdout.splitlines() == ["True", "[]", f"{n_modules} False"]


def test_dir_lists_the_public_names_and_an_unknown_name_raises():
    code = (
        "import sys, risnet; print(set(risnet.__all__) <= set(dir(risnet))); "
        "print(sorted(m for m in sys.modules if m.startswith('risnet.'))); "
        "print(risnet.errors.InputDataError.__module__, risnet.touchstone.__name__); "
        "risnet.nope"
    )
    done = run_python("-c", code)
    assert done.stdout.splitlines() == ["True", "[]", "risnet.errors risnet.touchstone"]
    assert done.stderr.rstrip().endswith(
        "AttributeError: module 'risnet' has no attribute 'nope'"
    )


def test_running_the_cli_as_a_module_gives_no_runtime_warning():
    done = run_python("-m", "risnet.cli", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith("usage: risnet")
    assert "RuntimeWarning" not in done.stderr
