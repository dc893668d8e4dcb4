import os
import subprocess
import sys
from pathlib import Path

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
