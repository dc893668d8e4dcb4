#!/usr/bin/env python3
"""Mutation probe: apply one-line mutants to a copy of the checkout and run tier-1 on each.

Usage (from any directory):

    python3 tools/mutants.py [NAME ...]

Each mutant in ``MUTANTS`` replaces one exact line fragment of one source
file. The tool first runs the tier-1 suite on an unmutated copy of this
checkout (working tree, not the last commit), which must pass. It then
copies the checkout again for each mutant (or only those whose name contains
one of the given ``NAME`` substrings), applies it, runs the suite with ``-x``
and reports the mutant as killed, with the first failing test, or as
survived. Under a killed mutant (or a failing unmutated suite) the report keeps
the first failure's ``E`` lines and any hypothesis ``Falsifying example:``
block, so a failure that does not repeat can still be read. Copies go to the
system temporary directory and are removed after each run. A survivor costs
one full suite run (about 20 s on 2 vCPUs). A mutant that no test can tell
from the original stays listed, with the reason in its note.

The tool exits 0 when every mutant is killed or noted, and 1 when an unnoted
mutant survives or the unmutated suite fails. It is run by hand, not by the
test suite.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                ".perfbench", ".benchmarks", "*.egg-info")
# The header of one test's failure report: "____ test_name ____" ("_ name _" when long).
TEST_HEADER = re.compile(r"^_+ .* _+$")

# (name, file, original fragment, mutated fragment, note). A note marks a
# survivor as expected and says why.
MUTANTS = [
    ("SINGULARITY_TOL 1e-12 -> 1e-9", "src/risnet/network.py",
     "SINGULARITY_TOL = 1e-12", "SINGULARITY_TOL = 1e-9", ""),
    ("_WINDOW_FLOOR 1e-3 -> 1e-2", "src/risnet/gating.py",
     "_WINDOW_FLOOR = 1e-3", "_WINDOW_FLOOR = 1e-2", ""),
    ("synthesis rescan reuses its end objectives swapped", "src/risnet/loads.py",
     "np.column_stack((fa, objective(phases(signs, x[:, 1:-1], rows)), fb))",
     "np.column_stack((fb, objective(phases(signs, x[:, 1:-1], rows)), fa))", ""),
    ("synthesis first rescan reuses the best coarse objective as its upper end",
     "src/risnet/loads.py", "coarse[lo], coarse[hi], f[rows, lo], f[rows, hi]",
     "coarse[lo], coarse[hi], f[rows, lo], f[rows, k]", ""),
    ("synthesis phase wrap without its below-zero correction", "src/risnet/loads.py",
     "    v += 360.0 * (v < 0.0)  # v + 0.0 is v\n", "", ""),
    ("state CSV fast path skips the negative-state rule", "src/risnet/touchstone.py",
     "bad = (state < 0) | (state >= _MAX_STATE)",
     "bad = (state < 0) & isinstance(line_nos, list) | (state >= _MAX_STATE)", ""),
    ("_COARSE_POINTS 64 -> 32", "src/risnet/loads.py",
     "_COARSE_POINTS = 64", "_COARSE_POINTS = 32",
     "moves synthesized lengths by about 1e-11 m, inside the search tolerance; only the "
     "golden synth bytes see it, and no tier-1 test compares golden bytes yet"),
    ("sigma_phase gap-sum tolerance 1e-6 -> 1e-3", "src/risnet/metrics.py",
     "off = np.abs(total - 360.0) > 1e-6", "off = np.abs(total - 360.0) > 1e-3", ""),
    ("normalize_to_plate floor 1e-9 -> 1e-12", "src/risnet/gating.py",
     "if np.any(mags <= 1e-9):", "if np.any(mags <= 1e-12):", ""),
    ("bandwidth min_mag_db floor 1e-30 -> 1e-20", "src/risnet/metrics.py",
     "axis=0), 1e-30))", "axis=0), 1e-20))", ""),
    ("_PAD_FACTOR 4 -> 8", "src/risnet/gating.py",
     "_PAD_FACTOR = 4", "_PAD_FACTOR = 8", ""),
    ("low_confidence_edges 0.1 -> 0.05", "src/risnet/gating.py",
     "return f0 + 0.1 * span, f1 - 0.1 * span", "return f0 + 0.05 * span, f1 - 0.05 * span",
     ""),
    ("_DB_FLOOR -600 -> -300", "src/risnet/touchstone.py",
     "_DB_FLOOR = -600.0", "_DB_FLOOR = -300.0", ""),
    ("codebook ties to the highest state", "src/risnet/array.py",
     "for state in range(len(dist) - 1, -1, -1):", "for state in range(len(dist)):", ""),
    ("steering build mirrors every theta grid", "src/risnet/array.py",
     "if sin_t[:fill].tobytes() != (-sin_t[::-1][:fill]).tobytes():", "if False:", ""),
    ("steering build copies mirrored theta rows unconjugated", "src/risnet/array.py",
     "np.conjugate(out[::-1][:m], out=out[:m])", "out[:m] = out[::-1][:m]", ""),
    ("a one-block grid keeps only its half", "src/risnet/array.py",
     "m = fill if theta.size * phi.size > _BLOCK_ROWS + 1 else 0", "m = fill", ""),
    ("a grid of several blocks keeps every row", "src/risnet/array.py",
     "m = fill if theta.size * phi.size > _BLOCK_ROWS + 1 else 0", "m = 0", ""),
    ("mirrored rows summed with G", "src/risnet/array.py",
     "(gamma, gamma.conj())", "(gamma, gamma)", ""),
    ("zero re-sum dropped", "src/risnet/array.py",
     "if m and not np.all(af[:m].view(float)):", "if False:", ""),
    ("one-row remainder summed as its own block", "src/risnet/array.py",
     "range(_BLOCK_ROWS, len(a_x) - 1, _BLOCK_ROWS)", "range(_BLOCK_ROWS, len(a_x), _BLOCK_ROWS)",
     ""),
    ("%.12g writer near-half margin 1e-3 -> 1e-9", "src/risnet/touchstone.py",
     "(np.abs(frac - 0.5) >= 1e-3)", "(np.abs(frac - 0.5) >= 1e-9)",
     "equivalent: the scaled value is one correctly rounded product, and n + 0.5 is exact "
     "below 2**40, so it never lands past n + 0.5 from the exact product; only a fraction of "
     "exactly 0.5 is unsafe, and any margin above 0 still sends it to the fallback"),
    ("%.12g writer near-half fallback dropped", "src/risnet/touchstone.py",
     "(np.abs(frac - 0.5) >= 1e-3)", "(np.abs(frac - 0.5) >= 0)", ""),
    ("%.12g writer fast path up to 1e300", "src/risnet/touchstone.py",
     "fast = (a >= 1e-10) & (a < 1e30)", "fast = (a >= 1e-10) & (a < 1e300)", ""),
    ("%s writer column not sliced per block", "src/risnet/touchstone.py",
     "else p[start:stop] for p in pieces]", "else p[:stop - start] for p in pieces]", ""),
    ("CSV reader sends a commented body to loadtxt's raw-lines call", "src/risnet/touchstone.py",
     'if text.find("#", text.find(lines[head])) < 0:', "if True:", ""),
    ("readers always number rows by position", "src/risnet/touchstone.py",
     "if n_rows == len(lines) - start:", "if True:", ""),
    ("gain warning tolerance 1e-6 -> 1e-5", "src/risnet/touchstone.py",
     "GAIN_TOLERANCE = 1e-6", "GAIN_TOLERANCE = 1e-5", ""),
    ("sigma_max divides S by a subnormal scale as complex", "src/risnet/touchstone.py",
     "u = s.real / d + 1j * (s.imag / d)", "u = s / d", ""),
    ("CLI imports every module at module level", "src/risnet/cli.py",
     "from . import touchstone\n",
     "from . import array, gating, loads, metrics, network, touchstone\n", ""),
    ("CLI process leaves without flushing stdout", "src/risnet/cli.py",
     "        sys.stdout.flush()\n", "", ""),
    ("CLI process leaves without flushing stderr", "src/risnet/cli.py",
     "        sys.stderr.flush()\n", "",
     "stderr is line-buffered (Python >= 3.9) and every CLI write to it ends in a newline, "
     "so nothing is left in its buffer to lose"),
    ("gating imports scipy at module level", "src/risnet/gating.py",
     "import numpy as np\n", "import numpy as np\nimport scipy.signal  # noqa: F401\n", ""),
]


def copy_checkout(base: Path) -> Path:
    tree = base / "repo"
    shutil.copytree(ROOT, tree, ignore=IGNORE, symlinks=True)
    return tree


def mutate(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"error: '{old}' occurs {text.count(old)} times in {path}, not once")
    target.write_text(text.replace(old, new), encoding="utf-8")


def first_failure(lines: list) -> list:
    """The ``E`` lines and any ``Falsifying example:`` block of the first failure report."""
    start = next((i for i, line in enumerate(lines) if TEST_HEADER.match(line)), len(lines))
    kept, in_example = [], False
    for line in lines[start + 1:]:
        if TEST_HEADER.match(line) or line.startswith("===="):
            break
        body = line.removeprefix("E").strip()
        in_example = in_example or body.startswith("Falsifying example:")
        if line.startswith("E ") or in_example:
            kept.append(line.rstrip())
        in_example = in_example and not body.endswith(")")  # the block closes its call
    return kept


def run_tier1(tree: Path) -> tuple:
    """(passed, first failing test or the last output line, first failure's lines) in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    detail = failed[0] if failed else (lines[-1] if lines else "")
    return proc.returncode == 0, detail, first_failure(lines)


def probe(mutant=None) -> tuple:
    with tempfile.TemporaryDirectory(prefix="risnet-mutant-") as base:
        tree = copy_checkout(Path(base))
        if mutant is not None:
            mutate(tree, *mutant[1:4])
        return run_tier1(tree)


def main() -> int:
    wanted = sys.argv[1:]
    mutants = [m for m in MUTANTS if not wanted or any(w in m[0] for w in wanted)]
    if not mutants:
        print(f"error: no mutant matches {wanted}", file=sys.stderr)
        return 2
    start = time.monotonic()
    passed, detail, failure = probe()
    if not passed:
        print(f"error: the unmutated suite fails ({detail})", file=sys.stderr)
        print("".join(f"    {line}\n" for line in failure), end="", file=sys.stderr)
        return 1
    killed = unnoted = 0
    for mutant in mutants:
        name, note = mutant[0], mutant[-1]
        survived, detail, failure = probe(mutant)
        if not survived:
            killed += 1
            print(f"killed    {name}  ({detail})", flush=True)
            print("".join(f"    {line}\n" for line in failure), end="", flush=True)
        else:
            unnoted += not note
            print(f"survived  {name}" + (f"  [noted: {note}]" if note else ""), flush=True)
    print(f"{len(mutants)} mutants: {killed} killed, {len(mutants) - killed} survived "
          f"({unnoted} unnoted) in {time.monotonic() - start:.0f} s")
    return 1 if unnoted else 0


if __name__ == "__main__":
    sys.exit(main())
