"""Exception types shared across the toolkit.

Each kind of fault raises one family, which the CLI maps to one exit code:

- :class:`InputDataError` (exit 3): malformed or inconsistent input (files,
  grids, sweep ranges), and any value past the float range that a stage
  computes from it; the stage that computes the value names it.
- :class:`NumericalError` (exit 4): a computation that finite, well-formed
  input cannot carry out (a singular cascade, a gate outside the sweep's
  time span, a reference or pattern too small to normalize against).
- Plain ``ValueError`` (exit 2): a parameter outside its domain, such as a
  nonphysical flag value.
"""

from __future__ import annotations


class InputDataError(ValueError):
    """Malformed or inconsistent input data (files, grids, sweep ranges), with
    the 1-based input ``line`` at fault, when given, prefixed to the message."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TouchstoneParseError(InputDataError):
    """Touchstone text that violates the v1 grammar."""


class StateCsvError(InputDataError):
    """Bad per-state reflection CSV (grid holes, duplicates, bad fields)."""


class SweepGridError(InputDataError):
    """Frequency grids that are non-uniform, mismatched, or too short."""


class FrequencyRangeError(InputDataError):
    """Requested frequency outside the available sweep (no extrapolation)."""


class NumericalError(ArithmeticError):
    """Computation failed in a way better data or parameters could avoid."""


class SingularityError(NumericalError):
    """Cascade denominator collapsed (nonphysical load/network pairing)."""


class GateSpanError(NumericalError):
    """Time gate does not overlap the alias-free span of the sweep."""


class ReferenceLevelError(NumericalError):
    """Reference sweep magnitude too small to normalize against."""
