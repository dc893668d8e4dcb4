"""Exception types shared across the toolkit.

Two families matter to callers: :class:`InputDataError` for malformed or
inconsistent input (maps to CLI exit code 3) and :class:`NumericalError`
for failures arising during computation (exit code 4).
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


class ConvergenceError(NumericalError):
    """Iterative search failed to converge within its iteration budget."""


class GateSpanError(NumericalError):
    """Time gate does not overlap the alias-free span of the sweep."""


class ReferenceLevelError(NumericalError):
    """Reference sweep magnitude too small to normalize against."""
