"""The package's scalar-argument checks, for integers and real numbers."""

from __future__ import annotations

import math

import numpy as np


def check_integer(name: str, value, error: type[ValueError], low: int | None = None) -> int:
    """value as an int, if it is an integer (numpy integers pass, bools do
    not) and, when low is given, >= low; raises `error` otherwise, where a
    cast would drop a fraction.  A numpy integer is returned as an int, so
    none wraps in a sum or reaches a run's JSON."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise error(f"{name} must be an integer{bound}, not {value!r}")
    return int(value)


def check_real(name: str, value, error: type[Exception], high: float = math.inf) -> float:
    """value as a float, if it is a real number (not a bool, a string or an
    array) that is finite, >= 0 and < high; raises `error` otherwise."""
    if type(value) is float and 0.0 <= value < high:    # most values: no more to check
        return value
    if isinstance(value, bool) or not isinstance(value, (float, int, np.floating, np.integer)):
        raise error(f"{name} must be a real number, not {value!r}")
    value = float(value)
    if not 0.0 <= value < high:      # NaN and inf fail too
        within = ">= 0" if high == math.inf else f"in [0, {high:g})"
        raise error(f"{name} must be finite and {within}")
    return value
