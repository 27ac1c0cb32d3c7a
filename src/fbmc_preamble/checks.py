"""The package's one integer-argument check, shared by every module."""

from __future__ import annotations

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
