"""Exception types and the number checks shared across the package."""

import math
from numbers import Integral, Real

import numpy as np


class ValidationError(ValueError):
    """Input failed a structural or numerical validity check."""


class CapExceededError(RuntimeError):
    """A configured size/budget cap would be exceeded; nothing was computed."""


def is_finite_real(value) -> bool:
    """True for a finite real number; False for NaN, inf, bool, non-numbers
    and integers beyond the float range."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # math.isfinite converts an int to float first
        return False


def real_array(values):
    """values as a float64 array when every entry is an int or float (no
    bool, text, None or int beyond the float range) and the nesting is
    regular; else None.  NaN and inf pass."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        return None
    return arr.astype(float, copy=False) if arr.dtype.kind in "iuf" else None


def finite_array(values):
    """real_array(values) when every entry is finite; else None."""
    arr = real_array(values)
    return arr if arr is not None and np.isfinite(arr).all() else None


def is_integer(value) -> bool:
    """True for an int or numpy integer; False for bool and everything else."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_integer(value, what: str, low: int, high: int | None = None) -> None:
    """Raise ValidationError unless value is an integer in low..high, or at
    least low when high is None."""
    if not is_integer(value) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{what} must be an integer {span}, got {value!r}")
