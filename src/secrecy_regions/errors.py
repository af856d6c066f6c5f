"""Exception types and the input checks shared across the package: each
rule an outside value must meet is written once, here."""

import math
from numbers import Real

import numpy as np


class ValidationError(ValueError):
    """Input failed a structural or numerical validity check."""


class CapExceededError(RuntimeError):
    """A configured size/budget cap would be exceeded; nothing was computed."""


def check_real(value, what: str, low: float | None = None, strict: bool = False) -> float:
    """value as a float; ValidationError unless it is a finite real number
    (no bool, NaN, inf, text or int beyond the float range) and, when low is
    given, above low (strict) or at least low."""
    try:
        ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # math.isfinite converts an int to float first
        ok = False
    if not ok or (low is not None and (value <= low if strict else value < low)):
        span = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValidationError(f"{what} must be a finite number{span}, got {value!r}")
    return float(value)


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


def fits(arr: np.ndarray, shape: tuple) -> bool:
    """arr has one axis per entry of shape, and each int entry is its axis's
    length; a str entry names a free axis."""
    return arr.ndim == len(shape) and all(
        isinstance(k, str) or k == n for k, n in zip(shape, arr.shape)
    )


def checked_array(values, what: str, shape: tuple, nan: bool = False) -> np.ndarray:
    """values as a float64 array that fits shape, every entry an int or float
    (no bool, text, None or int beyond the float range) and finite, or NaN
    when nan is set; else a ValidationError.  The str entries of shape name
    the free axes in the message: ("N", 6) gives "B must be a (N, 6) array
    of finite numbers"."""
    arr = real_array(values)
    ok = arr is not None and fits(arr, shape)
    if not (ok and (~np.isinf(arr) if nan else np.isfinite(arr)).all()):
        axes = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        entries = "finite numbers or NaN" if nan else "finite numbers"
        raise ValidationError(f"{what} must be a ({axes}) array of {entries}")
    return arr


def check_choice(value, choices, what: str) -> None:
    """Raise ValidationError unless value is a str among choices."""
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(f"{what} must be one of {', '.join(choices)}, got {value!r}")


def is_integer(value) -> bool:
    """True for an int or numpy integer; False for bool and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_integer(value, what: str, low: int, high: int | None = None) -> None:
    """Raise ValidationError unless value is an integer in low..high, or at
    least low when high is None."""
    if not is_integer(value) or value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValidationError(f"{what} must be an integer {span}, got {value!r}")
