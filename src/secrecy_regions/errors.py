"""Exception types and the number checks shared across the package."""

import math
from numbers import Integral, Real


class ValidationError(ValueError):
    """Input failed a structural or numerical validity check."""


class CapExceededError(RuntimeError):
    """A configured size/budget cap would be exceeded; nothing was computed."""


class UnboundedPolytopeError(RuntimeError):
    """A rate polytope escaped the sanity box and is treated as unbounded."""


def is_finite_real(value) -> bool:
    """True for a finite real number; False for NaN, inf, bool or non-numbers."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def is_integer(value) -> bool:
    """True for an int or numpy integer; False for bool and everything else."""
    return isinstance(value, Integral) and not isinstance(value, bool)
