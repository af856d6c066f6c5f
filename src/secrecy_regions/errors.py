"""Exception types and the number check shared across the package."""

import math
from numbers import Real


class ValidationError(ValueError):
    """Input failed a structural or numerical validity check."""


class CapExceededError(RuntimeError):
    """A configured size/budget cap would be exceeded; nothing was computed."""


class UnboundedPolytopeError(RuntimeError):
    """A rate polytope escaped the sanity box and is treated as unbounded."""


def is_finite_real(value) -> bool:
    """True for a finite real number; False for NaN, inf, bool or non-numbers."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
