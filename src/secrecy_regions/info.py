"""Finite distributions, discrete channels, the checks of their tables, and
entropy in bits.

Everything here is a pure function over small dense numpy tables; channel
alphabets are capped at MAX_CHANNEL_ALPHABET symbols per variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, checked_array, finite_array

NORMALIZATION_TOL = 1e-12
MAX_CHANNEL_ALPHABET = 4
_LN2 = np.log(2.0)


def check_distribution(p: np.ndarray, what: str, rows: int = 1) -> None:
    """Raise unless p, split into `rows` equal rows, holds one probability
    vector per row: not empty, no negative entries, each row summing to 1."""
    if p.size == 0:
        raise ValidationError(f"{what} is empty")
    if np.any(p < 0):
        raise ValidationError(f"{what} has negative entries")
    sums = p.reshape(rows, -1).sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= NORMALIZATION_TOL)  # NaN sums are bad too
    if bad.any():
        raise ValidationError(
            f"{what} sums to {float(sums[bad][0])!r}, not 1 within {NORMALIZATION_TOL}"
        )


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy -sum p log2 p of a (possibly multi-axis) table of
    finite non-negative masses (ValidationError otherwise).

    Zero entries contribute zero; the table is not re-normalized.
    """
    from scipy.special import xlogy

    p = finite_array(p)
    if p is None or (p < 0).any():
        raise ValidationError("entropy_bits expects a table of finite masses >= 0")
    return float(-xlogy(p, p).sum() / _LN2)


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector over an indexed finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = checked_array(self.probs, "probabilities", ("k",))
        object.__setattr__(self, "probs", p)
        check_distribution(p, "distribution")

    def __len__(self) -> int:
        return self.probs.size


@dataclass(frozen=True)
class DiscreteChannel:
    """Joint transition law p(y1, y2 | x1, x2) on finite alphabets.

    transition has shape (|X1|, |X2|, |Y1|, |Y2|), each at most
    MAX_CHANNEL_ALPHABET, and every (x1, x2) slice is a probability table
    over (y1, y2).
    """

    transition: np.ndarray

    def __post_init__(self):
        t = checked_array(self.transition, "channel transition", ("x1", "x2", "y1", "y2"))
        object.__setattr__(self, "transition", t)
        if max(t.shape) > MAX_CHANNEL_ALPHABET:
            raise ValidationError(
                f"channel alphabets {t.shape} exceed {MAX_CHANNEL_ALPHABET} symbols per variable"
            )
        check_distribution(t, "channel slice p(y1,y2|x1,x2)", rows=t.shape[0] * t.shape[1])

    @property
    def x1_size(self) -> int:
        return self.transition.shape[0]

    @property
    def x2_size(self) -> int:
        return self.transition.shape[1]

    @property
    def y2_size(self) -> int:
        return self.transition.shape[3]

    def y2_marginal(self) -> np.ndarray:
        """p(y2 | x1, x2)."""
        return self.transition.sum(axis=2)
