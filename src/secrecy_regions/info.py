"""Finite distributions, discrete channels, and exact entropy / mutual
information evaluation in bits.

Everything here is a pure function over small dense numpy tables; channel
alphabets are capped at MAX_CHANNEL_ALPHABET symbols per variable, so a full
joint over seven variables is at most 4**7 entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import xlogy

from .errors import ValidationError

NORMALIZATION_TOL = 1e-12
MAX_CHANNEL_ALPHABET = 4
_LN2 = np.log(2.0)


def float_table(value, what: str, ndim: int) -> np.ndarray:
    """value as a float array with exactly ndim axes, or a ValidationError
    (text, ragged nesting, ints beyond the float range and a wrong rank all
    arrive from scenario files)."""
    try:
        table = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a table of numbers: {exc}") from exc
    if table.ndim != ndim:
        raise ValidationError(f"{what} must be a {ndim}-index table, got {table.ndim} indices")
    return table


def check_distribution(p: np.ndarray, what: str, rows: int = 1) -> None:
    """Raise unless p, split into `rows` equal rows, holds one probability
    vector per row: no negative entries, each row summing to 1."""
    if np.any(p < 0):
        raise ValidationError(f"{what} has negative entries")
    sums = p.reshape(rows, -1).sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= NORMALIZATION_TOL)  # NaN sums are bad too
    if bad.any():
        raise ValidationError(
            f"{what} sums to {float(sums[bad][0])!r}, not 1 within {NORMALIZATION_TOL}"
        )


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy -sum p log2 p of a (possibly multi-axis) mass table.

    Zero entries contribute zero; the table is not re-normalized.
    """
    return float(-xlogy(p, p).sum() / _LN2)


@dataclass(frozen=True)
class FiniteDistribution:
    """Probability vector over an indexed finite alphabet."""

    probs: np.ndarray

    def __post_init__(self):
        p = float_table(self.probs, "probabilities", 1)
        object.__setattr__(self, "probs", p)
        if p.size == 0:
            raise ValidationError("probabilities must form a non-empty vector")
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
        t = float_table(self.transition, "channel transition", 4)
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


@dataclass(frozen=True)
class JointDistribution:
    """Dense joint mass table over named variables."""

    names: tuple
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        names = tuple(self.names)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "names", names)
        if len(names) != m.ndim:
            raise ValidationError("variable names do not match table rank")
        if len(set(names)) != len(names):
            raise ValidationError("duplicate variable names")
        check_distribution(m, "joint distribution")

    def _axes(self, group) -> tuple:
        unknown = [v for v in group if v not in self.names]
        if unknown:
            raise ValidationError(f"unknown variables: {unknown}")
        return tuple(self.names.index(v) for v in group)

    def entropy_of(self, group) -> float:
        """Joint entropy H(group) in bits."""
        drop = self._axes([v for v in self.names if v not in set(group)])
        table = self.mass.sum(axis=drop) if drop else self.mass
        return entropy_bits(table)


def mutual_information(j: JointDistribution, group_a, group_b, given=()) -> float:
    """Conditional mutual information I(A; B | C) in bits.

    Evaluated as H(A,C) + H(B,C) - H(A,B,C) - H(C); tiny negative values from
    float cancellation are clamped to zero.
    """
    a, b, c = set(group_a), set(group_b), set(given)
    if a & b or a & c or b & c:
        raise ValidationError("variable groups must be disjoint")
    for g in (a, b, c):
        j._axes(list(g))
    value = (
        j.entropy_of(a | c)
        + j.entropy_of(b | c)
        - j.entropy_of(a | b | c)
        - j.entropy_of(c)
    )
    if value < -1e-9:
        raise ValidationError(f"mutual information evaluated to {value}, far below zero")
    return max(value, 0.0)


def assemble_joint(aux, ch: DiscreteChannel) -> JointDistribution:
    """Full joint over (U, V1, V2, X1, X2, Y1, Y2) from an auxiliary chain
    composed with a channel; the chain U -> (V1,V2) -> (X1,X2) -> (Y1,Y2)
    holds by construction.
    """
    aux.check_channel(ch)
    mass = np.einsum(
        "u,uab,ax,by,xycd->uabxycd",
        aux.p_u.probs,
        aux.p_v1v2_given_u,
        aux.p_x1_given_v1,
        aux.p_x2_given_v2,
        ch.transition,
        optimize=True,
    )
    return JointDistribution(("U", "V1", "V2", "X1", "X2", "Y1", "Y2"), mass)
