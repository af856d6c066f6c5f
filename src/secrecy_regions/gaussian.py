"""Closed-form rate bounds and parameter sweeps for the Gaussian two-sender
wiretap setting with a common message, plus the no-secrecy compound-MAC
baseline.

All formulas are elementary functions of the transmit powers, the two noise
variances, the power-split parameters beta1/beta2 in [0, 1] and (for the
outer bound) an input correlation rho in [0, 1].  Rates are in bits per
channel use; every secrecy difference is clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapExceededError, ValidationError, is_finite_real
from .geometry import CONSTRAINT_PATTERNS, FrontierAccumulator, RateRegion, batch_vertices

# Coefficient on the rho*sqrt(P1*P2) term in the numerator of the outer R0
# bound.  The bound as printed carries coefficient 1, but its derivation
# (and containment of the achievable region) requires 2; both are exposed so
# the variants can be compared side by side.
R0_RHO_COEFF_AS_PRINTED = 1.0
R0_RHO_COEFF_DERIVATION = 2.0

# Largest sweep grid (resolution**3 for g_outer, resolution**2 otherwise).
# A grid point costs about 100 bytes at peak, so this is about 200 MB; it
# admits g_outer up to resolution 125 and g_inner/cmac up to 1414.
MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class GaussianScenario:
    """Transmit powers and receiver noise variances (linear units)."""

    p1: float
    p2: float
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        for name in ("p1", "p2", "sigma1_sq", "sigma2_sq"):
            v = getattr(self, name)
            if not is_finite_real(v) or v <= 0:
                raise ValidationError(f"{name} must be a finite number > 0, got {v!r}")
            object.__setattr__(self, name, float(v))  # a huge int product overflows numpy


@dataclass(frozen=True)
class SweepPoint:
    """Power splits (and, for the outer bound, input correlation)."""

    beta1: float
    beta2: float
    rho: float | None = None

    def __post_init__(self):
        for name in ("beta1", "beta2", "rho"):
            v = getattr(self, name)
            if v is None:
                continue
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [0, 1]")


class InnerBounds(NamedTuple):
    b0: float
    b1: float
    b2: float
    b12: float
    b012: float


class OuterBounds(NamedTuple):
    b0: float
    b12: float
    b012: float


class CmacBounds(NamedTuple):
    b1: float
    b2: float
    b12: float
    b012: float


def capacity_fn(x):
    """Gaussian capacity function 0.5 * log2(1 + x), x = SNR >= 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValidationError("capacity_fn requires a non-negative argument")
    out = 0.5 * np.log2(1.0 + x)
    return float(out) if out.ndim == 0 else out


def _clip(x):
    return np.maximum(x, 0.0)


def _inner_bound_arrays(s: GaussianScenario, beta1, beta2):
    b1sq, b2sq = beta1**2, beta2**2
    priv1 = (1.0 - b1sq) * s.p1
    priv2 = (1.0 - b2sq) * s.p2
    common = b1sq * s.p1 + b2sq * s.p2 + 2.0 * beta1 * beta2 * np.sqrt(s.p1 * s.p2)
    b0 = capacity_fn(common / (priv1 + priv2 + s.sigma2_sq))
    b1 = _clip(capacity_fn(priv1 / s.sigma1_sq) - capacity_fn(priv1 / (priv2 + s.sigma2_sq)))
    b2 = _clip(capacity_fn(priv2 / s.sigma1_sq) - capacity_fn(priv2 / (priv1 + s.sigma2_sq)))
    b12 = _clip(
        capacity_fn((priv1 + priv2) / s.sigma1_sq) - capacity_fn((priv1 + priv2) / s.sigma2_sq)
    )
    total = s.p1 + s.p2 + 2.0 * beta1 * beta2 * np.sqrt(s.p1 * s.p2)
    b012 = _clip(
        capacity_fn(total / s.sigma1_sq) - capacity_fn((priv1 + priv2) / s.sigma2_sq)
    )
    return b0, b1, b2, b12, b012


def _outer_bound_arrays(s: GaussianScenario, beta1, beta2, rho, r0_rho_coeff):
    cross = np.sqrt(s.p1 * s.p2)
    num = (
        (1.0 - beta1) * s.p1
        + (1.0 - beta2) * s.p2
        + r0_rho_coeff * (1.0 - beta1 * beta2) * rho * cross
    )
    den = beta1 * s.p1 + beta2 * s.p2 + 2.0 * beta1 * beta2 * rho * cross
    b0 = np.minimum(
        capacity_fn(num / (den + s.sigma1_sq)), capacity_fn(num / (den + s.sigma2_sq))
    )
    b12 = _clip(capacity_fn(den / s.sigma1_sq) - capacity_fn(den / s.sigma2_sq))
    total = s.p1 + s.p2 + 2.0 * rho * cross
    b012 = _clip(capacity_fn(total / s.sigma1_sq) - capacity_fn(den / s.sigma2_sq))
    return b0, b12, b012


def _cmac_bound_arrays(s: GaussianScenario, beta1, beta2):
    priv1 = (1.0 - beta1**2) * s.p1
    priv2 = (1.0 - beta2**2) * s.p2
    total = s.p1 + s.p2 + 2.0 * np.sqrt(s.p1 * s.p2) * beta1 * beta2

    def both(x):
        return np.minimum(capacity_fn(x / s.sigma1_sq), capacity_fn(x / s.sigma2_sq))

    return both(priv1), both(priv2), both(priv1 + priv2), both(total)


def gaussian_inner_at(s: GaussianScenario, p: SweepPoint) -> InnerBounds:
    """The five achievable-region bound values at one power split."""
    return InnerBounds(*(float(v) for v in _inner_bound_arrays(s, p.beta1, p.beta2)))


def gaussian_outer_at(
    s: GaussianScenario, p: SweepPoint, r0_rho_coeff: float = R0_RHO_COEFF_DERIVATION
) -> OuterBounds:
    """The three outer-bound values at one (beta1, beta2, rho)."""
    if p.rho is None:
        raise ValidationError("outer bound requires a correlation parameter rho")
    return OuterBounds(
        *(float(v) for v in _outer_bound_arrays(s, p.beta1, p.beta2, p.rho, r0_rho_coeff))
    )


def cmac_capacity_at(s: GaussianScenario, p: SweepPoint) -> CmacBounds:
    """The four compound-MAC capacity bound values at one power split."""
    return CmacBounds(*(float(v) for v in _cmac_bound_arrays(s, p.beta1, p.beta2)))


def _sweep_grid(resolution: int) -> np.ndarray:
    if resolution < 2:
        raise ValidationError("sweep resolution must be at least 2")
    return np.linspace(0.0, 1.0, resolution)


def sweep_gaussian(
    s: GaussianScenario,
    kind: str,
    resolution: int = 101,
    r0_rho_coeff: float = R0_RHO_COEFF_DERIVATION,
) -> RateRegion:
    """Grid sweep over the union parameters; returns the Pareto frontier with
    per-point (beta1, beta2, rho) provenance.  Deterministic given the grid.
    """
    if kind not in ("g_inner", "g_outer", "cmac"):
        raise ValidationError(f"unknown Gaussian sweep kind {kind!r}")
    if not is_finite_real(r0_rho_coeff):
        raise ValidationError(f"r0_rho_coeff must be a finite number, got {r0_rho_coeff!r}")
    points = resolution ** (3 if kind == "g_outer" else 2)
    if points > MAX_GRID_POINTS:
        raise CapExceededError(
            f"{kind} grid has {points} points, above the cap of {MAX_GRID_POINTS}"
        )
    g = _sweep_grid(resolution)
    if kind == "g_outer":
        beta1, beta2, rho = (x.ravel() for x in np.meshgrid(g, g, g, indexing="ij"))
        bounds = np.column_stack(_outer_bound_arrays(s, beta1, beta2, rho, r0_rho_coeff))
        params = np.column_stack([beta1, beta2, rho])
    else:
        beta1, beta2 = (x.ravel() for x in np.meshgrid(g, g, indexing="ij"))
        if kind == "g_inner":
            bounds = np.column_stack(_inner_bound_arrays(s, beta1, beta2))
        else:
            bounds = np.column_stack(_cmac_bound_arrays(s, beta1, beta2))
        params = np.column_stack([beta1, beta2, np.full_like(beta1, np.nan)])

    A = CONSTRAINT_PATTERNS[kind]
    acc = FrontierAccumulator(record_width=3)
    chunk = 20000
    for start in range(0, len(bounds), chunk):
        rows = bounds[start : start + chunk]
        B = np.hstack([rows, np.zeros((len(rows), 3))])
        pts, owner = batch_vertices(A, B)
        acc.add(pts, params[start : start + chunk][owner])
    return acc.finish(kind, bounds)
