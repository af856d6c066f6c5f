"""Closed-form rate bounds and parameter sweeps for the Gaussian two-sender
wiretap setting with a common message, plus the no-secrecy compound-MAC
baseline.

All formulas are elementary functions of the transmit powers, the two noise
variances, the power-split parameters beta1/beta2 in [0, 1] and (for the
outer bound) an input correlation rho in [0, 1].  Rates are in bits per
channel use; every secrecy difference is clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    CapExceededError,
    ValidationError,
    check_choice,
    check_integer,
    check_real,
    finite_array,
    real_array,
)
from .geometry import (
    CONSTRAINT_PATTERNS,
    GEOM_TOL,
    FrontierAccumulator,
    RateRegion,
    _covered_2d,
    _maxima_2d,
    batch_vertices,
)

# Coefficient on the rho*sqrt(P1*P2) term in the numerator of the outer R0
# bound.  The bound as printed carries coefficient 1, but its derivation
# (and containment of the achievable region) requires 2; both are exposed so
# the variants can be compared side by side.
R0_RHO_COEFF_AS_PRINTED = 1.0
R0_RHO_COEFF_DERIVATION = 2.0

GAUSSIAN_KINDS = ("g_inner", "g_outer", "cmac")

# Largest sweep grid (resolution**3 for g_outer, resolution**2 otherwise).
# A grid point costs about 100 bytes at peak, so this is about 200 MB; it
# admits g_outer up to resolution 125 and g_inner/cmac up to 1414.
MAX_GRID_POINTS = 2_000_000

# A g_outer row is left out of vertex enumeration when another row's corner
# beats both of its corners by this much in r0 and in r1 + r2: ten cells of
# the frontier's GEOM_TOL grid, so none of its vertices can lead a cell.
_OUTER_MARGIN = 10 * GEOM_TOL


@dataclass(frozen=True)
class GaussianScenario:
    """Transmit powers and receiver noise variances (linear units)."""

    p1: float
    p2: float
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        for name in ("p1", "p2", "sigma1_sq", "sigma2_sq"):
            # stored as a float: a product of huge ints overflows numpy
            object.__setattr__(self, name, check_real(getattr(self, name), name, 0, strict=True))


def capacity_fn(x):
    """Gaussian capacity function 0.5 * log2(1 + x), x = SNR >= 0: a number
    or an array of them, inf giving inf (ValidationError otherwise, NaN
    included)."""
    x = real_array(x)
    if x is None or not (x >= 0).all():
        raise ValidationError("capacity_fn expects real numbers >= 0")
    out = _capacity(x)
    return float(out) if out.ndim == 0 else out


def _capacity(x):
    """capacity_fn unchecked, for the bound formulas: gaussian_bounds refuses what they give."""
    return 0.5 * np.log2(1.0 + x)


def _clip(x):
    return np.maximum(x, 0.0)


def _inner_bound_arrays(s: GaussianScenario, beta1, beta2):
    b1sq, b2sq = beta1**2, beta2**2
    priv1 = (1.0 - b1sq) * s.p1
    priv2 = (1.0 - b2sq) * s.p2
    common = b1sq * s.p1 + b2sq * s.p2 + 2.0 * beta1 * beta2 * np.sqrt(s.p1 * s.p2)
    b0 = _capacity(common / (priv1 + priv2 + s.sigma2_sq))
    b1 = _clip(_capacity(priv1 / s.sigma1_sq) - _capacity(priv1 / (priv2 + s.sigma2_sq)))
    b2 = _clip(_capacity(priv2 / s.sigma1_sq) - _capacity(priv2 / (priv1 + s.sigma2_sq)))
    b12 = _clip(
        _capacity((priv1 + priv2) / s.sigma1_sq) - _capacity((priv1 + priv2) / s.sigma2_sq)
    )
    total = s.p1 + s.p2 + 2.0 * beta1 * beta2 * np.sqrt(s.p1 * s.p2)
    b012 = _clip(
        _capacity(total / s.sigma1_sq) - _capacity((priv1 + priv2) / s.sigma2_sq)
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
        _capacity(num / (den + s.sigma1_sq)), _capacity(num / (den + s.sigma2_sq))
    )
    b12 = _clip(_capacity(den / s.sigma1_sq) - _capacity(den / s.sigma2_sq))
    total = s.p1 + s.p2 + 2.0 * rho * cross
    b012 = _clip(_capacity(total / s.sigma1_sq) - _capacity(den / s.sigma2_sq))
    return b0, b12, b012


def _cmac_bound_arrays(s: GaussianScenario, beta1, beta2):
    priv1 = (1.0 - beta1**2) * s.p1
    priv2 = (1.0 - beta2**2) * s.p2
    total = s.p1 + s.p2 + 2.0 * np.sqrt(s.p1 * s.p2) * beta1 * beta2

    def both(x):
        return np.minimum(_capacity(x / s.sigma1_sq), _capacity(x / s.sigma2_sq))

    return both(priv1), both(priv2), both(priv1 + priv2), both(total)


def gaussian_bounds(
    s: GaussianScenario,
    kind: str,
    beta1,
    beta2,
    rho=None,
    r0_rho_coeff: float = R0_RHO_COEFF_DERIVATION,
) -> np.ndarray:
    """The right-hand sides of CONSTRAINT_PATTERNS[kind] (g_inner, g_outer or
    cmac), one row per parameter point: beta1, beta2 and, for g_outer only,
    rho are numbers in [0, 1], scalars or equal-length 1-D arrays, and
    r0_rho_coeff is a finite number (ValidationError otherwise, for a rho
    missing or not wanted, and for bounds that overflow to inf or NaN or, by
    a negative r0_rho_coeff, fall below 0)."""
    check_choice(kind, GAUSSIAN_KINDS, "Gaussian bound kind")
    check_real(r0_rho_coeff, "r0_rho_coeff")
    if (rho is None) == (kind == "g_outer"):
        raise ValidationError(f"{kind} {'needs' if rho is None else 'takes no'} rho")
    names = ("beta1", "beta2", "rho") if kind == "g_outer" else ("beta1", "beta2")
    params = [finite_array(v) for v in (beta1, beta2, rho)[: len(names)]]
    for x, name in zip(params, names):
        if x is None or (x < 0).any() or (x > 1).any():
            raise ValidationError(f"{name} must be finite numbers in [0, 1]")
    if any(x.ndim > 1 for x in params) or len({x.size for x in params if x.ndim}) > 1:
        raise ValidationError(f"{', '.join(names)} must be scalars or equal-length 1-D arrays")
    with np.errstate(all="ignore"):  # refused below instead
        if kind == "g_outer":
            columns = _outer_bound_arrays(s, *params, r0_rho_coeff)
        elif kind == "g_inner":
            columns = _inner_bound_arrays(s, *params)
        else:
            columns = _cmac_bound_arrays(s, *params)
    bounds = np.column_stack(columns)
    if not ((0.0 <= bounds) & (bounds < np.inf)).all():  # NaN fails both
        raise ValidationError(
            f"{kind} bounds overflow or fall below 0: the powers, noise variances or "
            "r0_rho_coeff are out of range"
        )
    return bounds


def _outer_corners(rows: np.ndarray):
    """(r0, s) of the two corners of each g_outer row (b0, b12, b012), the
    polygon r0 <= b0, s <= b12, r0 + s <= b012 in the plane s = r1 + r2:
    first every row's highest-r0 corner, then every row's highest-s one.
    The row's maximal vertices are their lifts (r0, s, 0) and (r0, 0, s)."""
    b0, b12, b012 = rows.T
    top0, tops = np.minimum(b0, b012), np.minimum(b12, b012)
    r0 = np.concatenate([top0, np.minimum(b0, b012 - tops)])
    s = np.concatenate([np.minimum(b12, b012 - top0), tops])
    return r0, s


def _outer_live_rows(bounds: np.ndarray, chunk: int) -> np.ndarray:
    """Mask of the g_outer rows that some vertex of the frontier may come
    from: all but those whose two corners another corner beats by
    _OUTER_MARGIN in r0 and in s.  Two passes of chunk rows each, so no
    array spans the grid's 2N corners: the first merges each chunk's
    uncovered corners into the 2-D maxima of all corners, the second tests
    each corner against those, as a maximal corner weakly dominates any
    corner that beats it."""
    sky = np.zeros(0), np.zeros(0)
    for start in range(0, len(bounds), chunk):
        r0, s = _outer_corners(bounds[start : start + chunk])
        open_ = ~_covered_2d(sky, r0, s)
        sky = _maxima_2d(np.concatenate([sky[0], r0[open_]]), np.concatenate([sky[1], s[open_]]))
    live = np.empty(len(bounds), dtype=bool)
    for start in range(0, len(bounds), chunk):
        r0, s = _outer_corners(bounds[start : start + chunk])
        beaten = _covered_2d(sky, r0 + _OUTER_MARGIN, s + _OUTER_MARGIN)
        n = len(beaten) // 2
        live[start : start + n] = ~(beaten[:n] & beaten[n:])
    return live


def sweep_gaussian(
    s: GaussianScenario,
    kind: str,
    resolution: int = 101,
    r0_rho_coeff: float = R0_RHO_COEFF_DERIVATION,
) -> RateRegion:
    """Grid sweep over the union parameters; returns the Pareto frontier with
    per-point (beta1, beta2, rho) provenance, rho NaN when the sweep has none.
    Deterministic given the grid.  The sweep records each vertex's flat grid
    index, as sweep_region records a chain index, and maps only the frontier's
    indices back to grid values.  gaussian_bounds refuses a grid whose bounds
    overflow before any vertex is enumerated.

    A g_outer sweep enumerates vertices only for the rows _outer_live_rows
    keeps (2 % of fig2's 51**3 grid; all of them when sigma1_sq >= sigma2_sq
    clips b12 to 0), in chunks cut by grid index as before, and the region
    keeps every bound row.  That is exact, to the byte: a dropped row's
    vertices lie within GEOM_TOL of its corners' lifts, so a kept row's
    vertex beats each of them by nine cells in two coordinates and ties it
    at 0 in the third; none of them leads a cell the frontier keeps.
    """
    check_choice(kind, GAUSSIAN_KINDS, "Gaussian bound kind")  # it sizes the grid
    check_integer(resolution, "sweep resolution", 2)
    shape = (int(resolution),) * (3 if kind == "g_outer" else 2)
    points = shape[0] ** len(shape)
    if points > MAX_GRID_POINTS:
        raise CapExceededError(
            f"{kind} grid has {points} points, above the cap of {MAX_GRID_POINTS}"
        )
    g = np.linspace(0.0, 1.0, shape[0])
    grid = [x.ravel() for x in np.meshgrid(*[g] * len(shape), indexing="ij")]
    bounds = gaussian_bounds(s, kind, *grid, r0_rho_coeff=r0_rho_coeff)
    del grid  # the frontier's grid values are looked up in g at the end

    A = CONSTRAINT_PATTERNS[kind]
    acc = FrontierAccumulator()
    chunk = 20000
    live = _outer_live_rows(bounds, chunk) if kind == "g_outer" else np.ones(len(bounds), bool)
    for start in range(0, len(bounds), chunk):
        idx = start + np.flatnonzero(live[start : start + chunk])
        pts, owner = batch_vertices(A, bounds[idx])
        acc.add(pts, idx[owner][:, None].astype(float))
    region = acc.finish(kind, bounds)
    index = np.unravel_index(region.records[:, 0].astype(np.intp), shape)
    params = np.full((len(region.records), 3), np.nan)
    params[:, : len(shape)] = g[np.column_stack(index)]
    return replace(region, records=params)
