"""Polyhedral machinery for rate regions: Fourier-Motzkin elimination,
maximal-vertex enumeration for 3-D rate polytopes, Pareto frontiers,
projection, and region membership.  A rate system is its bound rows
A r <= b: r >= 0 is implied, and batch_vertices alone adds those rows.

Every 3-D Pareto frontier (of a sweep, and of the bound rows that
membership queries scan) comes from one exact skyline, _staircase: a block
maxima sweep over rows presorted by (-r0, -r1, -r2).  Every 2-D staircase
(a projection, _staircase's own, gaussian's outer-corner filter) is built
by _maxima_2d and queried by _covered_2d.  The polytopes a dm sweep
enumerates are the 5-column skyline (_skyline_mask) of their bound rows
tightened by _tight_five_bounds: the ones no other polytope contains.

All geometric comparisons use the absolute tolerance GEOM_TOL = 1e-9;
inputs are closed-form values with ~1e-15 native error, so this leaves
several orders of margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ValidationError, check_choice, check_integer, checked_array, real_array

GEOM_TOL = 1e-9

RATE_VARS = ("r0", "r1", "r2")

# Constraint-row patterns: the left-hand sides of the bounds, one row each.
A_FIVE_BOUNDS = np.array(
    [
        [1.0, 0.0, 0.0],  # r0 <= b0
        [0.0, 1.0, 0.0],  # r1 <= b1
        [0.0, 0.0, 1.0],  # r2 <= b2
        [0.0, 1.0, 1.0],  # r1 + r2 <= b12
        [1.0, 1.0, 1.0],  # r0 + r1 + r2 <= b012
    ]
)
A_OUTER_GAUSSIAN = np.array(
    [
        [1.0, 0.0, 0.0],  # r0 <= b0
        [0.0, 1.0, 1.0],  # r1 + r2 <= b12
        [1.0, 1.0, 1.0],  # r0 + r1 + r2 <= b012
    ]
)
A_CMAC = np.array(
    [
        [0.0, 1.0, 0.0],  # r1 <= b1
        [0.0, 0.0, 1.0],  # r2 <= b2
        [0.0, 1.0, 1.0],  # r1 + r2 <= b12
        [1.0, 1.0, 1.0],  # r0 + r1 + r2 <= b012
    ]
)

CONSTRAINT_PATTERNS = {
    "dm_inner": A_FIVE_BOUNDS,
    "dm_outer": A_FIVE_BOUNDS,
    "g_inner": A_FIVE_BOUNDS,
    "g_outer": A_OUTER_GAUSSIAN,
    "cmac": A_CMAC,
}


@dataclass(frozen=True)
class RateRegion:
    """A swept rate region: Pareto frontier plus enough per-sweep-point bound
    data to answer exact membership queries.

    kind:       a key of CONSTRAINT_PATTERNS
    points:     (F, 3) finite Pareto-maximal frontier, sorted by (r0, r1, r2)
    records:    (F, k) provenance row per frontier point (chain index, or
                sweep parameters beta1/beta2[/rho]), finite or NaN
    bound_rows: (M, nb) finite right-hand sides of the defining
                inequalities, nb the rows of CONSTRAINT_PATTERNS[kind]
                (r >= 0 is implied): one row per sweep point, or for a dm
                sweep one per skyline polytope, those no other contains
    Each field is checked when the region is built (ValidationError).
    """

    kind: str
    points: np.ndarray
    records: np.ndarray = field(repr=False)
    bound_rows: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_choice(self.kind, CONSTRAINT_PATTERNS, "bound kind")
        pts = checked_array(self.points, "points", ("F", 3))
        recs = checked_array(self.records, "records", (len(pts), "k"), nan=True)
        nb = len(CONSTRAINT_PATTERNS[self.kind])
        rows = checked_array(self.bound_rows, f"{self.kind} bound_rows", ("M", nb))
        for name, value in (("points", pts), ("records", recs), ("bound_rows", rows)):
            object.__setattr__(self, name, value)

    @cached_property
    def query_rows(self) -> np.ndarray:
        """The bound rows that membership queries scan, computed on first use.

        Every row shares the left-hand side A @ p, so a row r that
        another row s weakly dominates (r <= s component-wise) never decides
        a query: lhs <= r + tol implies lhs <= s + tol for any tol.  With
        three bound columns (g_outer, resolution**3 rows) the distinct
        non-dominated rows stay, sorted (pareto_frontier: a linear pass drops
        the rows an earlier row covers, then the skyline runs on the rest;
        contains takes any row).  With four or five the exact skyline costs
        more than the scans it saves, so all rows stay.
        """
        rows = self.bound_rows
        return pareto_frontier(rows) if rows.shape[1] == 3 else rows

    @cached_property
    def _query_columns(self) -> tuple:
        """What contains scans, computed on first use: query_rows.T +
        GEOM_TOL as contiguous (nb, M) rows, one per bound column, and the
        frontier points as contiguous (3, F) columns."""
        limits = np.ascontiguousarray(self.query_rows.T) + GEOM_TOL
        return limits, np.ascontiguousarray(self.points.T)

    def max_sum_rate(self) -> float:
        """Largest r1 + r2 on the frontier (0 for an empty region)."""
        if len(self.points) == 0:
            return 0.0
        return float((self.points[:, 1] + self.points[:, 2]).max())

    def max_common_rate(self) -> float:
        if len(self.points) == 0:
            return 0.0
        return float(self.points[:, 0].max())


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


def _prune_pairwise(A: np.ndarray, b: np.ndarray):
    """Of rows whose coefficient vectors are positive multiples of one
    another keep the one with the smallest scaled constant (the first of
    equal ones), and drop trivial 0 <= nonneg rows; infeasibility markers
    (0 <= negative) are kept.  A row is scaled by its largest absolute
    coefficient, which maps exact multiples to the same floats.
    """
    scale = np.abs(A).max(axis=1, initial=0.0)
    rows = np.nonzero(scale >= GEOM_TOL)[0]
    rows = rows[np.argsort(b[rows] / scale[rows], kind="stable")]
    # np.unique keeps the first of equal rows when asked for their indices
    _, first = np.unique(A[rows] / scale[rows, None], axis=0, return_index=True)
    markers = np.nonzero((scale < GEOM_TOL) & (b < -GEOM_TOL))[0]
    keep = np.sort(np.concatenate([rows[first], markers]))
    return A[keep], b[keep]


def fm_eliminate(A: np.ndarray, b: np.ndarray, j: int):
    """Project {x : A x <= b} onto every coordinate but x_j by pairing every
    upper bound on x_j with every lower bound.  Returns (A, b) with column j
    deleted and parallel rows merged by _prune_pairwise.
    """
    A = checked_array(A, "A", ("m", "n"))
    b = checked_array(b, "b", (len(A),))
    check_integer(j, "column j", 0, A.shape[1] - 1)
    col = A[:, j]
    up, low = col > GEOM_TOL, col < -GEOM_TOL
    Au, bu = A[up] / col[up, None], b[up] / col[up]
    Al, bl = A[low] / -col[low, None], b[low] / -col[low]
    A = np.vstack([A[~(up | low)], (Au[:, None] + Al[None]).reshape(-1, A.shape[1])])
    b = np.concatenate([b[~(up | low)], (bu[:, None] + bl[None]).ravel()])
    return _prune_pairwise(np.delete(A, j, axis=1), b)


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------


def batch_vertices(A: np.ndarray, B: np.ndarray):
    """The vertices of many polytopes {r >= 0 : A r <= b} sharing bound
    rows A that are Pareto-maximal in their own polytope.

    A is (m, 3) finite numbers, no row with both a positive and a negative
    coefficient, whose positive coefficients cover r0, r1 and r2 (with
    r >= 0 that is exactly a bounded polytope); B is (N, m) finite numbers,
    one right-hand-side row per polytope, or one (m,) row (ValidationError
    otherwise).  The rows -r_i <= 0 are appended here and nowhere else.
    Returns (points, owner), owner[i] the row of B behind points[i];
    nothing is deduplicated.
    Row triples with |det| < 1e-12, or whose positive coefficients miss one
    of r0, r1, r2, are skipped, and that is exact: a covering triple's rows
    are non-negative and tight at its vertex, so no feasible point dominates
    it; at a maximal vertex v the tight upper rows cover every r_i (else
    v + t e_i stays feasible), so does a basis of them, and tight lower rows
    complete it to a regular triple.
    """
    A = checked_array(A, "A", ("m", 3))
    B = real_array(B)  # a single (m,) row is one polytope
    B = checked_array(B[None] if B is not None and B.ndim == 1 else B, "B", ("N", len(A)))
    if ((A > 0).any(axis=1) & (A < 0).any(axis=1)).any():
        raise ValidationError("a constraint row has both positive and negative coefficients")
    if not (A > 0).any(axis=0).all():
        raise ValidationError("the positive coefficients of A miss a rate, so it is unbounded")
    A = np.vstack([A, -np.eye(3)])
    B = np.hstack([B, np.zeros((len(B), 3))])
    combos = np.array(list(combinations(range(A.shape[0]), 3)))
    subs = A[combos]
    regular = np.abs(np.linalg.det(subs)) >= 1e-12
    regular &= (subs > 0).any(axis=1).all(axis=1)
    limits = np.ascontiguousarray(B.T) + GEOM_TOL  # (m, N): each row a contiguous scan
    pts, owners = [np.zeros((0, 3))], [np.zeros(0, dtype=int)]
    for combo, inv in zip(combos[regular], np.linalg.inv(subs[regular])):
        cand = B[:, combo] @ inv.T  # (N, 3)
        feas = (A @ cand.T <= limits).all(axis=0)
        pts.append(cand[feas])
        owners.append(np.nonzero(feas)[0])
    return np.vstack(pts), np.concatenate(owners)


def _tight_five_bounds(B: np.ndarray) -> np.ndarray:
    """Each A_FIVE_BOUNDS row b >= 0 of B tightened to its own polytope's
    maxima of the five left-hand sides (r0, r1, r2, r1 + r2, r0 + r1 + r2).
    The polytope is unchanged, and P(b) lies in P(b') exactly when the
    tightened rows satisfy t(b) <= t(b') in every column: the maxima are the
    polytope's support function at the rows of A (Schneider, Convex Bodies,
    section 1.7)."""
    b0, b1, b2, b12, b012 = B.T
    t0 = np.minimum(b0, b012)
    t1 = np.minimum(np.minimum(b1, b12), b012)
    t2 = np.minimum(np.minimum(b2, b12), b012)
    t12 = np.minimum(np.minimum(b12, t1 + t2), b012)
    return np.column_stack([t0, t1, t2, t12, np.minimum(b012, t0 + t12)])


def _skyline_mask(t: np.ndarray) -> np.ndarray:
    """Mask over the rows of t of those that no other row weakly dominates,
    the first of equal ones.  A stable lexsort on (-sum, -t0, -t1, ...)
    puts every weak dominator of a row before it: float addition is
    monotone in each addend, so a dominator's sum is >=, and of equal sums
    the first column where they differ decides.  So the first row left is
    never dominated; it is kept, and it and every row it weakly dominates
    are dropped, until no row is left."""
    order = np.lexsort(np.vstack([-t.T[::-1], -t.sum(axis=1)]))
    rest, ids = t[order], order
    keep = np.zeros(len(t), dtype=bool)
    while len(ids):
        keep[ids[0]] = True
        open_ = (rest > rest[0]).any(axis=1)
        rest, ids = rest[open_], ids[open_]
    return keep


# ---------------------------------------------------------------------------
# Pareto frontiers, projection, membership
# ---------------------------------------------------------------------------


# Rows per staircase block: each block costs one _covered_2d against the
# staircase, one block x block comparison and one merge.
_STAIR_BLOCK = 256
_EARLIER = np.tri(_STAIR_BLOCK, _STAIR_BLOCK, -1, dtype=bool)  # [b, a]: a < b


def _maxima_2d(x: np.ndarray, y: np.ndarray):
    """The 2-D maxima staircase of the points (x, y), the first of equal
    ones, as (x ascending, y strictly descending): after a stable descending
    lexsort, the points above the running maximum of y, read backwards
    (Kung, Luccio & Preparata 1975)."""
    order = np.lexsort((-y, -x))
    x, y = x[order], y[order]
    keep = np.ones(len(y), dtype=bool)
    keep[1:] = y[1:] > np.maximum.accumulate(y)[:-1]
    return x[keep][::-1], y[keep][::-1]


def _covered_2d(stair, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mask of the points (x, y) that some point of stair, a _maxima_2d
    staircase, weakly dominates: the stair point with the least x' >= x has
    the largest y' of those (none: a -inf sentinel)."""
    sx, sy = stair
    return np.append(sy, -np.inf)[np.searchsorted(sx, x)] >= y


def _pivot_covered(p: np.ndarray) -> np.ndarray:
    """Mask over rows p, where r0 never rises, of the rows that the earlier
    row with the largest r1 (the last of equal ones) weakly dominates.  Such
    a row has an earlier weak dominator, so _staircase would drop it too; one
    pivot per row makes this a linear pass.  Of the 132,651 bound rows of a
    51**3 g_outer sweep it leaves about 1,130."""
    r1 = p[:, 1]
    top = np.maximum.accumulate(r1)
    pivot = np.maximum.accumulate(np.where(r1 == top, np.arange(len(p)), 0))
    covered = np.zeros(len(p), dtype=bool)
    covered[1:] = (top[:-1] >= r1[1:]) & (p[pivot[:-1], 2] >= p[1:, 2])
    return covered


def _staircase(p: np.ndarray) -> np.ndarray:
    """Mask over rows p of those that no earlier row weakly dominates: the
    Pareto-maximal rows, the first of equal ones.

    p is presorted: r0 never rises and every weak dominator of a row comes
    before it, as a stable (-r0, -r1, -r2) lexsort gives.  Every earlier row
    then has r0 >=, so a row is dropped exactly when an earlier row has
    r1 >= and r2 >=: the maxima sweep of Kung, Luccio & Preparata (1975)
    over a presorted input (Chomicki et al. 2003, "Skyline with presorting").

    The rows _pivot_covered marks are dropped first.  That is exact: a
    marked dominator of a row has an earlier dominator of its own, and so on
    down to an unmarked one.

    Block sweep, with no per-row Python: each block of _STAIR_BLOCK rows is
    tested against the (r1, r2) staircase of all earlier blocks with one
    _covered_2d, and the rows it leaves open against one another with one
    strictly lower triangular comparison; the survivors are then merged into
    the staircase with one _maxima_2d.  A row that a covered row covers is
    covered too (weak dominance is transitive), so skipping the covered rows
    in the block comparison is exact.  Only comparisons decide, so ties and
    equal rows are exact.
    """
    keep = np.zeros(len(p), dtype=bool)
    live = np.flatnonzero(~_pivot_covered(p))
    q = p[live]
    stair = np.zeros(0), np.zeros(0)
    for lo in range(0, len(q), _STAIR_BLOCK):
        r1, r2 = q[lo : lo + _STAIR_BLOCK, 1], q[lo : lo + _STAIR_BLOCK, 2]
        open_ = np.flatnonzero(~_covered_2d(stair, r1, r2))
        r1, r2 = r1[open_], r2[open_]
        m = len(open_)
        kept = ~(
            _EARLIER[:m, :m] & (r1[None, :] >= r1[:, None]) & (r2[None, :] >= r2[:, None])
        ).any(axis=1)
        keep[live[lo + open_[kept]]] = True
        stair = _maxima_2d(np.concatenate([stair[0], r1[kept]]), np.concatenate([stair[1], r2[kept]]))
    return keep


def pareto_frontier(points) -> np.ndarray:
    """The distinct non-dominated rows of an (N, 2) or (N, 3) array, of equal
    rows the first in input order, ascending in (r0, r1, r2); (0, k) for k
    columns and no rows; ValidationError unless every entry is a finite
    number.  With 2 columns that is _maxima_2d.  With 3 a stable descending
    lexsort is the presort of _staircase, and the rows it keeps, reversed,
    are ascending.  A stable sort on -r0 comes first, and only the rows
    _pivot_covered leaves are lexsorted: it drops only rows the skyline
    drops, and both sorts are stable, so the bytes are those of one lexsort
    of every row."""
    pts = checked_array(points, "points", ("N", "k"))
    if pts.shape[1] not in (2, 3):
        raise ValidationError("pareto_frontier expects 2 or 3 rate columns")
    if pts.shape[1] == 2:
        return np.column_stack(_maxima_2d(pts[:, 0], pts[:, 1]))
    pts = pts[np.argsort(-pts[:, 0], kind="stable")]
    pts = pts[~_pivot_covered(pts)]
    p = pts[np.lexsort(-pts.T[::-1])]
    return p[_staircase(p)][::-1]


def _cell_frontier(pts: np.ndarray) -> np.ndarray:
    """Indices of the Pareto-maximal rows among the first input row of each
    GEOM_TOL cell, in the order _staircase scans them.  FrontierAccumulator
    says how it sorts and why that is exact."""
    cells = np.round(pts / GEOM_TOL)
    cells *= -GEOM_TOL  # ascending keys are descending cells; -0.0 == 0.0
    order = np.lexsort(cells.T[::-1])
    cells = cells[order]
    lead = np.ones(len(cells), dtype=bool)
    lead[1:] = (cells[1:] != cells[:-1]).any(axis=1)
    del cells
    first = order[lead]
    first = first[np.argsort(-pts[first, 0], kind="stable")]
    return first[_staircase(pts[first])]


class FrontierAccumulator:
    """Collects sweep vertices chunk by chunk, prunes each chunk to its local
    Pareto maxima, and computes the global frontier once at the end, keeping
    one provenance value (a grid or chain index, as a one-column row) aligned
    with every surviving point.

    A prune (_cell_frontier) keeps the first input row of each GEOM_TOL cell
    and drops the dominated ones, sorting once: one stable lexsort of the
    negated cells puts the cells in descending (r0, r1, r2) order, each led
    by its first input row, and those leaders, stable-sorted on -r0, are the
    order in which _staircase scans them.  That is exact, because the
    staircase needs only two properties of the order: no two leaders are
    equal, as they lie in distinct cells; and r0 never rises, with every
    dominator of a leader before it among equal r0, as the dominator's cell
    is >= in every coordinate and not the same cell.

    finish prunes the chunks' survivors together.  A chunk's survivors lie
    in distinct cells, so a cell shared across chunks keeps the earliest
    chunk's row, whatever order each chunk's survivors are in.  A single
    chunk is already pruned, so finish only sorts it.

    The frontier depends on the chunking, and not only within GEOM_TOL: the
    chunks pick which of near-equal rows leads a cell, and another leader
    can dominate, or fail to dominate, rows elsewhere, so whole points come
    and go.  The dm_outer golden scenario gives 34 points with chunks of
    8,192 rows and 32 with 20,000.  Each sweep keeps one fixed chunk size,
    so its bytes repeat.
    """

    def __init__(self):
        self._points: list = []
        self._records: list = []

    def add(self, points: np.ndarray, records: np.ndarray) -> None:
        if len(points) == 0:
            return
        pts = np.asarray(points, float)
        keep = _cell_frontier(pts)
        self._points.append(pts[keep])
        self._records.append(np.asarray(records, float)[keep])

    def finish(self, kind: str, bound_rows: np.ndarray) -> RateRegion:
        if not self._points:
            pts = np.zeros((0, 3))
            recs = np.zeros((0, 1))
        elif len(self._points) == 1:
            pts, recs = self._points[0], self._records[0]
        else:
            pts, recs = np.vstack(self._points), np.vstack(self._records)
            keep = _cell_frontier(pts)
            pts, recs = pts[keep], recs[keep]
        order = np.lexsort(pts.T[::-1])
        return RateRegion(kind, pts[order], recs[order], bound_rows)


def contains(outer: RateRegion, p) -> bool:
    """Membership of a rate triple in a swept region: inside some sweep
    point's halfspace system, or dominated by some frontier point.  The
    rows are tested first, outer.query_rows (the non-dominated bound rows)
    scanned one contiguous bound column at a time; the frontier is the
    fallback.  p must be 3 finite numbers (ValidationError)."""
    p = checked_array(p, "a membership query", (3,))
    if (p < -GEOM_TOL).any():
        return False
    limits, points = outer._query_columns
    lhs = CONSTRAINT_PATTERNS[outer.kind] @ p  # (nb,); r >= 0 was checked above
    if (limits >= lhs[:, None]).all(axis=0).any():
        return True
    return bool((points >= (p - GEOM_TOL)[:, None]).all(axis=0).any())


def project(points, axis: str) -> np.ndarray:
    """Drop the named rate coordinate of an (N, 3) array of finite rates
    (ValidationError otherwise) and return the 2-D Pareto frontier."""
    check_choice(axis, RATE_VARS, "axis")
    pts = checked_array(points, "points", ("N", 3))
    keep = [i for i, v in enumerate(RATE_VARS) if v != axis]
    return pareto_frontier(pts[:, keep])
