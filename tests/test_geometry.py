from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secrecy_regions import (
    RateRegion,
    ValidationError,
    batch_vertices,
    dm,
    geometry,
    fm_eliminate,
    pareto_frontier,
    project,
)
from secrecy_regions import GaussianScenario, GridSpec, sweep_gaussian, sweep_region
from secrecy_regions.geometry import (
    CONSTRAINT_PATTERNS,
    GEOM_TOL,
    FrontierAccumulator,
    _covered_2d,
    _maxima_2d,
    _pivot_covered,
    _prune_pairwise,
    _staircase,
    contains,
)
from conftest import degraded_binary_channel


def test_unit_box_vertices():
    # of the eight corners only (1, 1, 1) is maximal in the box
    v, owner = batch_vertices(np.eye(3), np.ones(3))
    assert np.array_equal(v, [[1.0, 1.0, 1.0]]) and not owner.any()


def test_simplex_vertices():
    # r >= 0 is implied: the origin is dominated; the three unit points are maximal
    v, _ = batch_vertices([[1.0, 1.0, 1.0]], [1.0])
    assert sorted(map(tuple, v)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


@pytest.mark.parametrize(
    "A", [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.0, 1.0, 1.0]], np.zeros((2, 3)), np.zeros((0, 3))]
)
def test_batch_vertices_refuses_a_rate_left_unbounded(A):
    # r2 (or r0, or every rate) has no upper row, so no vertex is maximal
    with pytest.raises(ValidationError, match="miss a rate, so it is unbounded"):
        batch_vertices(A, np.ones(len(A)))


def _fm_bound_rows() -> np.ndarray:
    """The Fourier-Motzkin table's rows with a positive coefficient: the
    rows _fm_rows keeps for every chain, bar the infeasibility markers."""
    A = dm._fm_table()[0]
    return A[(A > 0).any(axis=1)]


def test_every_polytope_the_package_builds_is_bounded():
    """With r >= 0 and no mixed-sign row, a rate system is bounded exactly
    when its positive coefficients cover every rate, each r_i then at most
    some b / c_i.  Each constraint pattern and the Fourier-Motzkin table do,
    and the patterns hold only upper rows: batch_vertices adds r >= 0."""
    for A in [*CONSTRAINT_PATTERNS.values(), _fm_bound_rows()]:
        assert (A > 0).any(axis=0).all()
        assert (A > 0).any(axis=1).all()


def test_every_pattern_the_package_builds_has_the_sign_property():
    """No row has both a positive and a negative coefficient, so each upper
    row is non-negative and batch_vertices may skip the triples that cannot
    give a maximal vertex."""
    for A in [*CONSTRAINT_PATTERNS.values(), dm._fm_table()[0]]:
        assert not ((A > 0).any(axis=1) & (A < 0).any(axis=1)).any()


def test_batch_vertices_refuses_a_mixed_sign_row():
    A = np.vstack([[1.0, -1.0, 0.0], np.eye(3), -np.eye(3)])
    with pytest.raises(ValidationError, match="both positive and negative"):
        batch_vertices(A, np.ones(7))


_BOX = np.vstack([np.eye(3), -np.eye(3)])


@pytest.mark.parametrize(
    "B",
    [
        [1.0, np.nan, 1.0, 0.0, 0.0, 0.0],
        [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0], [np.inf, 1.0, 1.0, 0.0, 0.0, 0.0]],
        np.ones((2, 3)),
        np.ones((2, 7)),
        np.ones((2, 2, 6)),
        1.0,
        [["a"] * 6],
        [[1.0] * 5 + [None]],
        [[10**400, 1, 1, 0, 0, 0]],
        [[1.0] * 6, [1.0] * 5],
    ],
)
def test_batch_vertices_refuses_b_that_is_not_n_by_m_finite_numbers(B):
    # NaN used to give no vertices, inf five bogus ones, a short row an IndexError
    with pytest.raises(ValidationError, match=r"\(N, 6\) array of finite numbers"):
        batch_vertices(_BOX, B)


@pytest.mark.parametrize(
    "A",
    [
        np.vstack([[np.nan, 1.0, 1.0], _BOX[1:]]),  # used to give (0, 3) vertices
        np.vstack([[np.inf, 1.0, 1.0], _BOX[1:]]),
        [["a", 1.0, 1.0]] + _BOX[1:].tolist(),
        [[10**400, 1, 1]] + _BOX[1:].astype(int).tolist(),
        np.ones((6, 2)),
        np.ones((6, 4)),
        np.ones(6),
    ],
)
def test_batch_vertices_refuses_a_that_is_not_m_by_3_finite_numbers(A):
    with pytest.raises(ValidationError, match=r"\(m, 3\) array of finite numbers"):
        batch_vertices(A, np.ones((2, len(A))))


def test_batch_vertices_matches_single():
    A = np.vstack([np.eye(3), [1.0, 1.0, 1.0]])
    rhs = np.array([[0.5, 0.7, 0.3, 1.0], [1.0, 1.0, 1.0, 1.5]])
    # the box corners under the sum plane are dominated; the maximal
    # vertices lie on the plane, at the box faces
    expected = [
        [(0, .7, .3), (.5, .5, 0), (.3, .7, 0), (.5, .2, .3)],
        [(1, .5, 0), (1, 0, .5), (.5, 1, 0), (0, 1, .5), (.5, 0, 1), (0, .5, 1)],
    ]
    pts, owner = batch_vertices(A, rhs)
    for i in range(2):
        mine = np.unique(np.round(pts[owner == i] / GEOM_TOL) * GEOM_TOL, axis=0)
        assert len(mine) == len(expected[i])
        for v in expected[i]:
            assert np.min(np.abs(mine - v).sum(axis=1)) < 1e-8
        single, _ = batch_vertices(A, rhs[i])
        assert np.array_equal(single, pts[owner == i])


def _every_vertex(A, B):
    """Every feasible basic solution of each polytope {A r <= B[i]}, brute
    force: one combination of three rows at a time, with the inverse and
    the product batch_vertices uses, so a vertex both return has the same
    bytes."""
    B = np.atleast_2d(B)
    pts, owners = [np.zeros((0, 3))], [np.zeros(0, dtype=int)]
    for combo in combinations(range(len(A)), 3):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        cand = B[:, combo] @ np.linalg.inv(sub).T
        feas = (cand @ A.T <= B + GEOM_TOL).all(axis=1)
        pts.append(cand[feas])
        owners.append(np.nonzero(feas)[0])
    return np.vstack(pts), np.concatenate(owners)


def _with_orthant(A, B):
    """The system {A r <= B[i]} written out with its r >= 0 rows, as the
    oracles take it: -I under A and three zero columns beside B."""
    B = np.atleast_2d(B)
    return np.vstack([A, -np.eye(3)]), np.hstack([B, np.zeros((len(B), 3))])


def _own_maximal(A, B, pts, owner) -> np.ndarray:
    """Whether each vertex v is Pareto-maximal in its own polytope: over
    the polytope cut to r >= v, r0 + r1 + r2 peaks at v.  A linear peak of
    a polytope is attained at a vertex, so _every_vertex of the cut finds it."""
    cut = np.vstack([A, -np.eye(3)])
    cut_pts, cut_owner = _every_vertex(cut, np.hstack([B[owner], -pts]))
    best = np.full(len(pts), -np.inf)
    np.maximum.at(best, cut_owner, cut_pts.sum(axis=1))
    return best <= pts.sum(axis=1) + GEOM_TOL


def _random_upper_rows(rng) -> np.ndarray:
    """1 to 6 non-negative rows, often sparse, some with integer coefficients
    (parallel and singular triples), whose positive coefficients cover
    every rate: a row of ones is added when they do not."""
    A = rng.random((int(rng.integers(1, 7)), 3))
    A = np.where(rng.random(A.shape) < 0.4, 0.0, np.ceil(A * 3) if rng.random() < 0.5 else A)
    return A if (A > 0).any(axis=0).all() else np.vstack([A, np.ones(3)])


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from([*sorted(CONSTRAINT_PATTERNS), "fm", "random"]),
    n=st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_batch_vertices_keeps_exactly_the_own_maximal_vertices(seed, kind, n):
    """batch_vertices(A, B) is, byte for byte and owner for owner, the own
    maximal vertices of the system with r >= 0 written out.  "fm" is the
    Fourier-Motzkin table's rows as _fm_rows passes them; "random" is random
    non-negative rows."""
    rng = np.random.default_rng(seed)
    patterns = {**CONSTRAINT_PATTERNS, "fm": _fm_bound_rows()}
    A = _random_upper_rows(rng) if kind == "random" else patterns[kind]
    B = rng.random((n, len(A)))
    full = _with_orthant(A, B)
    pts, owner = _every_vertex(*full)
    maximal = _own_maximal(*full, pts, owner)
    got, got_owner = batch_vertices(A, B)
    assert got.tobytes() == pts[maximal].tobytes()
    assert np.array_equal(got_owner, owner[maximal])


def _swept(kind, bounds, chunk, enumerate_):
    """The sweeps' loop: chunks of bound rows, their vertices, one frontier."""
    A = CONSTRAINT_PATTERNS[kind]
    acc = FrontierAccumulator()
    for start in range(0, len(bounds), chunk):
        rows = bounds[start : start + chunk]
        pts, owner = enumerate_(A, rows)
        acc.add(pts, (start + owner)[:, None].astype(float))
    return acc.finish(kind, bounds)


def _tol_dominated(F, G) -> bool:
    """Every row of G lies below some row of F, within GEOM_TOL."""
    return bool((F[None, :] >= G[:, None] - GEOM_TOL).all(axis=2).any(axis=1).all())


@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["dm_inner", "g_outer", "cmac"]),
    n=st.integers(1, 300),
    chunk=st.integers(1, 120),
    tied=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_frontier_from_maximal_vertices_matches_every_vertex(seed, kind, n, chunk, tied):
    """Continuous bound rows give the same frontier bytes and records.  Tied
    rows (a few levels, zeros, 1e-12 jitter) can move a 1e-9 cell's first
    row, so there the two frontiers GEOM_TOL-dominate each other."""
    rng = np.random.default_rng(seed)
    cols = CONSTRAINT_PATTERNS[kind].shape[0]
    if tied:
        levels = np.append(0.0, rng.random(int(rng.integers(1, 4))))
        bounds = rng.choice(levels, size=(n, cols)) + rng.choice([0.0, 1e-12], size=(n, cols))
    else:
        bounds = rng.random((n, cols))
    fast = _swept(kind, bounds, chunk, batch_vertices)
    full = _swept(kind, bounds, chunk, lambda A, B: _every_vertex(*_with_orthant(A, B)))
    if tied:
        assert _tol_dominated(fast.points, full.points)
        assert _tol_dominated(full.points, fast.points)
    else:
        assert fast.points.tobytes() == full.points.tobytes()
        assert fast.records.tobytes() == full.records.tobytes()


def _brute_skyline(t):
    """O(n^2): rows that no other row weakly dominates, of equal rows the
    first."""
    ge = (t[:, None, :] >= t[None, :, :]).all(axis=2)  # [j, i]: row j >= row i
    equal = ge & ge.T
    earlier = np.tri(len(t), k=-1, dtype=bool).T  # [j, i]: j < i
    beats = (ge & ~equal) | (equal & earlier)
    return ~beats.any(axis=0)


# Levels close together: ties, equal rows, zeros and one-ulp neighbours.
_SKYLINE_LEVELS = [0.0, 1e-17, 0.25, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0,
                   np.nextafter(1.0, 2.0), 2.0]


@given(
    rows=st.lists(st.lists(st.sampled_from(_SKYLINE_LEVELS), min_size=5, max_size=5),
                  max_size=60),
    zeros=st.integers(0, 3),
    repeat=st.booleans(),
)
@example(rows=[[1.0, 0.0, 0.0, 0.0, 0.0], [1.0, 1e-17, 0.0, 0.0, 0.0]], zeros=0, repeat=False)
@settings(max_examples=300, deadline=None)
def test_skyline_mask_matches_bruteforce(rows, zeros, repeat):
    # the explicit example: the second row dominates the first, and their
    # float sums tie (1.0 + 1e-17 == 1.0), so a sort on the sum alone keeps
    # the first
    t = np.array(rows, dtype=float).reshape(-1, 5)
    t = np.vstack([t, np.zeros((zeros, 5))])
    if repeat:
        t = np.vstack([t, t[::-1]])
    assert np.array_equal(geometry._skyline_mask(t), _brute_skyline(t))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans())
@settings(max_examples=60, deadline=None)
def test_tightened_columns_are_the_maxima_of_their_left_hand_sides(seed, n, tied):
    rng = np.random.default_rng(seed)
    B = rng.random((n, 5)) * rng.choice([0.0, 0.5, 1.0, 2.0], (n, 5))
    if tied:  # shared values and zero bounds
        B = np.round(B * 4) / 4
    t = geometry._tight_five_bounds(B)
    pts, owner = batch_vertices(geometry.A_FIVE_BOUNDS, B)
    lhs = pts @ geometry.A_FIVE_BOUNDS.T
    for i in range(n):
        np.testing.assert_allclose(t[i], lhs[owner == i].max(axis=0), rtol=0, atol=1e-12)


def test_fm_eliminate_box():
    # project {0 <= x,y <= 1, x + y <= 1.5} onto x: expect 0 <= x <= 1
    A = np.array([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1]], float)
    A, b = fm_eliminate(A, np.array([1.0, 1.0, 1.5, 0.0, 0.0]), 1)
    assert A.shape == (len(b), 1)
    xs = []
    for coeff, rhs in zip(A[:, 0], b):
        if coeff > 0:
            xs.append(rhs / coeff)
    assert min(xs) == pytest.approx(1.0)


def test_fm_eliminate_equality_row():
    # x + y == 1, as the row and its negation, with 0 <= y <= 0.4 projects to
    # 0.6 <= x <= 1
    A = np.array([[1, 1], [-1, -1], [0, 1], [0, -1]], float)
    A, b = fm_eliminate(A, np.array([1.0, -1.0, 0.4, 0.0]), 1)
    upper = min(rhs / c for c, rhs in zip(A[:, 0], b) if c > 0)
    lower = max(rhs / c for c, rhs in zip(A[:, 0], b) if c < 0)
    assert upper == pytest.approx(1.0)
    assert lower == pytest.approx(0.6)


def test_prune_pairwise_keeps_tightest_of_parallel_rows():
    A = np.array([[1, 1], [2, 2], [0, 0], [0, 0], [1, 0], [3, 0], [-1, -1], [1, 3]], float)
    b = np.array([3.0, 4.0, 1.0, -1.0, 1.0, 3.0, 5.0, 2.0])
    kept_A, kept_b = _prune_pairwise(A, b)
    # (2,2) <= 4 beats (1,1) <= 3; (1,0) <= 1 and (3,0) <= 3 tie, the first stays;
    # 0 <= 1 goes and the infeasibility marker 0 <= -1 stays
    np.testing.assert_array_equal(kept_A, A[[1, 3, 4, 6, 7]])
    np.testing.assert_array_equal(kept_b, b[[1, 3, 4, 6, 7]])


def test_fm_preserves_feasible_projections():
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.normal(size=(6, 2))
        interior = rng.uniform(-1, 1, size=2)
        b = A @ interior + rng.uniform(0.1, 1.0, size=6)
        Ap, bp = fm_eliminate(A, b, 1)
        assert np.all(Ap[:, 0] * interior[0] <= bp + GEOM_TOL)


@pytest.mark.parametrize("j", [-1, 2, 1.0, True])
def test_fm_eliminate_refuses_a_column_outside_the_system(j):
    # a negative index would otherwise eliminate a column counted from the end
    A = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValidationError, match=r"column j must be an integer in 0\.\.1"):
        fm_eliminate(A, np.ones(3), j)


@pytest.mark.parametrize(
    "A, b",
    [(np.eye(3), np.ones(2)), (np.eye(3), np.ones(4)), (np.eye(3), np.ones((3, 1))),
     (np.ones(3), np.ones(3)),
     # a NaN A used to give an empty system, text and 10**400 a raw numpy error
     (np.full((3, 3), np.nan), np.ones(3)), ([["a"] * 3] * 3, np.ones(3)),
     ([[10**400, 0, 0]] * 3, np.ones(3)), (np.eye(3), [np.inf, 1.0, 1.0])],
)
def test_fm_eliminate_refuses_a_b_that_does_not_match_a(A, b):
    with pytest.raises(ValidationError, match=r"[Ab] must be a \(.+\) array of finite numbers"):
        fm_eliminate(A, b, 0)


def _brute_frontier(pts):
    """Rows of pts that no other row dominates (>= everywhere, > somewhere)."""
    keep = [
        p for p in pts if not ((pts >= p).all(axis=1) & (pts > p).any(axis=1)).any()
    ]
    return np.unique(np.array(keep).reshape(-1, 3), axis=0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
@settings(max_examples=30, deadline=None)
def test_pareto_frontier_matches_bruteforce(seed, count):
    # 24 levels per axis: up to 3000 distinct rows, so the staircase runs
    # over several blocks
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 24, size=(count, 3)).astype(float) / 23.0
    fast = pareto_frontier(pts)
    brute = _brute_frontier(np.unique(pts, axis=0))
    assert np.array_equal(fast, brute)  # both in (r0, r1, r2) row order


def _brute_first_maxima(pts):
    """O(n^2) oracle: the rows of pts that no row dominates (>= everywhere,
    > somewhere), the first in input order of equal ones, ascending."""
    ge = (pts[None, :, :] >= pts[:, None, :]).all(axis=2)  # [i, j]: j >= i
    gt = (pts[None, :, :] > pts[:, None, :]).any(axis=2)
    equal_earlier = (ge & ge.T) & np.tri(len(pts), k=-1, dtype=bool)
    keep = ~(ge & gt).any(axis=1) & ~equal_earlier.any(axis=1)
    kept = pts[keep]
    return kept[np.lexsort(kept.T[::-1])]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 300]) | st.integers(1, 200),
    levels=st.integers(1, 12),
    trade_off=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_two_column_pareto_frontier_matches_bruteforce(seed, n, levels, trade_off):
    # integer levels, so rows tie in one column or repeat whole; -0.0 beside
    # 0.0 shows in the bytes which of equal rows was kept
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, levels + 1, size=(n, 2)).astype(float)
    if trade_off:
        pts[:, 1] = np.maximum(levels - pts[:, 0] - rng.integers(0, 2, n), 0)
    pts[(pts == 0) & (rng.random(pts.shape) < 0.5)] = -0.0
    assert pareto_frontier(pts).tobytes() == _brute_first_maxima(pts).tobytes()


def _staircase_only_mask(points):
    """Mask of the rows _staircase keeps, over points in input order."""
    order = np.lexsort((-points[:, 2], -points[:, 1], -points[:, 0]))
    keep = np.zeros(len(points), dtype=bool)
    keep[order[_staircase(points[order])]] = True
    return keep


def _unique_path_frontier(pts):
    """pareto_frontier as it was with three sorts: np.unique's rows, the
    Pareto mask of those, then an ascending (r0, r1, r2) lexsort."""
    pts = np.unique(pts, axis=0)
    full = pts if pts.shape[1] == 3 else np.column_stack([pts, np.zeros(len(pts))])
    frontier = pts[_staircase_only_mask(full)]
    return frontier[np.lexsort(frontier.T[::-1])]


def _distinct(rows) -> set:
    """The rows as a set of numbers: -0.0 and 0.0 are one value."""
    return {tuple(r) for r in rows.tolist()}


# -0.0 beside 0.0, one-ulp neighbours, and few levels, so rows repeat
_TIE_LEVELS = np.array(
    [-0.0, 0.0, 5e-324, 0.25, np.nextafter(0.25, 1.0), np.nextafter(0.5, 0.0), 0.5, 0.75, 1.0]
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 511, 512, 1500]) | st.integers(1, 1200),
    cols=st.sampled_from([2, 3]),
    trade_off=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_pareto_frontier_matches_the_unique_path(seed, n, cols, trade_off):
    # with trade_off the last column falls as the others rise, so many rows
    # survive and later blocks leave many rows open
    rng = np.random.default_rng(seed)
    top = len(_TIE_LEVELS) - 1
    idx = rng.integers(0, top + 1, size=(n, cols))
    if trade_off:
        idx[:, -1] = np.clip(top * (cols - 1) - idx[:, :-1].sum(axis=1) - rng.integers(0, 2, n),
                             0, top)
    pts = _TIE_LEVELS[idx]
    new, old = pareto_frontier(pts), _unique_path_frontier(pts)
    assert np.array_equal(new, old)
    if len(_distinct(pts)) == len({r.tobytes() for r in pts}):  # no ±0.0 among equal rows
        assert new.tobytes() == old.tobytes()
    if cols == 3:
        region = RateRegion("g_outer", np.zeros((0, 3)), np.zeros((0, 3)), pts)
        kept = region.query_rows
        assert len(_distinct(kept)) == len(kept)
        assert _distinct(kept) == _distinct(pts[_staircase_only_mask(pts)])


def _brute_staircase(p):
    """O(n^2): rows of pre-sorted p that no earlier row has r1 >= and r2 >=."""
    earlier = np.tri(len(p), k=-1, dtype=bool).T  # [a, b]: a < b
    covers = (p[:, None, 1] >= p[None, :, 1]) & (p[:, None, 2] >= p[None, :, 2])
    return ~(earlier & covers).any(axis=0)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 255, 256, 257, 513, 1025, 2049, 4000]) | st.integers(1, 800),
    levels=st.integers(1, 60),
    shape=st.sampled_from(
        ["grid", "plane", "grid_plane", "r0_groups", "r1_ties", "r2_ties", "covered"]
    ),
    duplicates=st.booleans(),
    jitter=st.booleans(),
    r0_only=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_staircase_matches_bruteforce(seed, n, levels, shape, duplicates, jitter, r0_only):
    # n at the block edges and several blocks past them; whole duplicate
    # rows, equal-r0 groups, ties in one of r1 or r2 only, integer rows on a
    # plane (mostly mutually non-dominated), and "covered", where a few
    # leading rows dominate nearly all others, so later blocks are covered
    # by the staircase completely and leave no row open.  r0_only sorts on
    # -r0 alone, as _cell_frontier does: the mask is still "no earlier row
    # has r1 >= and r2 >=", and _pivot_covered marks only such rows.
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    if shape == "grid":
        pts = rng.integers(0, levels + 1, size=(n, 3)).astype(float)
    elif shape == "plane":
        pts[:, 2] = 2.0 - pts[:, 0] - pts[:, 1]
    elif shape == "grid_plane":
        pts = rng.integers(0, levels + 1, size=(n, 3)).astype(float)
        pts[:, 2] = 2 * levels - pts[:, 0] - pts[:, 1]
        pts *= 1e-3
    elif shape == "r0_groups":
        pts[:, 0] = rng.integers(0, levels + 1, size=n)
    elif shape == "r1_ties":
        pts[:, 1] = rng.integers(0, levels + 1, size=n)
    elif shape == "r2_ties":
        pts[:, 2] = rng.integers(0, levels + 1, size=n)
    else:
        pts[: min(n, 8)] += 1.0
    if duplicates:
        pts[rng.random(n) < 0.3] = pts[rng.integers(0, n)]
    if jitter:
        pts = pts + rng.choice([0.0, 1e-12], size=pts.shape)
    if r0_only:
        p = pts[np.argsort(-pts[:, 0], kind="stable")]
    else:
        p = pts[np.lexsort((-pts[:, 2], -pts[:, 1], -pts[:, 0]))]
    brute = _brute_staircase(p)
    assert np.array_equal(_staircase(p), brute)
    assert not (_pivot_covered(p) & brute).any()


_LEVELS = np.array(
    [-0.0, 0.0, 0.125, 0.25, np.nextafter(0.25, 1.0), np.nextafter(0.5, 0.0), 0.5,
     0.75, np.nextafter(0.75, 1.0), 1.0]
)


def _one_lexsort_frontier(pts):
    """pareto_frontier of 3 columns as it was before _pivot_covered: one
    stable descending lexsort of every row, then the skyline (here the
    O(n^2) one), the kept rows reversed."""
    p = pts[np.lexsort(-pts.T[::-1])]
    return p[_brute_staircase(p)][::-1]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 257, 1500]) | st.integers(1, 1500),
    r0_levels=st.integers(1, len(_LEVELS)),
    trade_off=st.floats(0.0, 1.0),
)
# each of these fails when the -r0 presort is not stable
@example(seed=3, n=600, r0_levels=4, trade_off=1.0)
@example(seed=8, n=1000, r0_levels=6, trade_off=0.5)
@example(seed=14, n=1500, r0_levels=10, trade_off=0.7)
@settings(max_examples=60, deadline=None)
def test_pareto_frontier_matches_the_one_lexsort_path(seed, n, r0_levels, trade_off):
    # _LEVELS rows: one-ulp neighbours, whole duplicates, and r0 drawn from
    # the first r0_levels levels only, so long runs tie in r0.  A trade_off
    # share of the rows lie on a falling surface, so many maximal rows hold
    # a zero.  Every zero takes a random sign, so equal rows differ in
    # bytes, which show which of them was kept.
    rng = np.random.default_rng(seed)
    top = len(_LEVELS) - 1
    idx = rng.integers(0, top + 1, size=(n, 3))
    idx[:, 0] = rng.integers(0, r0_levels, size=n)
    surface = np.clip(2 * top - idx[:, 0] - idx[:, 1] - rng.integers(0, 2, n), 0, top)
    idx[:, 2] = np.where(rng.random(n) < trade_off, surface, idx[:, 2])
    pts = _LEVELS[idx]
    pts[pts == 0] = rng.choice([-0.0, 0.0], size=int((pts == 0).sum()))
    assert pareto_frontier(pts).tobytes() == _one_lexsort_frontier(pts).tobytes()


def test_pivot_pass_marks_nothing_on_a_trading_off_surface():
    # the integer points of r0 + r1 + r2 = 12, each one once: no row weakly
    # dominates another, so the pass marks none and every row is kept
    grid = np.array([(i, j, 12 - i - j) for i in range(13) for j in range(13 - i)], float)
    pts = np.random.default_rng(0).permutation(grid)
    assert not _pivot_covered(pts[np.argsort(-pts[:, 0], kind="stable")]).any()
    frontier = pareto_frontier(pts)
    assert len(frontier) == len(grid)
    assert frontier.tobytes() == _one_lexsort_frontier(pts).tobytes()


def _old_maxima_2d(x, y):
    """The 2-D staircase as three callers wrote it by hand before
    _maxima_2d: one stable descending lexsort, the rows above the running
    maximum of y, read backwards."""
    p = np.column_stack([x, y])[np.lexsort((-y, -x))]
    keep = np.ones(len(p), dtype=bool)
    keep[1:] = p[1:, 1] > np.maximum.accumulate(p[:, 1])[:-1]
    return p[keep][::-1]


def _brute_maxima_2d(x, y):
    """O(n^2): the points no other point dominates (>= in both, > in one),
    the first in input order of equal ones, by ascending x."""
    ge = (x[None, :] >= x[:, None]) & (y[None, :] >= y[:, None])  # [i, j]: j >= i
    equal = ge & ge.T
    keep = ~(ge & ~equal).any(axis=1) & ~(equal & np.tri(len(x), k=-1, dtype=bool)).any(axis=1)
    kept = np.flatnonzero(keep)
    kept = kept[np.argsort(x[kept], kind="stable")]
    return np.column_stack([x[kept], y[kept]])


# -0.0 beside 0.0, one-ulp neighbours, and points one and ten GEOM_TOL apart
_STAIR_LEVELS = np.array(
    [-0.0, 0.0, 5e-324, GEOM_TOL, 10 * GEOM_TOL, 0.5 - 10 * GEOM_TOL, np.nextafter(0.5, 0.0),
     0.5, 0.5 + GEOM_TOL, 0.5 + 10 * GEOM_TOL, 1.0]
)


def _stair_points(seed, n, levels, trade_off):
    """n points on the first `levels` of _STAIR_LEVELS, each zero of a
    random sign; with trade_off most of them on a falling line, so many are
    maximal."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, levels, size=(n, 2))
    if trade_off:
        idx[:, 1] = np.clip(levels - 1 - idx[:, 0] - rng.integers(0, 2, n), 0, levels - 1)
    pts = _STAIR_LEVELS[idx]
    pts[pts == 0] = rng.choice([-0.0, 0.0], size=int((pts == 0).sum()))
    return pts[:, 0], pts[:, 1]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 2, 600]) | st.integers(1, 300),
    levels=st.integers(1, len(_STAIR_LEVELS)),
    trade_off=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_maxima_2d_matches_bruteforce_and_the_old_path(seed, n, levels, trade_off):
    x, y = _stair_points(seed, n, levels, trade_off)
    sx, sy = _maxima_2d(x, y)
    assert (np.diff(sx) > 0).all() and (np.diff(sy) < 0).all()
    stair = np.column_stack([sx, sy])
    assert stair.tobytes() == _brute_maxima_2d(x, y).tobytes()
    assert stair.tobytes() == _old_maxima_2d(x, y).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([0, 1, 600]) | st.integers(1, 300),
    queries=st.integers(1, 300),
    levels=st.integers(1, len(_STAIR_LEVELS)),
    trade_off=st.booleans(),
    margin=st.sampled_from([0.0, 10 * GEOM_TOL]),
)
@settings(max_examples=80, deadline=None)
def test_covered_2d_matches_bruteforce(seed, n, queries, levels, trade_off, margin):
    # a query is covered exactly when some point, maximal or not, is >= it
    # in both coordinates; the margin is added to the query as the g_outer
    # prefilter adds it, so equal and one-GEOM_TOL gaps fall on both sides
    x, y = _stair_points(seed, n, levels, trade_off)
    qx, qy = _stair_points(seed + 1, queries, len(_STAIR_LEVELS), False)
    qx, qy = qx + margin, qy + margin
    brute = ((x[None, :] >= qx[:, None]) & (y[None, :] >= qy[:, None])).any(axis=1)
    assert np.array_equal(_covered_2d(_maxima_2d(x, y), qx, qy), brute)


def _two_sort_prune(pts, recs):
    """A chunk pruned as two sorts did it: the first row of each GEOM_TOL
    cell (np.unique), back in input order, then the Pareto rows of those."""
    _, first = np.unique(np.round(pts / GEOM_TOL) * GEOM_TOL, axis=0, return_index=True)
    first = np.sort(first)
    pts, recs = pts[first], recs[first]
    keep = _staircase_only_mask(pts)
    return pts[keep], recs[keep]


def _two_sort_frontier(pts, recs, chunk):
    """FrontierAccumulator's points and records by _two_sort_prune: each
    chunk, then the chunks' survivors together, then a (r0, r1, r2) sort."""
    starts = range(0, len(pts), chunk)
    kept = [_two_sort_prune(pts[i : i + chunk], recs[i : i + chunk]) for i in starts]
    if len(kept) > 1:
        kept = [_two_sort_prune(np.vstack([p for p, _ in kept]), np.vstack([r for _, r in kept]))]
    p, r = kept[0]
    order = np.lexsort(p.T[::-1])
    return p[order], r[order]


# values that round to -0.0 and +0.0, neighbours one GEOM_TOL apart, and
# two values in one cell
_TIED = np.array(
    [-0.0, 0.0, -1e-12, 1e-12, -4e-10, 0.5, 0.5 + GEOM_TOL, 0.5 - GEOM_TOL, 0.5 + 4e-10, 1.0]
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 600),
    jitter=st.booleans(),
    r2_zero=st.sampled_from(["none", "some", "all"]),
)
@settings(max_examples=40, deadline=None)
def test_accumulator_matches_the_two_sort_prune(seed, n, jitter, r2_zero):
    # with r2_zero rows look like g_outer's vertices, many on the r2 = 0 face
    rng = np.random.default_rng(seed)
    pts = rng.choice(_TIED, size=(n, 3))
    if jitter:
        pts = pts + rng.choice([0.0, 1e-12, -1e-12], size=pts.shape)
    if r2_zero != "none":
        pts[rng.random(n) < (0.5 if r2_zero == "some" else 1.0), 2] = 0.0
    recs = np.arange(n, dtype=float)[:, None]
    for chunk in (1, 97, n):
        acc = FrontierAccumulator()
        for i in range(0, n, chunk):
            acc.add(pts[i : i + chunk], recs[i : i + chunk])
        region = acc.finish("g_outer", np.zeros((1, 3)))
        points, records = _two_sort_frontier(pts, recs, chunk)
        assert region.points.tobytes() == points.tobytes()
        assert region.records.tobytes() == records.tobytes()


def test_pareto_frontier_of_no_rows_keeps_the_column_count():
    assert pareto_frontier(np.zeros((0, 2))).shape == (0, 2)
    assert pareto_frontier(np.zeros((0, 3))).shape == (0, 3)
    for cols in (0, 1, 4):
        with pytest.raises(ValidationError, match="2 or 3 rate columns"):
            pareto_frontier(np.zeros((0, cols)))
    with pytest.raises(ValidationError, match="2 or 3 rate columns"):
        pareto_frontier(np.ones((5, 4)))


@pytest.mark.parametrize(
    "query",
    [[0.1, 0.1], [0.1, 0.1, 0.1, 0.1], [[0.1, 0.1, 0.1]], 0.1, [np.nan, 0.1, 0.1],
     [0.1, np.inf, 0.1], [0.1, 0.1, -np.inf], ["a", "b", "c"], [None, 0.1, 0.1],
     ["0.1", "0.1", "0.1"], [True, False, False], [10**400, 0, 0]],
)
def test_contains_refuses_a_query_that_is_not_three_finite_numbers(query):
    bounds = np.array([[0.5, 0.4, 0.3, 0.6, 1.0]])
    region = RateRegion("dm_inner", np.zeros((0, 3)), np.zeros((0, 1)), bounds)
    with pytest.raises(ValidationError, match=r"query must be a \(3,\) array of finite numbers"):
        contains(region, query)


@pytest.mark.parametrize(
    "call, points",
    [
        *(("project", p) for p in [
            np.ones((3, 2)), np.ones((3, 4)), np.ones(3), np.ones((2, 3, 3)), "0.1",
            [["a", "b", "c"]], [[0.1, 0.2], [0.1, 0.2, 0.3]], [[True, False, True]],
            [[None, 0.1, 0.1]], [[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]], [[0.1, np.inf, 0.1]],
        ]),
        ("pareto_frontier", [[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        ("pareto_frontier", [[1.0, -np.inf]]),
        ("pareto_frontier", [["a", "b"]]),
        ("pareto_frontier", np.ones((2, 3, 3))),
    ],
)
def test_project_and_pareto_frontier_take_only_finite_rates(call, points):
    with pytest.raises(ValidationError, match="array of finite numbers|rate columns"):
        if call == "project":
            project(points, "r0")
        else:
            pareto_frontier(points)
    for axis in ("r0", "r1", "r2"):
        assert project(np.zeros((0, 3)), axis).shape == (0, 2)


def test_project_drops_axis():
    pts = np.array([[0.5, 1.0, 0.2], [0.1, 0.4, 0.9], [0.5, 1.0, 0.1]])
    f = project(pts, "r0")
    assert f.shape[1] == 2
    assert np.allclose(f, np.array([[0.4, 0.9], [1.0, 0.2]]))


def test_polytope_from_bounds_and_membership():
    A = CONSTRAINT_PATTERNS["dm_inner"]
    b = np.array([0.5, 0.4, 0.3, 0.6, 1.0])
    assert (A @ [0.5, 0.3, 0.2] <= b + GEOM_TOL).all()
    assert not (A @ [0.5, 0.4, 0.3] <= b + GEOM_TOL).all()  # violates the pair bound
    region = RateRegion("dm_inner", np.zeros((0, 3)), np.zeros((0, 1)), b[None])
    assert contains(region, [0.5, 0.3, 0.2])
    assert not contains(region, [0.5, 0.4, 0.3])


def test_region_contains_uses_bound_rows():
    bounds = np.array([[0.5, 0.4, 0.3, 0.6, 1.0]])
    region = RateRegion("dm_inner", np.zeros((0, 3)), np.zeros((0, 1)), bounds)
    assert contains(region, [0.4, 0.1, 0.1])
    assert not contains(region, [0.6, 0.0, 0.0])
    assert not contains(region, [-0.1, 0.0, 0.0])


def _full_scan_contains(region, p):
    """contains as it was before query_rows: a scan over every bound row."""
    p = np.asarray(p, dtype=float)
    if (p < -GEOM_TOL).any():
        return False
    if len(region.points) and (region.points >= p[None, :] - GEOM_TOL).all(axis=1).any():
        return True
    lhs = CONSTRAINT_PATTERNS[region.kind] @ p
    return bool((lhs[None, :] <= np.atleast_2d(region.bound_rows) + GEOM_TOL).all(axis=1).any())


def _greedy_points(kind, rows, fill, order=(0, 1, 2)):
    """Per bound row, each rate in the given order set to fill times the
    most the row leaves for it (every pattern coefficient is 0 or 1).  With
    a fill of 1 that is a greedy vertex, a point of the region's boundary."""
    A = CONSTRAINT_PATTERNS[kind]
    r = np.zeros((len(rows), 3))
    for i in order:
        room = (rows - r @ A.T)[:, A[:, i] > 0].min(axis=1)
        r[:, i] = fill[:, i] * np.maximum(room, 0.0)
    return r


def _queries(region, rng, count):
    """Frontier points and points on each row's boundary, scaled by 1 - 1e-9,
    1 and 1 + 1e-9, plus uniform random points over the bounding box.  A
    boundary point fills the rates in a random order: the first and last
    take all the row leaves them, the middle one a random share."""
    rows = region.bound_rows
    order = rng.permutation(3)
    fill = np.ones((len(rows), 3))
    fill[:, order[1]] = rng.uniform(0.0, 1.0, len(rows))
    faces = _greedy_points(region.kind, rows, fill, order)
    base = np.vstack([region.points, faces])
    base = base[rng.choice(len(base), size=min(count, len(base)), replace=False)]
    top = max(float(np.abs(rows).max()), 1e-3) * 1.1
    random = rng.uniform(0.0, top, size=(count, 3))
    return np.vstack([base * (1 - 1e-9), base, base * (1 + 1e-9), random])


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.8, 1.25),
    resolution=st.integers(2, 9),
)
@settings(max_examples=25, deadline=None)
def test_contains_matches_full_scan_on_outer_sweeps(seed, scale, resolution):
    sc = GaussianScenario(scale, 2.0 - scale, 0.1 * scale, 0.3 / scale)
    region = sweep_gaussian(sc, "g_outer", resolution)
    rng = np.random.default_rng(seed)
    for p in _queries(region, rng, 60):
        assert contains(region, p) == _full_scan_contains(region, p)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 1500),
    kind=st.sampled_from(sorted(CONSTRAINT_PATTERNS)),
    trade_off=st.booleans(),
    frontier=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_contains_matches_full_scan_on_hand_built_rows(seed, n, kind, trade_off, frontier):
    # few levels: duplicate rows and rows equal in all but one column are
    # common; -0.0 beside +0.0, and values one ulp apart.  With trade_off the
    # last column falls as the others rise, so dozens of 3-column rows
    # survive pruning.  With frontier the frontier is some rows' greedy
    # vertices, a few nudged outward by up to 2 GEOM_TOL, so the frontier
    # fallback decides queries the rows leave.
    rng = np.random.default_rng(seed)
    nb = CONSTRAINT_PATTERNS[kind].shape[0]
    top = len(_LEVELS) - 1
    idx = rng.integers(0, top + 1, size=(n, nb))
    if trade_off:
        idx[:, -1] = np.clip((nb + 1) // 2 * top - idx[:, :-1].sum(axis=1) - rng.integers(0, 2, n),
                             0, top)
    rows = _LEVELS[idx]
    points = np.zeros((0, 3))
    if frontier:
        some = rows[rng.random(n) < 0.3]
        points = _greedy_points(kind, some, np.ones((len(some), 3)), rng.permutation(3))
        points += rng.choice([0.0, 0.0, GEOM_TOL, 2 * GEOM_TOL], size=points.shape)
    region = RateRegion(kind, points, np.zeros((len(points), 1)), rows)
    for p in _queries(region, rng, 60):
        assert contains(region, p) == _full_scan_contains(region, p)
    if nb != 3:
        return
    kept = region.query_rows
    # every dropped row is weakly dominated by a kept one; no kept row by another
    for r in rows:
        assert (kept >= r).all(axis=1).any()
    for i, r in enumerate(kept):
        others = np.delete(kept, i, axis=0)
        assert not (others >= r).all(axis=1).any()


@pytest.mark.parametrize(
    "kind, rows",
    [
        ("g_outer", [[np.nan, 1.0, 1.0]]),
        ("g_outer", [[0.5, np.inf, 1.0]]),
        ("g_outer", np.ones((2, 5))),
        ("cmac", np.ones((2, 3))),
        ("dm_inner", np.ones((2, 4))),
        ("dm_outer", np.ones(5)),
        ("g_outer", [["a", "b", "c"]]),
        ("g_outer", [[10**400, 1, 1]]),
        ("g_outer", [[1.0, 1.0, 1.0], [1.0, 1.0]]),
    ],
)
def test_rate_region_refuses_bound_rows_off_its_pattern(kind, rows):
    # refused when built, not at the first contains (which named pareto_frontier)
    with pytest.raises(ValidationError, match="bound_rows must be"):
        RateRegion(kind, np.zeros((0, 3)), np.zeros((0, 1)), rows)


_REGION = dict(kind="g_outer", points=[[0.1, 0.2, 0.2]], records=[[0.5, 0.5, np.nan]],
               bound_rows=np.ones((1, 3)))


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("points", None, "points"), ("points", [[np.nan, 0.1, 0.1]], "points"),
        ("points", [[0.1, 0.1]], "points"), ("points", [0.1, 0.2, 0.2], "points"),
        ("records", None, "records"), ("records", np.zeros((2, 3)), "records"),
        ("records", [0.5, 0.5, 0.5], "records"), ("records", [[np.inf, 0.5, 0.5]], "records"),
        ("records", [["a", "b", "c"]], "records"),
        ("kind", ["g_outer"], "bound kind"), ("kind", np.array(["g_outer"]), "bound kind"),
        ("kind", None, "bound kind"),
    ],
)
def test_rate_region_checks_every_field(field, value, match):
    # a list or NaN points used to be kept as given, a list kind to raise TypeError
    region = RateRegion(**_REGION)
    assert isinstance(region.points, np.ndarray) and np.isnan(region.records[0, 2])
    with pytest.raises(ValidationError, match=match):
        RateRegion(**{**_REGION, field: value})


def test_sweeps_leave_query_rows_uncomputed():
    outer = sweep_gaussian(GaussianScenario(1.0, 1.0, 0.1, 0.3), "g_outer", 7)
    dm = sweep_region(degraded_binary_channel(), "inner", GridSpec(1, 2, 2, 2))
    for region in (outer, dm):
        assert not {"query_rows", "_query_columns"} & set(region.__dict__)
    contains(outer, [0.0, 0.1, 0.1])
    assert {"query_rows", "_query_columns"} <= set(outer.__dict__)
    assert len(outer.query_rows) < len(outer.bound_rows)


@pytest.mark.parametrize("kind", ["cmac", "g_inner", "dm_inner", "dm_outer"])
def test_four_and_five_column_rows_are_not_pruned(kind):
    nb = CONSTRAINT_PATTERNS[kind].shape[0]
    rows = np.vstack([np.full(nb, 0.5), np.full(nb, 0.25), np.full(nb, 0.5)])
    region = RateRegion(kind, np.zeros((0, 3)), np.zeros((0, 1)), rows)
    assert np.array_equal(region.query_rows, rows)
