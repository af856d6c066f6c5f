import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_regions import (
    HalfspaceSystem,
    Polytope3,
    RateRegion,
    RateTriple,
    UnboundedPolytopeError,
    ValidationError,
    enumerate_vertices,
    fm_eliminate,
    pareto_frontier,
    project,
)
from secrecy_regions import GaussianScenario, GridSpec, sweep_gaussian, sweep_region
from secrecy_regions.geometry import (
    CONSTRAINT_PATTERNS,
    GEOM_TOL,
    FrontierAccumulator,
    _pareto_mask,
    _prune_pairwise,
    _staircase,
    batch_vertices,
    contains,
)
from conftest import degraded_binary_channel


def test_rate_triple_clamps_tiny_negatives():
    t = RateTriple(-1e-12, 0.5, 0.25)
    assert t.r0 == 0.0
    with pytest.raises(ValidationError):
        RateTriple(-1e-3, 0.0, 0.0)


def test_unit_box_vertices():
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    v = enumerate_vertices(A, b)
    assert len(v) == 8
    assert set(map(tuple, np.round(v, 9))) == {
        (a, c, d) for a in (0.0, 1.0) for c in (0.0, 1.0) for d in (0.0, 1.0)
    }


def test_simplex_vertices():
    A = np.vstack([[1.0, 1.0, 1.0], -np.eye(3)])
    b = np.array([1.0, 0.0, 0.0, 0.0])
    v = enumerate_vertices(A, b)
    assert len(v) == 4  # origin plus the three unit points


def test_unbounded_polytope_detected():
    A = -np.eye(3)
    b = np.zeros(3)
    with pytest.raises(UnboundedPolytopeError):
        enumerate_vertices(A, b)


def test_batch_vertices_matches_single():
    A = np.vstack([np.eye(3), [1.0, 1.0, 1.0], -np.eye(3)])
    rhs = np.array([[0.5, 0.7, 0.3, 1.0, 0, 0, 0], [1.0, 1.0, 1.0, 1.5, 0, 0, 0]])
    # box corners under the sum plane, plus where the plane cuts the box edges
    expected = [
        [(0, 0, 0), (.5, 0, 0), (0, .7, 0), (0, 0, .3), (.5, 0, .3), (0, .7, .3),
         (.5, .5, 0), (.3, .7, 0), (.5, .2, .3)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, .5, 0), (1, 0, .5),
         (.5, 1, 0), (0, 1, .5), (.5, 0, 1), (0, .5, 1)],
    ]
    pts, owner = batch_vertices(A, rhs)
    for i in range(2):
        mine = np.unique(np.round(pts[owner == i] / GEOM_TOL) * GEOM_TOL, axis=0)
        assert len(mine) == len(expected[i])
        for v in expected[i]:
            assert np.min(np.abs(mine - v).sum(axis=1)) < 1e-8


def test_fm_eliminate_box():
    # project {0 <= x,y <= 1, x + y <= 1.5} onto x: expect 0 <= x <= 1
    sys3 = HalfspaceSystem(
        ("x", "y"),
        (
            ((1, 0), "<=", 1.0),
            ((0, 1), "<=", 1.0),
            ((1, 1), "<=", 1.5),
            ((-1, 0), "<=", 0.0),
            ((0, -1), "<=", 0.0),
        ),
    )
    proj = fm_eliminate(sys3, "y")
    A, b = proj.to_arrays(("x",))
    xs = []
    for coeff, rhs in zip(A[:, 0], b):
        if coeff > 0:
            xs.append(rhs / coeff)
    assert min(xs) == pytest.approx(1.0)


def test_fm_eliminate_equality_row():
    # x + y == 1 with 0 <= y <= 0.4 projects to 0.6 <= x <= 1
    sys3 = HalfspaceSystem(
        ("x", "y"),
        (
            ((1, 1), "==", 1.0),
            ((0, 1), "<=", 0.4),
            ((0, -1), "<=", 0.0),
        ),
    )
    proj = fm_eliminate(sys3, "y")
    A, b = proj.to_arrays(("x",))
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
        sys2 = HalfspaceSystem(("x", "y"), tuple((A[i], "<=", b[i]) for i in range(6)))
        proj = fm_eliminate(sys2, "y")
        Ap, bp = proj.to_arrays(("x",))
        assert np.all(Ap[:, 0] * interior[0] <= bp + GEOM_TOL)


def _brute_frontier(pts):
    """Rows of pts that no other row dominates (>= everywhere, > somewhere)."""
    keep = [
        p for p in pts if not ((pts >= p).all(axis=1) & (pts > p).any(axis=1)).any()
    ]
    return np.unique(np.array(keep).reshape(-1, 3), axis=0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
@settings(max_examples=30, deadline=None)
def test_pareto_frontier_matches_bruteforce(seed, count):
    # 24 levels per axis: up to 3000 distinct rows, so the vectorized
    # filter runs as well as the staircase
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 24, size=(count, 3)).astype(float) / 23.0
    fast = pareto_frontier(pts)
    brute = _brute_frontier(np.unique(pts, axis=0))
    assert np.array_equal(fast, brute)  # both in (r0, r1, r2) row order


def _staircase_only_mask(points, tol):
    """_pareto_mask without its vectorized filter rounds."""
    q = points if tol <= 0 else np.round(points / tol)
    order = np.lexsort((-q[:, 2], -q[:, 1], -q[:, 0]))
    keep = np.zeros(len(q), dtype=bool)
    keep[order[_staircase(q[order])]] = True
    return keep


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4000),
    levels=st.integers(1, 60),
    on_plane=st.booleans(),
    jitter=st.booleans(),
    tol=st.sampled_from([0.0, 1e-3]),
)
@settings(max_examples=60, deadline=None)
def test_pareto_mask_matches_staircase(seed, n, levels, on_plane, jitter, tol):
    # integer-grid coordinates repeat r0/r1/r2 values and whole rows; rows
    # on a plane are mostly mutually non-dominated, so few are filtered
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, levels + 1, size=(n, 3)).astype(float)
    if on_plane:
        pts[:, 2] = 2 * levels - pts[:, 0] - pts[:, 1]
    pts = pts * 1e-3
    if jitter:
        pts = pts + rng.choice([0.0, 1e-12], size=pts.shape)
    assert np.array_equal(_pareto_mask(pts, tol), _staircase_only_mask(pts, tol))


@given(st.integers(0, 2**32 - 1), st.integers(1, 2000))
@settings(max_examples=40, deadline=None)
def test_dedupe_picks_the_rows_np_unique_picks(seed, n):
    rng = np.random.default_rng(seed)
    # values that round to -0.0 and +0.0, and neighbours one grid step apart
    values = np.array([-0.0, 0.0, -1e-12, 1e-12, 0.5, 0.5 + GEOM_TOL, 0.5 - GEOM_TOL, 1.0])
    pts = rng.choice(values, size=(n, 3))
    recs = np.arange(n, dtype=float)[:, None]
    _, first = np.unique(np.round(pts / GEOM_TOL) * GEOM_TOL, axis=0, return_index=True)
    kept, kept_recs = FrontierAccumulator._dedupe(pts, recs)
    assert np.array_equal(kept_recs[:, 0], np.sort(first))
    assert np.array_equal(kept, pts[np.sort(first)])


def test_pareto_frontier_accepts_triples():
    pts = [RateTriple(0, 0, 0), RateTriple(1, 0, 0), RateTriple(1, 1, 0)]
    f = pareto_frontier(pts)
    assert f.shape == (1, 3)
    assert np.allclose(f[0], [1, 1, 0])


def test_project_drops_axis():
    pts = np.array([[0.5, 1.0, 0.2], [0.1, 0.4, 0.9], [0.5, 1.0, 0.1]])
    f = project(pts, "r0")
    assert f.shape[1] == 2
    assert np.allclose(f, np.array([[0.4, 0.9], [1.0, 0.2]]))


def test_polytope_from_bounds_and_membership():
    poly = Polytope3.from_bounds("dm_inner", np.array([0.5, 0.4, 0.3, 0.6, 1.0]))
    assert poly.contains_point([0.5, 0.3, 0.2])
    assert not poly.contains_point([0.5, 0.4, 0.3])  # violates the pair bound
    bounds = np.array([[0.5, 0.4, 0.3, 0.6, 1.0]])
    region = RateRegion("dm_inner", np.zeros((0, 3)), np.zeros((0, 1)), bounds)
    assert contains(region, [0.5, 0.3, 0.2])


def test_region_contains_uses_bound_rows():
    bounds = np.array([[0.5, 0.4, 0.3, 0.6, 1.0]])
    region = RateRegion("dm_inner", np.zeros((0, 3)), np.zeros((0, 1)), bounds)
    assert contains(region, [0.4, 0.1, 0.1])
    assert not contains(region, [0.6, 0.0, 0.0])
    assert not contains(region, [-0.1, 0.0, 0.0])


def _full_scan_contains(region, p, tol):
    """contains as it was before query_rows: a scan over every bound row."""
    p = np.asarray(p, dtype=float)
    if (p < -tol).any():
        return False
    if len(region.points) and (region.points >= p[None, :] - tol).all(axis=1).any():
        return True
    A = CONSTRAINT_PATTERNS[region.kind]
    lhs = A[: A.shape[0] - 3] @ p
    return bool((lhs[None, :] <= np.atleast_2d(region.bound_rows) + tol).all(axis=1).any())


def _queries(region, rng, count):
    """Frontier points and points on each row's faces, scaled by 1 - 1e-9,
    1 and 1 + 1e-9, plus uniform random points over the bounding box."""
    rows = np.atleast_2d(region.bound_rows)
    r0 = np.maximum(rows[:, 0], 0.0)
    pair = np.maximum(np.minimum(rows[:, 1], rows[:, 2] - r0), 0.0)
    split = rng.uniform(0.0, 1.0, len(rows))
    faces = np.column_stack([r0, split * pair, (1 - split) * pair])
    base = np.vstack([region.points.reshape(-1, 3), faces])
    base = base[rng.choice(len(base), size=min(count, len(base)), replace=False)]
    top = max(float(np.abs(rows).max()), 1e-3) * 1.1
    random = rng.uniform(0.0, top, size=(count, 3))
    return np.vstack([base * (1 - 1e-9), base, base * (1 + 1e-9), random])


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.8, 1.25),
    resolution=st.integers(2, 9),
    tol=st.sampled_from([0.0, GEOM_TOL]),
)
@settings(max_examples=25, deadline=None)
def test_contains_matches_full_scan_on_outer_sweeps(seed, scale, resolution, tol):
    sc = GaussianScenario(scale, 2.0 - scale, 0.1 * scale, 0.3 / scale)
    region = sweep_gaussian(sc, "g_outer", resolution)
    rng = np.random.default_rng(seed)
    for p in _queries(region, rng, 60):
        assert contains(region, p, tol) == _full_scan_contains(region, p, tol)


_LEVELS = np.array(
    [-0.0, 0.0, 0.125, 0.25, np.nextafter(0.25, 1.0), np.nextafter(0.5, 0.0), 0.5,
     0.75, np.nextafter(0.75, 1.0), 1.0]
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 1500),
    trade_off=st.booleans(),
    tol=st.sampled_from([0.0, GEOM_TOL]),
)
@settings(max_examples=40, deadline=None)
def test_contains_matches_full_scan_on_hand_built_rows(seed, n, trade_off, tol):
    # few levels: duplicate rows and rows equal in two columns are common;
    # -0.0 beside +0.0, and values one ulp apart.  With trade_off the third
    # column falls as the first two rise, so dozens of rows survive pruning.
    rng = np.random.default_rng(seed)
    top = len(_LEVELS) - 1
    idx = rng.integers(0, top + 1, size=(n, 3))
    if trade_off:
        idx[:, 2] = np.clip(2 * top - idx[:, 0] - idx[:, 1] - rng.integers(0, 2, n), 0, top)
    rows = _LEVELS[idx]
    region = RateRegion("g_outer", np.zeros((0, 3)), np.zeros((0, 3)), rows)
    for p in _queries(region, rng, 60):
        assert contains(region, p, tol) == _full_scan_contains(region, p, tol)
    kept = region.query_rows
    # every dropped row is weakly dominated by a kept one; no kept row by another
    for r in rows:
        assert (kept >= r).all(axis=1).any()
    for i, r in enumerate(kept):
        others = np.delete(kept, i, axis=0)
        assert not (others >= r).all(axis=1).any()


def test_sweeps_leave_query_rows_uncomputed():
    outer = sweep_gaussian(GaussianScenario(1.0, 1.0, 0.1, 0.3), "g_outer", 7)
    dm = sweep_region(degraded_binary_channel(), "inner", GridSpec(1, 2, 2, 2))
    for region in (outer, dm):
        assert "query_rows" not in region.__dict__
    contains(outer, [0.0, 0.1, 0.1])
    assert "query_rows" in outer.__dict__
    assert len(outer.query_rows) < len(outer.bound_rows)


@pytest.mark.parametrize("kind", ["cmac", "g_inner", "dm_inner", "dm_outer"])
def test_four_and_five_column_rows_are_not_pruned(kind):
    nb = CONSTRAINT_PATTERNS[kind].shape[0] - 3
    rows = np.vstack([np.full(nb, 0.5), np.full(nb, 0.25), np.full(nb, 0.5)])
    region = RateRegion(kind, np.zeros((0, 3)), np.zeros((0, 1)), rows)
    assert np.array_equal(region.query_rows, rows)
