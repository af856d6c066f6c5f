import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_regions import (
    GaussianScenario,
    R0_RHO_COEFF_AS_PRINTED,
    ValidationError,
    batch_vertices,
    capacity_fn,
    gaussian,
    gaussian_bounds,
    sweep_gaussian,
)
from secrecy_regions.geometry import A_OUTER_GAUSSIAN, GEOM_TOL, FrontierAccumulator


def cap(x):
    # independent oracle for 0.5*log2(1+x)
    return 0.5 * math.log2(1.0 + x)


FIG_SCENARIO_3 = GaussianScenario(1.0, 1.0, 0.1, 0.3)
FIG_SCENARIO_4 = GaussianScenario(1.0, 1.0, 0.1, 0.6)


def test_capacity_fn_values():
    assert capacity_fn(0.0) == 0.0
    assert capacity_fn(1.0) == pytest.approx(0.5, abs=1e-15)
    assert capacity_fn(20.0) == pytest.approx(cap(20.0), abs=1e-15)
    with pytest.raises(ValidationError):
        capacity_fn(-0.5)


@pytest.mark.parametrize(
    "x",
    ["x", "1.0", pytest.param(10**400, id="10**400"),
     pytest.param([1.0, 10**400], id="[1, 10**400]"), [[1.0], [1.0, 2.0]], None],
)
def test_capacity_fn_refuses_what_is_not_numbers(x):
    with pytest.raises(ValidationError, match="capacity_fn expects real numbers"):
        capacity_fn(x)


def test_capacity_fn_array():
    out = capacity_fn(np.array([0.0, 3.0]))
    assert np.allclose(out, [0.0, 1.0])


def test_capacity_fn_refuses_nan_and_takes_inf():
    with pytest.raises(ValidationError, match=">= 0"):
        capacity_fn([1.0, np.nan])
    assert capacity_fn(np.inf) == np.inf


@pytest.mark.parametrize("coeff", [None, "2", pytest.param(10**400, id="10**400"), np.nan])
def test_gaussian_bounds_checks_r0_rho_coeff(coeff):
    # None used to raise TypeError and 10**400 OverflowError
    with pytest.raises(ValidationError, match="r0_rho_coeff"):
        gaussian_bounds(FIG_SCENARIO_3, "g_outer", 0.5, 0.5, 0.5, coeff)


@pytest.mark.parametrize(
    "s, coeff",
    [(GaussianScenario(1e200, 1e200, 0.1, 0.3), 2.0), (FIG_SCENARIO_3, 1e308),
     (FIG_SCENARIO_3, -20.0), (FIG_SCENARIO_3, -2.05)],  # the last: b0 finite but < 0
)
def test_gaussian_bounds_refuses_bounds_that_overflow_or_fall_below_zero(s, coeff):
    # used to return inf or NaN rows, which only sweep_gaussian refused
    with pytest.raises(ValidationError, match="overflow"):
        gaussian_bounds(s, "g_outer", [0.0, 1.0], [0.0, 1.0], [1.0, 1.0], coeff)


@pytest.mark.parametrize("kind", [np.array(["g_inner"]), ["g_inner"], None])
def test_a_kind_that_is_not_a_str_is_refused(kind):
    # an array kind used to end in numpy's "truth value is ambiguous"
    for call in (lambda: sweep_gaussian(FIG_SCENARIO_3, kind, 3),
                 lambda: gaussian_bounds(FIG_SCENARIO_3, kind, 0.5, 0.5)):
        with pytest.raises(ValidationError, match="kind must be one of"):
            call()


def test_scenario_validation():
    with pytest.raises(ValidationError):
        GaussianScenario(0.0, 1.0, 0.1, 0.3)
    with pytest.raises(ValidationError):
        GaussianScenario(1.0, 1.0, 0.1, -0.3)


def test_inner_bounds_no_common_split():
    """beta1 = beta2 = 0: all power is private, the common bound is 0."""
    b0, b1, _, b12, b012 = gaussian_bounds(FIG_SCENARIO_3, "g_inner", 0.0, 0.0)[0]
    assert b0 == 0.0
    assert b1 == pytest.approx(cap(1 / 0.1) - cap(1 / 1.3), abs=1e-12)
    assert b12 == pytest.approx(cap(2 / 0.1) - cap(2 / 0.3), abs=1e-12)
    assert b012 == pytest.approx(b12, abs=1e-12)


def test_inner_bounds_full_common():
    """beta1 = beta2 = 1: no private power, secrecy bounds vanish."""
    b0, b1, b2, b12, b012 = gaussian_bounds(FIG_SCENARIO_3, "g_inner", 1.0, 1.0)[0]
    assert b1 == 0.0 and b2 == 0.0 and b12 == 0.0
    assert b0 == pytest.approx(cap(4 / 0.3), abs=1e-12)
    assert b012 == pytest.approx(cap(4 / 0.1), abs=1e-12)


def test_outer_bounds_values():
    b0, b12, b012 = gaussian_bounds(FIG_SCENARIO_3, "g_outer", 0.5, 0.5, 0.0)[0]
    assert b12 == pytest.approx(cap(1 / 0.1) - cap(1 / 0.3), abs=1e-12)
    assert b012 == pytest.approx(cap(2 / 0.1) - cap(1 / 0.3), abs=1e-12)
    assert b0 == pytest.approx(min(cap(1 / 1.1), cap(1 / 1.3)), abs=1e-12)


def test_outer_rho_coefficient_variants():
    p = (FIG_SCENARIO_3, "g_outer", 0.3, 0.4, 0.8)
    derived = gaussian_bounds(*p)[0]
    printed = gaussian_bounds(*p, r0_rho_coeff=R0_RHO_COEFF_AS_PRINTED)[0]
    assert derived[0] > printed[0]
    assert derived[1] == printed[1] and derived[2] == printed[2]


def test_cmac_bounds_values():
    b1, _, b12, b012 = gaussian_bounds(FIG_SCENARIO_3, "cmac", 0.0, 0.0)[0]
    assert b1 == pytest.approx(cap(1 / 0.3), abs=1e-12)
    assert b12 == pytest.approx(cap(2 / 0.3), abs=1e-12)
    assert b012 == pytest.approx(cap(2 / 0.3), abs=1e-12)


def test_equal_noise_kills_secrecy_sum():
    """sigma1 = sigma2: the r1 + r2 bound is exactly zero for every split."""
    s = GaussianScenario(1.0, 1.0, 0.2, 0.2)
    for beta in (0.0, 0.3, 0.9):
        assert gaussian_bounds(s, "g_inner", beta, beta)[0, 3] == 0.0  # b12
        assert gaussian_bounds(s, "g_outer", beta, beta, 0.5)[0, 1] == 0.0  # b12
    region = sweep_gaussian(s, "g_inner", 21)
    assert region.points[:, 1].max() <= 1e-9
    assert region.points[:, 2].max() <= 1e-9


@pytest.mark.parametrize(
    "kind, beta1, beta2, rho, match",
    [
        ("g_outer", 0.5, 0.5, None, "g_outer needs rho"),
        ("g_inner", 0.5, 0.5, 0.5, "g_inner takes no rho"),
        ("cmac", 0.5, 0.5, 0.0, "cmac takes no rho"),
        ("g_inner", 2, 0.5, None, "beta1"),
        ("g_inner", 0.5, -0.1, None, "beta2"),
        ("g_inner", np.nan, 0.5, None, "beta1"),
        ("cmac", 0.5, np.inf, None, "beta2"),
        ("cmac", "a", 0.5, None, "beta1"),
        ("cmac", "0.5", 0.5, None, "beta1"),
        ("g_inner", True, 0.5, None, "beta1"),
        ("g_inner", [0.5, None], [0.5, 0.5], None, "beta1"),
        ("g_outer", [0.0, 1.0 + 1e-12], [0.5, 0.5], [0.5, 0.5], "beta1"),
        ("g_outer", 0.5, 0.5, 1.5, "rho"),
        ("g_outer", 0.5, 0.5, np.nan, "rho"),
        ("g_outer", 0.5, 0.5, "x", "rho"),
        ("g_inner", [0.1, 0.2], [0.1, 0.2, 0.3], None, "equal-length 1-D"),
        ("cmac", [[0.1, 0.2]], [[0.1, 0.2]], None, "equal-length 1-D"),
        ("g_inner", 0.1, np.full((2, 5), 0.1), None, "equal-length 1-D"),
        ("g_outer", [0.1, 0.2], [0.1, 0.2], [0.1, 0.2, 0.3], "equal-length 1-D"),
        ("g_outer", 0.1, [0.1, 0.2], [[0.1, 0.2]], "equal-length 1-D"),
    ],
)
def test_gaussian_bounds_refuses_bad_parameters(kind, beta1, beta2, rho, match):
    with pytest.raises(ValidationError, match=match):
        gaussian_bounds(FIG_SCENARIO_3, kind, beta1, beta2, rho)


def test_gaussian_bounds_takes_scalars_beside_arrays():
    rows = gaussian_bounds(FIG_SCENARIO_3, "g_outer", 0.5, [0.1, 0.2, 0.3], 0.25)
    one = gaussian_bounds(FIG_SCENARIO_3, "g_outer", 0.5, 0.2, 0.25)
    assert rows.shape == (3, 3) and np.array_equal(rows[1:2], one)


def test_sweep_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        sweep_gaussian(FIG_SCENARIO_3, "nope", 11)
    with pytest.raises(ValidationError):
        sweep_gaussian(FIG_SCENARIO_3, "g_inner", 1)


@pytest.mark.parametrize("resolution", [2.5, "11", True, None, -5000])
def test_sweep_requires_an_integer_resolution(resolution):
    # -5000 squared is above the grid cap: the resolution is refused first
    with pytest.raises(ValidationError, match="resolution"):
        sweep_gaussian(FIG_SCENARIO_3, "g_inner", resolution)


def test_sweep_deterministic():
    a = sweep_gaussian(FIG_SCENARIO_4, "g_inner", 31)
    b = sweep_gaussian(FIG_SCENARIO_4, "g_inner", 31)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.records, b.records, equal_nan=True)


def test_sweep_inner_frozen_extremes():
    region = sweep_gaussian(FIG_SCENARIO_4, "g_inner", 101)
    assert region.max_sum_rate() == pytest.approx(cap(20) - cap(10 / 3), abs=1e-9)
    # max r0 at beta1 = beta2 = 1
    assert region.max_common_rate() == pytest.approx(cap(4 / 0.6), abs=1e-9)


def test_sweep_records_align_with_points():
    region = sweep_gaussian(FIG_SCENARIO_3, "g_inner", 21)
    i = int(np.argmax(region.points[:, 1] + region.points[:, 2]))
    beta1, beta2, rho = region.records[i]
    assert beta1 == 0.0 and beta2 == 0.0 and np.isnan(rho)


def test_outer_sweep_monotone_in_resolution():
    coarse = sweep_gaussian(FIG_SCENARIO_3, "g_outer", 5)
    fine = sweep_gaussian(FIG_SCENARIO_3, "g_outer", 9)  # 5 -> 2*5-1 nests
    assert fine.max_sum_rate() >= coarse.max_sum_rate() - 1e-12
    assert fine.max_common_rate() >= coarse.max_common_rate() - 1e-12


def test_outer_sweep_memory_stays_flat():
    """The fig2 outer sweep keeps no per-grid-point provenance, and its row
    prefilter works chunk by chunk: the tracemalloc peak is about 12 MiB, the
    grid and its bound rows.  A prefilter over all 2N corners at once (about
    17 MiB), one more full-grid copy per chunk or a (beta1, beta2, rho)
    table per grid point would cross the bound."""
    tracemalloc.start()
    try:
        sweep_gaussian(FIG_SCENARIO_3, "g_outer", 51)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20


def _unfiltered_outer_sweep(s, resolution, coeff, chunk_rows=lambda start, rows: rows):
    """sweep_gaussian's g_outer loop without the row prefilter: every grid
    row's vertices, in chunks of 20,000 rows cut by grid index.  chunk_rows
    picks the rows of a chunk that are enumerated (all of them by default).
    Returns the frontier's points and (beta1, beta2, rho) records."""
    g = np.linspace(0.0, 1.0, resolution)
    grid = [x.ravel() for x in np.meshgrid(g, g, g, indexing="ij")]
    bounds = gaussian_bounds(s, "g_outer", *grid, r0_rho_coeff=coeff)
    acc = FrontierAccumulator()
    for start in range(0, len(bounds), 20000):
        idx = chunk_rows(start, np.arange(start, min(start + 20000, len(bounds))))
        pts, owner = batch_vertices(A_OUTER_GAUSSIAN, bounds[idx])
        acc.add(pts, idx[owner][:, None].astype(float))
    region = acc.finish("g_outer", bounds)
    index = np.unravel_index(region.records[:, 0].astype(np.intp), (resolution,) * 3)
    return region.points, g[np.column_stack(index)]


def _assert_same_bytes(region, points, records):
    assert region.points.tobytes() == points.tobytes()
    assert region.records.tobytes() == records.tobytes()


@pytest.mark.parametrize("s", [FIG_SCENARIO_3, FIG_SCENARIO_4])
@pytest.mark.parametrize("coeff", [2.0, R0_RHO_COEFF_AS_PRINTED])
def test_outer_prefilter_keeps_the_figure_sweeps_byte_identical(s, coeff):
    # 51**3 rows in seven chunks, about 2 % of them live
    region = sweep_gaussian(s, "g_outer", 51, coeff)
    _assert_same_bytes(region, *_unfiltered_outer_sweep(s, 51, coeff))
    assert len(region.bound_rows) == 51**3  # membership still sees every row


@given(
    log_p=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    equal_powers=st.booleans(),
    log_sigma=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
    noise_order=st.sampled_from(["legitimate better", "eavesdropper better", "equal"]),
    coeff=st.sampled_from([-0.3, 0.0, 0.5, 0.7, 1.0, 2.0, 3.0]),
    resolution=st.integers(2, 20) | st.sampled_from([28, 36]),
)
@settings(max_examples=40, deadline=None)
def test_outer_prefilter_matches_the_unfiltered_sweep(
    log_p, equal_powers, log_sigma, noise_order, coeff, resolution
):
    # eavesdropper better or equal noise clips b12 to 0; 28 and 36 split the
    # grid into two and three chunks
    p1, p2 = 10.0 ** np.array(log_p)
    if equal_powers:
        p2 = p1
    lo, hi = sorted(10.0 ** np.array(log_sigma))
    sigma = {"legitimate better": (lo, hi), "eavesdropper better": (hi, lo), "equal": (lo, lo)}
    s = GaussianScenario(p1, p2, *sigma[noise_order])
    try:
        expected = _unfiltered_outer_sweep(s, resolution, coeff)
    except ValidationError:  # a negative coeff can take b0 below 0
        with pytest.raises(ValidationError, match="overflow or fall below 0"):
            sweep_gaussian(s, "g_outer", resolution, coeff)
        return
    _assert_same_bytes(sweep_gaussian(s, "g_outer", resolution, coeff), *expected)


def test_outer_sweep_passes_over_a_chunk_with_no_live_row(monkeypatch):
    # No scenario tried leaves a whole chunk dead (the beta1 = 1 band holds
    # the largest r1 + r2), so one is made: the second chunk's rows are
    # dropped, as a mask would drop them, and the loop must still cut the
    # chunks by grid index and record each vertex's own row.
    def live_rows(bounds, chunk):
        live = np.ones(len(bounds), dtype=bool)
        live[chunk : 2 * chunk] = False
        return live

    monkeypatch.setattr(gaussian, "_outer_live_rows", live_rows)
    region = sweep_gaussian(FIG_SCENARIO_3, "g_outer", 36)
    without_second = _unfiltered_outer_sweep(
        FIG_SCENARIO_3, 36, 2.0, lambda start, rows: rows[:0] if start == 20000 else rows
    )
    _assert_same_bytes(region, *without_second)


@pytest.mark.parametrize("seed", range(20))
def test_outer_corners_lift_to_each_rows_vertices(seed):
    # single rows, half of their bounds on a coarse level grid so that
    # b0 + b12 = b012, b0 = b012 and b12 = b012 ties occur, b012 < b0 too
    rng = np.random.default_rng(seed)
    rows = rng.random((50, 3)) * [1.0, 1.0, 2.0]
    tied = rng.random(rows.shape) < 0.5
    rows[tied] = rng.integers(0, 9, size=tied.sum()) / 4
    r0, s = gaussian._outer_corners(rows)
    n = len(rows)
    for i, row in enumerate(rows):
        lifts = np.array([[x, y, 0.0] for x, y in ((r0[i], s[i]), (r0[n + i], s[n + i]))])
        lifts = np.vstack([lifts, lifts[:, [0, 2, 1]]])
        pts, _ = batch_vertices(A_OUTER_GAUSSIAN, row)
        gap = np.abs(pts[:, None, :] - lifts[None, :, :]).max(axis=2)
        assert (gap.min(axis=1) <= 1e-12).all(), (row, pts, lifts)
        assert (gap.min(axis=0) <= 1e-12).all(), (row, pts, lifts)


# ties at the margin: levels equal, and GEOM_TOL, five and ten apart
_CORNER_LEVELS = np.array(
    [0.0, GEOM_TOL, 10 * GEOM_TOL, 0.25, 0.25 + 5 * GEOM_TOL, 0.25 + 10 * GEOM_TOL, 0.5,
     0.5 + 10 * GEOM_TOL, 0.75, 1.0, 1.5]
)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 300]) | st.integers(1, 150),
    levels=st.integers(1, len(_CORNER_LEVELS)),
    chunk=st.sampled_from([1, 2, 7, 64, 997, 20000]),
    duplicates=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_outer_live_rows_match_their_definition(seed, n, levels, chunk, duplicates):
    # a row is dropped exactly when each of its two corners is beaten by
    # _OUTER_MARGIN in r0 and in s by some corner of any row: brute force
    # over all 2n corners, against the chunked skyline
    rng = np.random.default_rng(seed)
    rows = _CORNER_LEVELS[rng.integers(0, levels, size=(n, 3))]
    if duplicates:
        rows[rng.random(n) < 0.3] = rows[rng.integers(0, n)]
    r0, s = gaussian._outer_corners(rows)
    margin = gaussian._OUTER_MARGIN
    covers = (r0[None, :] >= (r0 + margin)[:, None]) & (s[None, :] >= (s + margin)[:, None])
    beaten = covers.any(axis=1)
    expected = ~(beaten[:n] & beaten[n:])
    assert np.array_equal(gaussian._outer_live_rows(rows, chunk), expected)


@pytest.mark.parametrize(
    "s",
    [GaussianScenario(1, 1, 0.3, 0.1), GaussianScenario(2, 0.5, 0.3, 0.2),
     GaussianScenario(1, 1, 0.2, 0.2)],
)
def test_outer_live_rows_keep_every_row_when_b12_is_zero(s):
    # sigma1_sq >= sigma2_sq clips b12 to 0, so no corner beats another in s
    g = np.linspace(0.0, 1.0, 21)
    grid = [x.ravel() for x in np.meshgrid(g, g, g, indexing="ij")]
    bounds = gaussian_bounds(s, "g_outer", *grid)
    assert not bounds[:, 1].any()
    for chunk in (997, 20000):
        assert gaussian._outer_live_rows(bounds, chunk).all()
