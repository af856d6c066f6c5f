import math
import tracemalloc

import numpy as np
import pytest

from secrecy_regions import (
    GaussianScenario,
    R0_RHO_COEFF_AS_PRINTED,
    ValidationError,
    capacity_fn,
    gaussian_bounds,
    sweep_gaussian,
)


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


def test_outer_sweep_memory_stays_bounded():
    """The fig2 outer sweep keeps no per-grid-point provenance: its
    tracemalloc peak is about 18 MiB, and one more full-grid copy per chunk
    or a (beta1, beta2, rho) table per grid point would cross the bound."""
    tracemalloc.start()
    try:
        sweep_gaussian(FIG_SCENARIO_3, "g_outer", 51)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 22 * 2**20
