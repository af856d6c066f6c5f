"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Every numeric target was frozen from closed-form evaluation before
the library existed; the library must land on the same values.
"""

import math
import time
from dataclasses import replace

import numpy as np

from secrecy_regions import (
    AuxiliaryChain,
    CodeConfig,
    FiniteDistribution,
    GaussianScenario,
    GridSpec,
    gaussian_bounds,
    region_bounds,
    run_simulation,
    sweep_gaussian,
    sweep_region,
)
from secrecy_regions.dm import fm_matches_direct, random_inner_chain
from secrecy_regions.geometry import contains
from conftest import (
    degraded_binary_channel,
    identity_uniform_chain,
    pure_noise_y2_channel,
    reveal_both_channel,
)
from mi_oracle import assemble_joint, mutual_information


def cap(x: float) -> float:
    return 0.5 * math.log2(1.0 + x)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num}] {name}: {verdict}  ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_secrecy_enlarges_region_when_eavesdropper_noisy():
    t0 = time.perf_counter()
    s = GaussianScenario(1.0, 1.0, 0.1, 0.6)
    inner = sweep_gaussian(s, "g_inner", 101).max_sum_rate()
    cmac = sweep_gaussian(s, "cmac", 101).max_sum_rate()
    target_inner = cap(20.0) - cap(10.0 / 3.0)
    target_cmac = cap(10.0 / 3.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(inner - target_inner) <= 1e-6
        and abs(cmac - target_cmac) <= 1e-6
        and inner > cmac
        and elapsed < 5.0
    )
    report(
        1,
        "noisy-eavesdropper crossover",
        ok,
        f"inner {inner:.7f} vs {target_inner:.7f}, cmac {cmac:.7f} vs "
        f"{target_cmac:.7f}, {elapsed:.2f}s",
    )


def test_criterion_2_secrecy_costs_rate_when_eavesdropper_strong():
    t0 = time.perf_counter()
    s = GaussianScenario(1.0, 1.0, 0.1, 0.3)
    inner = sweep_gaussian(s, "g_inner", 101).max_sum_rate()
    cmac = sweep_gaussian(s, "cmac", 101).max_sum_rate()
    target_inner = cap(20.0) - cap(2.0 / 0.3)
    target_cmac = cap(2.0 / 0.3)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(inner - target_inner) <= 1e-6
        and abs(cmac - target_cmac) <= 1e-6
        and inner < cmac
        and elapsed < 5.0
    )
    report(
        2,
        "strong-eavesdropper ordering",
        ok,
        f"inner {inner:.7f} vs {target_inner:.7f}, cmac {cmac:.7f} vs "
        f"{target_cmac:.7f}, {elapsed:.2f}s",
    )


def test_criterion_3_gaussian_inner_contained_in_outer():
    t0 = time.perf_counter()
    lattice = [
        GaussianScenario(p, p, s1, s2)
        for p in (0.5, 1.0, 2.0)
        for (s1, s2) in ((0.1, 0.3), (0.1, 0.6), (0.2, 0.4))
    ]
    violations = 0
    checked = 0
    for s in lattice:
        inner = sweep_gaussian(s, "g_inner", 51)
        outer = sweep_gaussian(s, "g_outer", 51)
        for p in inner.points:
            checked += 1
            if not contains(outer, p):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    report(
        3,
        "inner within outer on 3x3 lattice",
        ok,
        f"{checked} frontier points, {violations} outside, {elapsed:.1f}s",
    )


def test_criterion_4_projection_matches_direct_region():
    t0 = time.perf_counter()
    ch = degraded_binary_channel()
    rng = np.random.default_rng(12345)
    equal = sum(fm_matches_direct(random_inner_chain(ch, rng), ch) == "equal" for _ in range(50))
    elapsed = time.perf_counter() - t0
    ok = equal == 50 and elapsed < 30.0
    report(4, "bin-rate elimination equivalence", ok, f"{equal}/50 equal, {elapsed:.2f}s")


def test_criterion_5_degenerations():
    rng = np.random.default_rng(20240817)
    t = rng.dirichlet(np.ones(6), size=4).reshape(2, 2, 3, 2)
    from secrecy_regions.info import DiscreteChannel

    ch = DiscreteChannel(t)

    # (a) second transmitter silent: outer bounds term-by-term single-user form
    aux_a = AuxiliaryChain(
        FiniteDistribution(np.array([0.6, 0.4])),
        rng.dirichlet(np.ones(3), size=2).reshape(2, 3, 1),
        rng.dirichlet(np.ones(2), size=3),
        np.full((1, 2), 0.5),
    )
    b = region_bounds(aux_a, ch, "dm_outer")
    j = assemble_joint(aux_a, ch)
    mi = lambda a, bb, g=(): mutual_information(j, a, bb, g)
    ok_a = (
        abs(b[0] - min(mi(["U"], ["Y1"]), mi(["U"], ["Y2"]))) <= 1e-12
        and abs(b[1] - max(mi(["V1"], ["Y1"], ["U"]) - mi(["V1"], ["Y2"], ["U"]), 0)) <= 1e-12
        and abs(b[2]) <= 1e-12
        and abs(b[3] - b[1]) <= 1e-12
    )

    # (b) no common message, V = X: inner bounds term-by-term wiretap-MAC form
    aux_b = AuxiliaryChain.inner(
        FiniteDistribution(np.array([1.0])),
        np.array([[0.3, 0.7]]),
        np.array([[0.55, 0.45]]),
        np.eye(2),
        np.eye(2),
    )
    bb_ = region_bounds(aux_b, ch, "dm_inner")
    j2 = assemble_joint(aux_b, ch)
    mi2 = lambda a, bv, g=(): mutual_information(j2, a, bv, g)
    ok_b = (
        abs(bb_[1] - max(mi2(["X1"], ["Y1"], ["X2"]) - mi2(["X1"], ["Y2"]), 0)) <= 1e-12
        and abs(bb_[2] - max(mi2(["X2"], ["Y1"], ["X1"]) - mi2(["X2"], ["Y2"]), 0)) <= 1e-12
        and abs(bb_[3] - max(mi2(["X1", "X2"], ["Y1"]) - mi2(["X1", "X2"], ["Y2"]), 0)) <= 1e-12
    )

    # (c) equal noise variances: every Gaussian secrecy rate pinned to zero
    s = GaussianScenario(1.0, 1.0, 0.2, 0.2)
    ok_c = all(
        gaussian_bounds(s, "g_inner", b1, b2)[0, 3] == 0.0  # b12
        and gaussian_bounds(s, "g_outer", b1, b2, r)[0, 1] == 0.0  # b12
        for b1 in (0.0, 0.5, 1.0)
        for b2 in (0.0, 0.5, 1.0)
        for r in (0.0, 0.7, 1.0)
    )
    region = sweep_gaussian(s, "g_inner", 21)
    ok_c = ok_c and region.points[:, 1].max() == 0.0 and region.points[:, 2].max() == 0.0

    ok = ok_a and ok_b and ok_c
    report(5, "degeneration checks", ok, f"single-user {ok_a}, wiretap-MAC {ok_b}, equal-noise {ok_c}")


def test_criterion_6_simulator_trends():
    """Asymptotic claims are out of reach at blocklength 12; the substitute
    is a seeded trend check: both error rates and the secrecy gap must be
    non-increasing over n in {4, 8, 12} at 1000 trials per point."""
    t0 = time.perf_counter()
    flip = 0.25
    ch = reveal_both_channel(flip)
    aux = identity_uniform_chain()
    r1p = 1.0 + flip * math.log2(flip) + (1 - flip) * math.log2(1 - flip)  # I(V1;Y2)
    eps_rx1, eps_rx2 = 0.125, 0.27
    seed, trials = 20240817, 1000
    pe1s, pe2s, gaps = [], [], []
    for n in (4, 8, 12):
        cfg = CodeConfig(
            n=n, r0=0.0, r1=0.25, r2=0.25, r1p=r1p, r2p=0.0,
            aux=aux, channel=ch, typicality_eps=eps_rx1, seed=seed,
        )
        # the receivers use different eps: one run each, same seed and draws;
        # the posterior, and so the gap, does not depend on eps
        rx1 = run_simulation(cfg, trials)
        rx2 = run_simulation(replace(cfg, typicality_eps=eps_rx2), trials)
        pe1s.append(rx1.pe1)
        pe2s.append(rx2.pe2)
        gaps.append(rx1.secrecy_gap)
    elapsed = time.perf_counter() - t0

    def non_increasing(xs):
        return all(a >= b for a, b in zip(xs, xs[1:]))

    # endpoint drop must clear a one-sided 95% binomial bound, not just noise
    def confident_drop(p_small_n, p_large_n):
        se = math.sqrt(
            max(p_small_n * (1 - p_small_n) + p_large_n * (1 - p_large_n), 1e-12) / trials
        )
        return p_small_n - p_large_n >= -1.645 * se

    ok = (
        non_increasing(pe1s)
        and non_increasing(pe2s)
        and non_increasing(gaps)
        and confident_drop(pe1s[0], pe1s[-1])
        and confident_drop(pe2s[0], pe2s[-1])
        and elapsed < 600.0
    )
    report(
        6,
        "simulator error and leakage trends",
        ok,
        f"pe1 {pe1s}, pe2 {pe2s}, gap {[round(float(g), 4) for g in gaps]}, {elapsed:.1f}s",
    )


def test_criterion_7_dm_sweep_reaches_analytic_optimum():
    t0 = time.perf_counter()
    ch = pure_noise_y2_channel()
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=5)
    region = sweep_region(ch, "inner", grid)
    max_r1 = float(region.points[:, 1].max()) if len(region.points) else 0.0
    elapsed = time.perf_counter() - t0
    ok = abs(max_r1 - 1.0) <= 0.05 and elapsed < 120.0
    report(7, "discrete sweep analytic optimum", ok, f"max r1 {max_r1:.6f} vs 1.0, {elapsed:.1f}s")
