import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from secrecy_regions import (
    AuxiliaryChain,
    CapExceededError,
    DiscreteChannel,
    FiniteDistribution,
    GridSpec,
    ValidationError,
    achievability_constraint_system,
    assemble_joint,
    chain_at,
    chain_count,
    chain_information,
    fm_matches_direct,
    fm_region_polytope,
    inner_corner_triples,
    mutual_information,
    outer_corner_triples,
    region_bounds,
    sweep_region,
)
from secrecy_regions import dm, geometry
from secrecy_regions.cli import main
from secrecy_regions.dm import random_inner_chain, simplex_grid
from secrecy_regions.geometry import Polytope3, contains, fm_eliminate
from conftest import (
    degraded_binary_channel,
    identity_uniform_chain,
    pure_noise_y2_channel,
)


def test_inner_chain_rejects_correlated_slice():
    p_v = np.zeros((1, 2, 2))
    p_v[0] = [[0.5, 0.0], [0.0, 0.5]]  # perfectly correlated
    with pytest.raises(ValidationError):
        AuxiliaryChain(FiniteDistribution.uniform(1), p_v, np.eye(2), np.eye(2), kind="inner")
    AuxiliaryChain(FiniteDistribution.uniform(1), p_v, np.eye(2), np.eye(2), kind="outer")


def test_inner_classmethod_builds_product():
    aux = AuxiliaryChain.inner(
        FiniteDistribution.uniform(2),
        np.array([[0.8, 0.2], [0.3, 0.7]]),
        np.array([[0.6, 0.4], [0.5, 0.5]]),
        np.eye(2),
        np.eye(2),
    )
    assert aux.kind == "inner"
    assert aux.p_v1v2_given_u[0, 0, 1] == pytest.approx(0.8 * 0.4, abs=1e-15)


def test_chain_information_against_joint_oracle(degraded_channel):
    """Every named information value must agree with the generic evaluator
    applied to the assembled seven-variable joint."""
    aux = AuxiliaryChain.inner(
        FiniteDistribution(np.array([0.3, 0.7])),
        np.array([[0.9, 0.1], [0.4, 0.6]]),
        np.array([[0.2, 0.8], [0.5, 0.5]]),
        np.array([[0.95, 0.05], [0.1, 0.9]]),
        np.array([[0.85, 0.15], [0.2, 0.8]]),
    )
    mi = chain_information(aux, degraded_channel)
    j = assemble_joint(aux, degraded_channel)
    expected = {
        "I(U;Y1)": (["U"], ["Y1"], []),
        "I(U;Y2)": (["U"], ["Y2"], []),
        "I(V1;Y1|U)": (["V1"], ["Y1"], ["U"]),
        "I(V2;Y2|U)": (["V2"], ["Y2"], ["U"]),
        "I(V1;Y1|V2,U)": (["V1"], ["Y1"], ["V2", "U"]),
        "I(V2;Y1|V1,U)": (["V2"], ["Y1"], ["V1", "U"]),
        "I(V1;Y2|V2,U)": (["V1"], ["Y2"], ["V2", "U"]),
        "I(V1,V2;Y1|U)": (["V1", "V2"], ["Y1"], ["U"]),
        "I(V1,V2;Y2|U)": (["V1", "V2"], ["Y2"], ["U"]),
        "I(V1,V2;Y1)": (["V1", "V2"], ["Y1"], []),
        "I(U,V1,V2;Y1)": (["U", "V1", "V2"], ["Y1"], []),
    }
    for name, (a, b, c) in expected.items():
        assert mi[name] == pytest.approx(mutual_information(j, a, b, c), abs=1e-10), name


def test_region_bounds_inner_formula(degraded_channel):
    aux = identity_uniform_chain(u_size=2)
    b = region_bounds(aux, degraded_channel, "dm_inner")
    j = assemble_joint(aux, degraded_channel)
    mi = lambda a, bb, g=(): mutual_information(j, a, bb, g)
    assert b[0] == pytest.approx(mi(["U"], ["Y2"]), abs=1e-10)
    assert b[1] == pytest.approx(
        max(mi(["V1"], ["Y1"], ["V2", "U"]) - mi(["V1"], ["Y2"], ["U"]), 0), abs=1e-10
    )
    assert b[3] == pytest.approx(
        max(mi(["V1", "V2"], ["Y1"], ["U"]) - mi(["V1", "V2"], ["Y2"], ["U"]), 0), abs=1e-10
    )
    assert b[4] == pytest.approx(
        max(mi(["V1", "V2"], ["Y1"]) - mi(["V1", "V2"], ["Y2"], ["U"]), 0), abs=1e-10
    )


def test_region_bounds_outer_formula(degraded_channel):
    aux = identity_uniform_chain(u_size=2)
    b = region_bounds(aux, degraded_channel, "dm_outer")
    j = assemble_joint(aux, degraded_channel)
    mi = lambda a, bb, g=(): mutual_information(j, a, bb, g)
    assert b[0] == pytest.approx(min(mi(["U"], ["Y1"]), mi(["U"], ["Y2"])), abs=1e-10)
    assert b[1] == pytest.approx(
        max(mi(["V1"], ["Y1"], ["U"]) - mi(["V1"], ["Y2"], ["U"]), 0), abs=1e-10
    )


def test_corner_triples_nonempty(degraded_channel):
    aux = identity_uniform_chain(u_size=2)
    inner = inner_corner_triples(aux, degraded_channel)
    outer = outer_corner_triples(aux, degraded_channel)
    assert inner and outer
    assert all(t.r0 >= 0 and t.r1 >= 0 and t.r2 >= 0 for t in inner)


def test_inner_corner_requires_inner_chain(degraded_channel):
    aux = AuxiliaryChain(
        FiniteDistribution.uniform(1),
        np.array([[[0.5, 0.0], [0.0, 0.5]]]),
        np.eye(2),
        np.eye(2),
        kind="outer",
    )
    with pytest.raises(ValidationError):
        inner_corner_triples(aux, degraded_channel)


def test_achievability_system_structure(degraded_channel):
    aux = identity_uniform_chain()
    system = achievability_constraint_system(aux, degraded_channel)
    assert system.variables == ("r0", "r1", "r2", "r1p", "r2p")
    eq_rows = [r for r in system.rows if r[1] == "=="]
    assert len(eq_rows) == 1
    coeffs, _, rhs = eq_rows[0]
    assert list(coeffs) == [0, 0, 0, 1, 1]
    assert rhs == pytest.approx(chain_information(aux, degraded_channel)["I(V1,V2;Y2|U)"])


def test_fm_projection_equals_direct_region(degraded_channel, rng):
    for _ in range(10):
        aux = random_inner_chain(degraded_channel, rng)
        assert fm_matches_direct(aux, degraded_channel)


def _same_vertices(a, b, tol=1e-9):
    """Every vertex of a within tol (max norm) of one of b, and back."""
    def near(p, q):
        return all(np.abs(q - v).max(axis=1).min() <= tol for v in p) if len(q) else not len(p)

    return near(a, b) and near(b, a)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_fm_table_matches_per_chain_elimination(seed, k):
    """The table eliminated once, evaluated at a chain, has the vertices of
    that chain's own raw system with r1p and r2p eliminated."""
    rng = np.random.default_rng(seed)
    ch = DiscreteChannel(rng.dirichlet(np.ones(k * k), size=k * k).reshape(k, k, k, k))
    aux = random_inner_chain(ch, rng, *(int(n) for n in rng.integers(1, 4, size=3)))
    system = fm_eliminate(fm_eliminate(achievability_constraint_system(aux, ch), "r1p"), "r2p")
    oracle = Polytope3(*system.to_arrays(("r0", "r1", "r2"))).vertices()
    assert _same_vertices(fm_region_polytope(aux, ch).vertices(), oracle)


def test_fm_table_is_derived_once_per_process(monkeypatch, tmp_path, degraded_channel):
    code = "import secrecy_regions.cli\nfrom secrecy_regions import dm\n"
    code += "print(dm._fm_table.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "0"  # nothing is eliminated at import

    calls = []
    real = geometry.fm_eliminate
    monkeypatch.setattr(geometry, "fm_eliminate", lambda s, v: calls.append(v) or real(s, v))
    dm._fm_table.cache_clear()
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "kind": "fm-check", "channel": degraded_channel.transition.tolist(), "chains": 50,
        "seed": 3, "output": str(tmp_path / "out.json"),
    }))
    assert main(["run", str(path)]) == 0
    assert calls == ["r1p", "r2p"]

    A, T = dm._fm_table()
    assert A.shape == (21, 3) and T.shape == (21, len(dm._RAW_TERMS)) == (21, 8)
    # only the r >= 0 rows have a negative rate coefficient, so a projection
    # that excludes the origin is empty: the fm-check verdicts rely on this
    negative = A[(A < 0).any(axis=1)]
    assert sorted(map(tuple, negative)) == [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]


def test_fm_snapped_vertex_is_not_a_mismatch():
    """Vertices snapped to the 1e-9 grid could cross a face of the other
    polytope by more than 1e-9; the real vertices are inside it within 1e-9."""
    t = np.random.default_rng(102).dirichlet(np.ones(9), size=9).reshape(3, 3, 3, 3)
    ch = DiscreteChannel(t)
    rng = np.random.default_rng(2)
    for _ in range(85):
        aux = random_inner_chain(ch, rng)
    assert fm_matches_direct(aux, ch)


def test_fm_polytope_vertices_feasible(degraded_channel):
    aux = identity_uniform_chain(u_size=2)
    poly = fm_region_polytope(aux, degraded_channel)
    for v in poly.vertices():
        assert poly.contains_point(v)


def test_simplex_grid_resolution_one_is_uniform():
    g = simplex_grid(3, 1)
    assert g.shape == (1, 3)
    assert np.allclose(g, 1 / 3)


def test_simplex_grid_counts_and_sums():
    g = simplex_grid(2, 5)
    assert len(g) == 5
    assert np.allclose(g.sum(axis=1), 1.0)
    g3 = simplex_grid(3, 3)
    assert len(g3) == 6  # compositions of 2 into 3 parts
    assert np.allclose(g3.sum(axis=1), 1.0)


def test_grid_spec_caps_alphabets():
    with pytest.raises(ValidationError):
        GridSpec(u_size=4)
    with pytest.raises(ValidationError):
        GridSpec(resolution=0)


def test_chain_enumeration_roundtrip(degraded_channel):
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=3)
    total = chain_count(grid, degraded_channel, "inner")
    assert total == 3**6  # one v-row per u, two x-rows per side, singleton pu block
    seen = set()
    for idx in (0, 1, total - 1, total // 2):
        aux = chain_at(grid, degraded_channel, "inner", idx)
        assert aux.kind == "inner"
        seen.add(aux.p_v1v2_given_u.tobytes())
    assert len(seen) >= 3


def test_sweep_cap_refused(degraded_channel):
    grid = GridSpec(u_size=3, v1_size=3, v2_size=3, resolution=5, max_chains=1000)
    with pytest.raises(CapExceededError):
        sweep_region(degraded_channel, "inner", grid)


@pytest.mark.parametrize("sweep_class", ["inner", "outer"])
def test_chain_count_matches_grid_tables(sweep_class):
    rng = np.random.default_rng(5)
    ch = DiscreteChannel(rng.dirichlet(np.ones(6), size=6).reshape(3, 2, 3, 2))
    for shape in ((1, 1, 1), (1, 2, 3), (2, 2, 2), (3, 1, 2)):
        for resolution in (1, 2, 3):
            grid = GridSpec(*shape, resolution=resolution)
            blocks = dm._chain_blocks(grid, ch, sweep_class)
            assert chain_count(grid, ch, sweep_class) == np.prod([len(b) for b in blocks])


@pytest.mark.parametrize("resolution", [100, 300, 10**9])
def test_chain_cap_checked_before_any_table(monkeypatch, resolution):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid table was built before the chain cap was checked")

    monkeypatch.setattr(dm, "simplex_grid", refuse)
    ch = DiscreteChannel(np.full((4, 4, 4, 4), 1 / 16))
    grid = GridSpec(u_size=2, v1_size=2, v2_size=2, resolution=resolution)
    with pytest.raises(CapExceededError):
        sweep_region(ch, "inner", grid)


@pytest.mark.parametrize("max_chains", [0, dm.MAX_CHAINS + 1, 10**15])
def test_grid_max_chains_only_lowers_the_cap(max_chains):
    with pytest.raises(ValidationError):
        GridSpec(max_chains=max_chains)


def test_sweep_deterministic_and_block_invariant(monkeypatch, degraded_channel):
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=5)
    default = sweep_region(degraded_channel, "inner", grid)
    rerun = sweep_region(degraded_channel, "inner", grid)
    # many small blocks, the last one shorter than the rest
    monkeypatch.setattr(dm, "_BLOCK_CELLS", dm._BLOCK_CELLS // 5)
    step = dm._block_chains(grid, degraded_channel.transition)
    total = chain_count(grid, degraded_channel, "inner")
    assert total > 8 * step and total % step
    small = sweep_region(degraded_channel, "inner", grid)
    for other in (rerun, small):
        for name in ("bound_rows", "points", "records"):
            assert getattr(other, name).tobytes() == getattr(default, name).tobytes()


@pytest.mark.parametrize("sweep_class", ["inner", "outer"])
def test_sweep_rows_match_single_chain_bounds(degraded_channel, sweep_class):
    """Row i of a sweep is region_bounds of chain_at(i): the block evaluator
    decodes every grid index the way chain_at does."""
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=3)
    kind = f"dm_{sweep_class}"
    rows = sweep_region(degraded_channel, sweep_class, grid).bound_rows
    assert len(rows) == chain_count(grid, degraded_channel, sweep_class) > 700
    for i, row in enumerate(rows):
        aux = chain_at(grid, degraded_channel, sweep_class, i)
        expected = region_bounds(aux, degraded_channel, kind)
        np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)


def test_sweep_refinement_monotone(degraded_channel):
    """Grids with resolution k and 2k-1 nest, so the region cannot shrink."""
    coarse = sweep_region(degraded_channel, "inner", GridSpec(1, 2, 2, 3))
    fine = sweep_region(degraded_channel, "inner", GridSpec(1, 2, 2, 5))
    assert all(contains(fine, p) for p in coarse.points)


def test_sweep_inner_within_outer(degraded_channel):
    inner = sweep_region(degraded_channel, "inner", GridSpec(1, 2, 2, 5))
    outer = sweep_region(degraded_channel, "outer", GridSpec(1, 2, 2, 5))
    assert all(contains(outer, p) for p in inner.points)


def test_sweep_record_is_chain_index(degraded_channel):
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=3)
    region = sweep_region(degraded_channel, "inner", grid)
    for point, record in zip(region.points, region.records):
        idx = int(record[0])
        aux = chain_at(grid, degraded_channel, "inner", idx)
        bounds = region_bounds(aux, degraded_channel, "dm_inner")
        from secrecy_regions.geometry import Polytope3

        assert Polytope3.from_bounds("dm_inner", bounds).contains_point(point)


def test_degenerate_v2_outer_reduces_to_single_user_form(rng):
    """One transmitter silent: the outer bounds collapse to the classic
    broadcast-with-confidential-message form, term by term."""
    t = rng.dirichlet(np.ones(6), size=4).reshape(2, 2, 3, 2)
    ch = DiscreteChannel(t)
    aux = AuxiliaryChain(
        FiniteDistribution(np.array([0.6, 0.4])),
        rng.dirichlet(np.ones(3), size=2).reshape(2, 3, 1),
        rng.dirichlet(np.ones(2), size=3),
        np.full((1, 2), 0.5),
    )
    b = region_bounds(aux, ch, "dm_outer")
    j = assemble_joint(aux, ch)
    mi = lambda a, bb, g=(): mutual_information(j, a, bb, g)
    r0 = min(mi(["U"], ["Y1"]), mi(["U"], ["Y2"]))
    r1 = max(mi(["V1"], ["Y1"], ["U"]) - mi(["V1"], ["Y2"], ["U"]), 0.0)
    assert b[0] == pytest.approx(r0, abs=1e-12)
    assert b[1] == pytest.approx(r1, abs=1e-12)
    assert b[2] == pytest.approx(0.0, abs=1e-12)
    assert b[3] == pytest.approx(b[1], abs=1e-12)


def test_degenerate_u_inner_reduces_to_mac_wiretap_form(rng):
    t = rng.dirichlet(np.ones(6), size=4).reshape(2, 2, 3, 2)
    ch = DiscreteChannel(t)
    aux = AuxiliaryChain.inner(
        FiniteDistribution(np.array([1.0])),
        np.array([[0.3, 0.7]]),
        np.array([[0.55, 0.45]]),
        np.eye(2),
        np.eye(2),
    )
    b = region_bounds(aux, ch, "dm_inner")
    j = assemble_joint(aux, ch)
    mi = lambda a, bb, g=(): mutual_information(j, a, bb, g)
    assert b[0] == pytest.approx(0.0, abs=1e-12)
    assert b[1] == pytest.approx(
        max(mi(["X1"], ["Y1"], ["X2"]) - mi(["X1"], ["Y2"]), 0.0), abs=1e-12
    )
    assert b[2] == pytest.approx(
        max(mi(["X2"], ["Y1"], ["X1"]) - mi(["X2"], ["Y2"]), 0.0), abs=1e-12
    )
    assert b[3] == pytest.approx(
        max(mi(["X1", "X2"], ["Y1"]) - mi(["X1", "X2"], ["Y2"]), 0.0), abs=1e-12
    )


def test_noiseless_channel_reaches_two_bits():
    ch = pure_noise_y2_channel()
    aux = identity_uniform_chain()
    b = region_bounds(aux, ch, "dm_inner")
    assert b[3] == pytest.approx(2.0, abs=1e-12)  # r1 + r2 up to both input bits
