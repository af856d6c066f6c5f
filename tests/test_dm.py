import hashlib
import os
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import xlogy

from secrecy_regions import (
    AuxiliaryChain,
    CapExceededError,
    DiscreteChannel,
    FiniteDistribution,
    GridSpec,
    ValidationError,
    achievability_constraint_system,
    chain_at,
    chain_count,
    chain_information,
    fm_matches_direct,
    fm_region_polytope,
    region_bounds,
    sweep_region,
)
from secrecy_regions import dm, geometry
from secrecy_regions.cli import main
from secrecy_regions.dm import random_inner_chain, simplex_grid
from secrecy_regions.geometry import (
    CONSTRAINT_PATTERNS,
    GEOM_TOL,
    batch_vertices,
    contains,
    fm_eliminate,
)
from secrecy_regions.info import _LN2, MAX_CHANNEL_ALPHABET
from conftest import (
    degraded_binary_channel,
    identity_uniform_chain,
    pure_noise_y2_channel,
)
from mi_oracle import assemble_joint, mutual_information


def test_inner_chain_rejects_correlated_slice():
    p_v = np.zeros((1, 2, 2))
    p_v[0] = [[0.5, 0.0], [0.0, 0.5]]  # perfectly correlated
    with pytest.raises(ValidationError):
        AuxiliaryChain(FiniteDistribution(np.ones(1)), p_v, np.eye(2), np.eye(2), kind="inner")
    AuxiliaryChain(FiniteDistribution(np.ones(1)), p_v, np.eye(2), np.eye(2), kind="outer")


def test_inner_classmethod_builds_product():
    aux = AuxiliaryChain.inner(
        FiniteDistribution(np.full(2, 1 / 2)),
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
        assert mi[name][0] == pytest.approx(mutual_information(j, a, b, c), abs=1e-10), name


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
    inner, outer = (
        batch_vertices(CONSTRAINT_PATTERNS[kind], region_bounds(aux, degraded_channel, kind))[0]
        for kind in ("dm_inner", "dm_outer")
    )
    assert len(inner) and len(outer)
    assert (inner >= -GEOM_TOL).all()


def test_inner_corner_requires_inner_chain(degraded_channel):
    aux = AuxiliaryChain(
        FiniteDistribution(np.ones(1)),
        np.array([[[0.5, 0.0], [0.0, 0.5]]]),
        np.eye(2),
        np.eye(2),
        kind="outer",
    )
    with pytest.raises(ValidationError):
        region_bounds(aux, degraded_channel, "dm_inner")
    with pytest.raises(ValidationError):
        achievability_constraint_system(aux, degraded_channel)


@pytest.mark.parametrize("x1_symbols", [1, 3])
def test_chain_with_the_wrong_input_alphabet_is_refused(degraded_channel, x1_symbols):
    """A 1-symbol x1 alphabet against |X1| = 2 used to give a joint of mass
    2.0 and a 3-symbol one numpy's broadcast error; both are refused."""
    aux = AuxiliaryChain.inner(
        FiniteDistribution(np.ones(1)),
        [[0.5, 0.5]],
        [[0.5, 0.5]],
        np.full((2, x1_symbols), 1 / x1_symbols),
        np.eye(2),
    )
    for evaluate in (lambda: region_bounds(aux, degraded_channel, "dm_inner"),
                     lambda: fm_matches_direct(aux, degraded_channel)):
        with pytest.raises(ValidationError, match="input alphabets do not match"):
            evaluate()


def test_achievability_system_structure(degraded_channel):
    aux = identity_uniform_chain()
    A, b = achievability_constraint_system(aux, degraded_channel)
    assert dm.RAW_VARS == ("r0", "r1", "r2", "r1p", "r2p")
    assert A.shape == (15, len(dm.RAW_VARS)) and b.shape == (15,)
    # the one equality, r1p + r2p == I(V1,V2;Y2|U), is the row and its negation
    np.testing.assert_array_equal(A[:2], [[0, 0, 0, 1, 1], [0, 0, 0, -1, -1]])
    rhs = chain_information(aux, degraded_channel)["I(V1,V2;Y2|U)"][0]
    assert b[0] == -b[1] == pytest.approx(rhs)


def test_fm_projection_equals_direct_region(degraded_channel, rng):
    for _ in range(10):
        aux = random_inner_chain(degraded_channel, rng)
        assert fm_matches_direct(aux, degraded_channel) == "equal"


def _same_vertices(a, b, tol=1e-9):
    """Every vertex of a within tol (max norm) of one of b, and back."""
    def near(p, q):
        return all(np.abs(q - v).max(axis=1).min() <= tol for v in p) if len(q) else not len(p)

    return near(a, b) and near(b, a)


def _square_channel(rng, k: int) -> DiscreteChannel:
    """A flat-Dirichlet channel with every alphabet of k symbols."""
    return DiscreteChannel(rng.dirichlet(np.ones(k * k), size=k * k).reshape(k, k, k, k))


def _random_chain(rng, k: int, sizes) -> AuxiliaryChain:
    """A flat-Dirichlet inner chain with (|U|, |V1|, |V2|) = sizes into
    k-symbol channel inputs."""
    nu, nv1, nv2 = (int(n) for n in sizes)
    return AuxiliaryChain.inner(
        FiniteDistribution(rng.dirichlet(np.ones(nu))),
        rng.dirichlet(np.ones(nv1), size=nu),
        rng.dirichlet(np.ones(nv2), size=nu),
        rng.dirichlet(np.ones(k), size=nv1),
        rng.dirichlet(np.ones(k), size=nv2),
    )


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_fm_table_matches_per_chain_elimination(seed, k):
    """The table eliminated once, evaluated at a chain, has the vertices of
    that chain's own raw system with r1p and r2p eliminated."""
    rng = np.random.default_rng(seed)
    ch = _square_channel(rng, k)
    aux = _random_chain(rng, k, rng.integers(1, 4, size=3))
    A, b = achievability_constraint_system(aux, ch)
    j = dm.RAW_VARS.index("r1p")  # then r2p, which has moved into column j
    oracle, _ = batch_vertices(*fm_eliminate(*fm_eliminate(A, b, j), j))
    assert _same_vertices(batch_vertices(*fm_region_polytope(aux, ch))[0], oracle)


def test_fm_table_is_derived_once_per_process(monkeypatch, tmp_path, degraded_channel):
    code = "import secrecy_regions.cli\nfrom secrecy_regions import dm\n"
    code += "print(dm._fm_table.cache_info().misses)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "0"  # nothing is eliminated at import

    calls = []
    real = geometry.fm_eliminate
    monkeypatch.setattr(geometry, "fm_eliminate", lambda A, b, j: calls.append(j) or real(A, b, j))
    dm._fm_table.cache_clear()
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump({
        "kind": "fm-check", "channel": degraded_channel.transition.tolist(), "chains": 50,
        "seed": 3, "output": str(tmp_path / "out.json"),
    }))
    assert main(["run", str(path)]) == 0
    assert calls == [3, 3]  # r1p, then r2p in the column r1p left

    A, T = dm._fm_table()
    assert A.shape == (21, 3) and T.shape == (21, len(dm._RAW_TERMS)) == (21, 8)
    # only the r >= 0 rows have a negative rate coefficient, so a projection
    # that excludes the origin is empty: the fm-check verdicts rely on this
    negative = A[(A < 0).any(axis=1)]
    assert sorted(map(tuple, negative)) == [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]


# sha256 of the derived table (A | T) as the elimination over named variables
# derived it, before it ran on plain arrays; + 0.0 folds -0.0 into 0.0
_FM_TABLE_GOLDEN = "c89d7d18a1a6ca8ef3337e5be47ab87de092be9dcd05440e4bcc2923ba53608a"


def test_fm_table_matches_its_golden_digest():
    table = np.hstack(dm._fm_table()) + 0.0
    assert hashlib.sha256(table.tobytes()).hexdigest() == _FM_TABLE_GOLDEN


def test_fm_snapped_vertex_is_not_a_mismatch():
    """Vertices snapped to the 1e-9 grid could cross a face of the other
    polytope by more than 1e-9; the real vertices are inside it within 1e-9."""
    t = np.random.default_rng(102).dirichlet(np.ones(9), size=9).reshape(3, 3, 3, 3)
    ch = DiscreteChannel(t)
    rng = np.random.default_rng(2)
    for _ in range(85):
        aux = random_inner_chain(ch, rng)
    assert fm_matches_direct(aux, ch) == "equal"


def test_fm_polytope_vertices_feasible(degraded_channel):
    aux = identity_uniform_chain(u_size=2)
    A, b = fm_region_polytope(aux, degraded_channel)
    assert ((A > 0).any(axis=1) | (b < 0)).all()  # orthant-free: r >= 0 is implied
    verts, _ = batch_vertices(A, b)
    assert len(verts)
    assert (verts @ A.T <= b + GEOM_TOL).all()


def _fm_reference_rows(aux, ch):
    """The Fourier-Motzkin rows of one chain as _fm_table's rows were first
    kept chain by chain: the table at the chain's terms, parallel rows merged
    by _prune_pairwise, then only the rows with a positive coefficient or a
    negative right-hand side."""
    A, T = dm._fm_table()
    mi = chain_information(aux, ch)
    A, b = geometry._prune_pairwise(A, T @ [mi[name][0] for name in dm._RAW_TERMS])
    keep = (A > 0).any(axis=1) | (b < 0)
    return A[keep], b[keep]


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from([2, 3]),
    sizes=st.tuples(*[st.integers(1, 3)] * 3),
    n=st.integers(1, 30),
)
@settings(max_examples=40, deadline=None)
def test_fm_block_verdicts_equal_one_chain_verdicts(seed, k, sizes, n):
    """A block of chains gets the verdicts of one call per chain, and the
    block's kept rows are, bit for bit, those _prune_pairwise keeps."""
    rng = np.random.default_rng(seed)
    ch = _square_channel(rng, k)
    chains = [_random_chain(rng, k, sizes) for _ in range(n)]
    assert fm_matches_direct(chains, ch) == [fm_matches_direct(aux, ch) for aux in chains]
    assert fm_matches_direct(tuple(chains), ch) == fm_matches_direct(chains, ch)
    for aux in chains[:3]:
        for got, want in zip(fm_region_polytope(aux, ch), _fm_reference_rows(aux, ch)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


_SEED7_CHANNEL = np.random.default_rng(7).dirichlet(np.ones(4), size=4).reshape(2, 2, 2, 2)


@pytest.mark.parametrize(
    "channel, halved, verdict",
    [(None, False, "equal"), (_SEED7_CHANNEL, False, "raw_infeasible"), (None, True, "mismatch")],
    ids=["degraded", "seed7", "halved"],
)
def test_fm_block_reaches_every_verdict(monkeypatch, channel, halved, verdict):
    """The degraded channel gives equal, the benchmark's seed-7 channel
    raw_infeasible, and a table with every right-hand side halved (which
    still holds the origin) mismatch; a block agrees with one call per
    chain on each."""
    ch = degraded_binary_channel() if channel is None else DiscreteChannel(channel)
    if halved:
        A, T = dm._fm_table()
        monkeypatch.setattr(dm, "_fm_table", lambda: (A, 0.5 * T))
    rng = np.random.default_rng(1)
    chains = [random_inner_chain(ch, rng) for _ in range(30)]
    verdicts = fm_matches_direct(chains, ch)
    assert verdicts == [fm_matches_direct(aux, ch) for aux in chains]
    assert verdict in verdicts


def _fm_bad_blocks():
    aux = identity_uniform_chain()
    outer = AuxiliaryChain(aux.p_u, aux.p_v1v2_given_u, np.eye(2), np.eye(2), kind="outer")
    wide = AuxiliaryChain.inner(
        aux.p_u, [[0.5, 0.5]], [[0.5, 0.5]], np.full((2, 3), 1 / 3), np.eye(2)
    )
    return {
        "empty": ([], "non-empty sequence"),
        "empty tuple": ((), "non-empty sequence"),
        "not a sequence": (iter([aux]), "non-empty sequence"),
        "not a chain": ([aux, "chain"], "holds a str, not a chain"),
        "outer-class": ([aux, outer], "need an inner-class chain"),
        "two shapes": ([aux, identity_uniform_chain(u_size=2)], "differ in their"),
        "input alphabets": ([aux, wide], "input alphabets do not match"),
    }


@pytest.mark.parametrize("case", sorted(_fm_bad_blocks()))
def test_fm_block_refuses_a_bad_sequence(degraded_channel, case):
    block, message = _fm_bad_blocks()[case]
    with pytest.raises(ValidationError, match=message):
        fm_matches_direct(block, degraded_channel)


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


@pytest.mark.parametrize("field", ["u_size", "v1_size", "v2_size", "resolution", "max_chains"])
@pytest.mark.parametrize("value", [2.5, "2", True, None])
def test_grid_spec_requires_integer_fields(field, value):
    with pytest.raises(ValidationError, match=field):
        GridSpec(**{field: value})


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
    with pytest.raises(CapExceededError):
        chain_at(grid, ch, "inner", 0)


def test_chain_at_refuses_a_grid_above_the_cap_at_once():
    # 1.15e14 chains: chain_at used to build a 10.7 M-row option table (15.7 s)
    ch = DiscreteChannel(np.full((4, 4, 2, 2), 0.25))
    grid = GridSpec(1, 1, 1, resolution=400)
    assert chain_count(grid, ch, "inner") > 10**14
    start = time.perf_counter()
    with pytest.raises(CapExceededError, match="above the cap of 300000"):
        chain_at(grid, ch, "inner", 0)
    assert time.perf_counter() - start < 2.0  # about 0.1 ms


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
    step = dm._block_chains((grid.u_size, grid.v1_size, grid.v2_size), degraded_channel.transition)
    total = chain_count(grid, degraded_channel, "inner")
    assert total > 8 * step and total % step
    small = sweep_region(degraded_channel, "inner", grid)
    for other in (rerun, small):
        for name in ("bound_rows", "points", "records"):
            assert getattr(other, name).tobytes() == getattr(default, name).tobytes()


@pytest.mark.parametrize("sweep_class", ["inner", "outer"])
def test_sweep_rows_match_single_chain_bounds(degraded_channel, sweep_class):
    """Evaluated row k is region_bounds of chain_at(index[k]): the block
    evaluator decodes every canonical grid index the way chain_at does."""
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=4)
    kind = f"dm_{sweep_class}"
    index, rows = dm._grid_bounds(degraded_channel, grid, sweep_class, kind)
    assert len(rows) == len(index) > 700
    for i, row in zip(index.tolist(), rows):
        aux = chain_at(grid, degraded_channel, sweep_class, i)
        expected = region_bounds(aux, degraded_channel, kind)
        assert row.tobytes() == expected.tobytes(), i


def test_the_benchmark_grid_evaluates_its_canonical_chains():
    ch = DiscreteChannel(np.full((2, 2, 2, 2), 0.25))
    grid = GridSpec(2, 2, 2, 3)
    for sweep_class, total, evaluated in (("inner", 19_683, 8_748), ("outer", 24_300, 10_800)):
        assert chain_count(grid, ch, sweep_class) == total
        blocks = dm._chain_blocks(grid, ch, sweep_class)
        assert len(dm._canonical_index(blocks, grid)) == evaluated


def _every_chain_bounds(ch, grid, sweep_class):
    """Bounds of every grid chain, in grid order, with no chain skipped."""
    blocks = dm._chain_blocks(grid, ch, sweep_class)
    index = np.arange(chain_count(grid, ch, sweep_class))
    tables = dm._chain_tables(blocks, grid, sweep_class, index)
    mi = dm._information(dm._entropies(dm._joint5(*tables, ch.transition)))
    return dm._bounds(mi, f"dm_{sweep_class}")


def _sorted_relabel(ch, grid, sweep_class):
    """Grid index of each chain's twin: its p(x1|v1) rows, and its p(x2|v2)
    rows, stably sorted by option digit, with the v1 and v2 cells of its
    p(v|u) rows permuted to match."""
    blocks = dm._chain_blocks(grid, ch, sweep_class)
    sizes = [len(b) for b in blocks]
    where = {id(b): {row.tobytes(): k for k, row in enumerate(b)} for b in blocks}
    v_blocks = 2 * grid.u_size if sweep_class == "inner" else grid.u_size
    x1 = slice(1 + v_blocks, 1 + v_blocks + grid.v1_size)
    x2 = slice(1 + v_blocks + grid.v1_size, None)
    twins = []
    for digits in np.array(np.unravel_index(np.arange(np.prod(sizes)), sizes)).T:
        p1, p2 = np.argsort(digits[x1], kind="stable"), np.argsort(digits[x2], kind="stable")
        twin = digits.copy()
        twin[x1], twin[x2] = digits[x1][p1], digits[x2][p2]
        for k in range(1, 1 + v_blocks):
            row = blocks[k][digits[k]]
            if sweep_class == "outer":
                row = row.reshape(grid.v1_size, grid.v2_size)[p1][:, p2].ravel()
            else:
                row = row[p1 if k <= grid.u_size else p2]
            twin[k] = where[id(blocks[k])][row.tobytes()]
        twins.append(np.ravel_multi_index(twin, sizes))
    return np.array(twins)


def _small_grids(limit=3000):
    """(x1, x2, u, v1, v2, resolution) with X alphabets of 2-3 symbols, V
    sizes and resolutions 1-3, whose inner and outer grids are both at most
    `limit` chains."""
    shapes = []
    for x1, x2, u, v1, v2, res in product((2, 3), (2, 3), (1, 2), (1, 2, 3), (1, 2, 3), (1, 2, 3)):
        ch = DiscreteChannel(np.full((x1, x2, 2, 2), 0.25))
        grid = GridSpec(u, v1, v2, res)
        if max(chain_count(grid, ch, c) for c in ("inner", "outer")) <= limit:
            shapes.append((x1, x2, u, v1, v2, res))
    return shapes


def _random_channel(seed, x1, x2):
    rng = np.random.default_rng(seed)
    y1, y2 = (int(n) for n in rng.integers(2, 4, size=2))
    return DiscreteChannel(rng.dirichlet(np.ones(y1 * y2), size=x1 * x2).reshape(x1, x2, y1, y2))


@given(st.integers(0, 2**32 - 1), st.sampled_from(_small_grids()), st.sampled_from(["inner", "outer"]))
@settings(max_examples=50, deadline=None)
def test_every_chains_sorted_relabel_is_evaluated_with_its_bounds(seed, shape, sweep_class):
    ch, grid = _random_channel(seed, *shape[:2]), GridSpec(*shape[2:])
    index, evaluated = dm._grid_bounds(ch, grid, sweep_class, f"dm_{sweep_class}")
    twins = _sorted_relabel(ch, grid, sweep_class)
    pos = np.searchsorted(index, twins)
    assert (pos < len(index)).all() and (index[pos.clip(0, len(index) - 1)] == twins).all()
    assert np.array_equal(np.unique(twins), index)  # every evaluated chain is a twin
    np.testing.assert_allclose(evaluated[pos], _every_chain_bounds(ch, grid, sweep_class),
                               rtol=0, atol=1e-12)


def _unfiltered_region(ch, grid, sweep_class):
    """The region as every grid chain's polytope gives it: no chain skipped,
    every polytope enumerated, every row kept."""
    kind = f"dm_{sweep_class}"
    bounds = _every_chain_bounds(ch, grid, sweep_class)
    acc = geometry.FrontierAccumulator()
    pts, owner = batch_vertices(CONSTRAINT_PATTERNS[kind], bounds)
    acc.add(pts, owner[:, None].astype(float))
    return acc.finish(kind, bounds)


@given(st.integers(0, 2**32 - 1), st.sampled_from(_small_grids()), st.sampled_from(["inner", "outer"]))
@settings(max_examples=50, deadline=None)
def test_sweep_and_the_unfiltered_region_contain_each_other(seed, shape, sweep_class):
    ch, grid = _random_channel(seed, *shape[:2]), GridSpec(*shape[2:])
    region = sweep_region(ch, sweep_class, grid)
    reference = _unfiltered_region(ch, grid, sweep_class)
    assert all(contains(region, p) for p in reference.points)
    assert all(contains(reference, p) for p in region.points)
    bounds = _every_chain_bounds(ch, grid, sweep_class)
    # every recorded chain's own polytope holds its point
    for point, record in zip(region.points, region.records[:, 0].astype(int)):
        assert (CONSTRAINT_PATTERNS[region.kind] @ point <= bounds[record] + GEOM_TOL).all()


@pytest.mark.parametrize("index", [3**6 + 5, -1, 2.5, "3", 10**30])
def test_chain_at_refuses_an_index_off_the_grid(degraded_channel, index):
    grid = GridSpec(u_size=1, v1_size=2, v2_size=2, resolution=3)
    assert chain_count(grid, degraded_channel, "inner") == 3**6
    with pytest.raises(ValidationError, match="chain index"):
        chain_at(grid, degraded_channel, "inner", index)


@pytest.mark.parametrize(
    "call",
    [
        lambda grid, ch: chain_count(grid, ch, "middle"),
        lambda grid, ch: chain_at(grid, ch, "middle", 0),
        lambda grid, ch: sweep_region(ch, "middle", grid),
    ],
    ids=["chain_count", "chain_at", "sweep_region"],
)
def test_unknown_sweep_class_is_refused(degraded_channel, call):
    with pytest.raises(ValidationError, match="sweep class"):
        call(GridSpec(1, 2, 2, 3), degraded_channel)


@pytest.mark.parametrize("choice", [np.array(["inner"]), ["inner"], None])
def test_a_choice_that_is_not_a_str_is_refused(degraded_channel, choice):
    # an array used to end in numpy's "truth value is ambiguous"
    grid, aux = GridSpec(1, 2, 2, 3), identity_uniform_chain()
    calls = {
        "sweep class": lambda: sweep_region(degraded_channel, choice, grid),
        "dm bound kind": lambda: region_bounds(aux, degraded_channel, choice),
        "chain kind": lambda: AuxiliaryChain(
            aux.p_u, aux.p_v1v2_given_u, np.eye(2), np.eye(2), choice
        ),
    }
    for what, call in calls.items():
        with pytest.raises(ValidationError, match=f"{what} must be one of"):
            call()


def test_chain_tables_must_match_the_alphabets_before_them():
    aux = identity_uniform_chain(u_size=2)
    with pytest.raises(ValidationError, match=r"p\(v1,v2\|u\) must be a \(2, \|V1\|, \|V2\|\)"):
        AuxiliaryChain(aux.p_u, aux.p_v1v2_given_u[:1], np.eye(2), np.eye(2), "inner")
    with pytest.raises(ValidationError, match=r"p\(x2\|v2\) must be a \(2, \|X2\|\)"):
        AuxiliaryChain(aux.p_u, aux.p_v1v2_given_u, np.eye(2), np.eye(3)[:, :2], "inner")
    with pytest.raises(ValidationError, match=r"p\(v2\|u\) must be a \(2, \|V2\|\)"):
        AuxiliaryChain.inner(aux.p_u, [[0.5, 0.5]] * 2, [[0.5, 0.5]], np.eye(2), np.eye(2))


def _awkward_floats(rng, shape):
    """Values whose sums are order-sensitive: both signs over 1e-300..1e300,
    values near 1 next to ones near its last bit, exact zeros, -0.0 and
    subnormals, mixed cell by cell."""
    sign = rng.choice([-1.0, 1.0], shape)
    pools = np.stack([
        sign * 10.0 ** rng.uniform(-300, 300, shape),
        sign * rng.uniform(0.5, 2.0, shape),
        sign * rng.uniform(0.5, 2.0, shape) * 1e-16,
        rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-308], shape),
    ])
    return np.take_along_axis(pools, rng.integers(0, len(pools), (1, *shape)), 0)[0]


def test_fold_is_numpys_sum_bit_for_bit():
    """_fold is ndarray.sum on every axis of 2- to 6-D arrays whose axes have
    1 to 4 entries, the lengths the caps allow."""
    assert max(MAX_CHANNEL_ALPHABET, dm.MAX_AUX_ALPHABET) < 8, (
        "an alphabet cap reaches 8 entries, where numpy sums a contiguous last "
        "axis pairwise; dm._fold no longer matches ndarray.sum and must be revisited"
    )
    rng = np.random.default_rng(19)
    for ndim in range(2, 7):
        for _ in range(40):
            shape = tuple(rng.integers(1, 5, ndim))
            for t in (_awkward_floats(rng, shape), np.full(shape, -0.0)):
                for axis in range(ndim):
                    folded, summed = dm._fold(t, axis), t.sum(axis=axis)
                    assert folded.shape == summed.shape
                    assert folded.tobytes() == summed.tobytes(), (shape, axis)


def _numpy_sum_joint5(p_u, p_v1v2, p_x1, p_x2, transition):
    """The evaluator's _joint5 as it was with ndarray.sum, kept as an oracle."""
    p_y_v1x2 = (p_x1[:, :, :, None, None, None] * transition).sum(axis=2)
    p_y_v = (p_x2[:, None, :, :, None, None] * p_y_v1x2[:, :, None]).sum(axis=3)
    return p_u[:, :, None, None, None, None] * p_v1v2[..., None, None] * p_y_v[:, None]


def _numpy_sum_entropies(joint):
    """The evaluator's _entropies as it was with ndarray.sum, kept as an oracle."""
    tables = {(0, 1, 2, 3, 4): joint}
    h = {}
    for name, keep in dm._SUBSETS.items():
        source = min((k for k in tables if set(keep) <= set(k)), key=len)
        table = tables[source]
        for pos in reversed([i for i, axis in enumerate(source) if axis not in keep]):
            table = table.sum(axis=1 + pos)
        tables[keep] = table
        h[name] = -xlogy(table, table).reshape(len(table), -1).sum(axis=1) / _LN2
    return h


@pytest.mark.parametrize("sweep_class", ["inner", "outer"])
@pytest.mark.parametrize(
    "shape, grid",
    [((2, 2, 4, 3), GridSpec(3, 3, 2, 2)), ((3, 2, 4, 4), GridSpec(2, 3, 3, 2))],
    ids=["x1x2=2x2", "x1x2=3x2"],
)
def test_grid_bounds_match_the_numpy_sum_evaluator(monkeypatch, shape, grid, sweep_class):
    """Sweep bounds are the bits of the ndarray.sum evaluator on grids with
    3- and 4-term sums over u, v1, v2, x1 and y, where a reordered sum would
    move them."""
    rng = np.random.default_rng(41)
    rows = rng.dirichlet(np.ones(shape[2] * shape[3]), size=shape[0] * shape[1])
    ch = DiscreteChannel(rows.reshape(shape))
    args = ch, grid, sweep_class, f"dm_{sweep_class}"
    folded = dm._grid_bounds(*args)[1]
    monkeypatch.setattr(dm, "_joint5", _numpy_sum_joint5)
    monkeypatch.setattr(dm, "_entropies", _numpy_sum_entropies)
    assert folded.tobytes() == dm._grid_bounds(*args)[1].tobytes()


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
        b = region_bounds(aux, degraded_channel, "dm_inner")
        assert (CONSTRAINT_PATTERNS["dm_inner"] @ point <= b + GEOM_TOL).all()
        assert (point >= -GEOM_TOL).all()


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
