"""Malformed values fed to every public callable.

Each callable gets one valid call built from small package objects.  Then,
one parameter at a time, every number, array, text or mapping argument is
replaced by a malformed value: NaN, +-inf, bool, 10**400, negative or
out-of-range numbers, text, None, ragged lists, empty arrays, arrays of the
wrong rank or shape, and the valid array with one entry spoiled.  Package
objects and random generators are never replaced.  Only ValidationError or
CapExceededError may escape.  A call given NaN or inf must refuse it, unless
the parameter is one of NON_FINITE_TAKEN, and even then may not return an
empty or NaN result.  The valid arguments are tiny, so no call does real
work.
"""

import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secrecy_regions as sr
from secrecy_regions import CapExceededError, ValidationError
from secrecy_regions.geometry import A_FIVE_BOUNDS
from conftest import degraded_binary_channel, identity_uniform_chain

CH = degraded_binary_channel()
AUX = identity_uniform_chain()
CFG = sr.CodeConfig(
    n=3, r0=0.0, r1=0.34, r2=0.34, r1p=0.0, r2p=0.0, aux=AUX, channel=CH,
    typicality_eps=0.1, seed=1,
)
CB = sr.generate_codebook(CFG)
SCENARIO = sr.GaussianScenario(1.0, 1.0, 0.1, 0.3)
GRID = sr.GridSpec(1, 2, 2, 2)
BOUNDS = np.array([[0.5, 0.4, 0.3, 0.6, 1.0]])
REGION = sr.RateRegion("dm_inner", np.array([[0.1, 0.2, 0.2]]), np.zeros((1, 1)), BOUNDS)
SYMBOLS = np.zeros((1, CFG.n), dtype=int)
SCENARIO_PATH = Path(__file__).with_name("gaussian_scenario.yaml")


def _rng():
    return np.random.default_rng(0)


# One valid call per public callable, every parameter named.
VALID = {
    "AuxiliaryChain": (sr.AuxiliaryChain, dict(
        p_u=AUX.p_u, p_v1v2_given_u=AUX.p_v1v2_given_u, p_x1_given_v1=np.eye(2),
        p_x2_given_v2=np.eye(2), kind="inner")),
    "AuxiliaryChain.inner": (sr.AuxiliaryChain.inner, dict(
        p_u=AUX.p_u, p_v1_given_u=[[0.5, 0.5]], p_v2_given_u=[[0.5, 0.5]],
        p_x1_given_v1=np.eye(2), p_x2_given_v2=np.eye(2))),
    "CodeConfig": (sr.CodeConfig, dict(
        n=3, r0=0.0, r1=0.34, r2=0.34, r1p=0.0, r2p=0.0, aux=AUX, channel=CH,
        typicality_eps=0.1, seed=1)),
    "Codebook": (sr.Codebook, dict(config=CFG, u=CB.u, v1=CB.v1, v2=CB.v2)),
    "DiscreteChannel": (sr.DiscreteChannel, dict(transition=CH.transition)),
    "FiniteDistribution": (sr.FiniteDistribution, dict(probs=[0.25, 0.75])),
    "GaussianScenario": (sr.GaussianScenario, dict(p1=1.0, p2=1.0, sigma1_sq=0.1, sigma2_sq=0.3)),
    "GridSpec": (sr.GridSpec, dict(u_size=1, v1_size=2, v2_size=2, resolution=2, max_chains=100)),
    "RateRegion": (sr.RateRegion, dict(
        kind="dm_inner", points=[[0.1, 0.2, 0.2]], records=[[3.0]], bound_rows=BOUNDS)),
    "ScenarioFile": (sr.ScenarioFile, dict(kind="gaussian", data={
        "scenario": {"p1": 1, "p2": 1, "sigma1_sq": 0.1, "sigma2_sq": 0.3},
        "bound": "inner", "output": "r.csv"})),
    "ScenarioFile.load": (sr.ScenarioFile.load, dict(path=str(SCENARIO_PATH))),
    "ScenarioFile.parse": (sr.ScenarioFile.parse, dict(
        text=SCENARIO_PATH.read_text(encoding="utf-8"))),
    "achievability_constraint_system": (sr.achievability_constraint_system, dict(aux=AUX, ch=CH)),
    "batch_vertices": (sr.batch_vertices, dict(A=A_FIVE_BOUNDS, B=BOUNDS)),
    "capacity_fn": (sr.capacity_fn, dict(x=[0.0, 3.0])),
    "chain_at": (sr.chain_at, dict(grid=GRID, ch=CH, sweep_class="inner", index=1)),
    "chain_count": (sr.chain_count, dict(grid=GRID, ch=CH, sweep_class="outer")),
    "chain_information": (sr.chain_information, dict(aux=AUX, ch=CH)),
    "contains": (sr.contains, dict(outer=REGION, p=[0.1, 0.1, 0.1])),
    "decode_rx1": (sr.decode_rx1, dict(cb=CB, y1=SYMBOLS)),
    "decode_rx2": (sr.decode_rx2, dict(cb=CB, y2=SYMBOLS)),
    "encode": (sr.encode, dict(cb=CB, w0=0, w1=1, w2=0, rng=_rng())),
    "entropy_bits": (sr.entropy_bits, dict(p=np.full((2, 2), 0.25))),
    "fm_eliminate": (sr.fm_eliminate, dict(
        A=[[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], b=[1.0, 0.0, 0.0], j=0)),
    "fm_matches_direct": (sr.fm_matches_direct, dict(aux=AUX, ch=CH)),
    "fm_region_polytope": (sr.fm_region_polytope, dict(aux=AUX, ch=CH)),
    "gaussian_bounds": (sr.gaussian_bounds, dict(
        s=SCENARIO, kind="g_outer", beta1=[0.0, 0.5], beta2=[0.5, 1.0], rho=[0.25, 0.75],
        r0_rho_coeff=2.0)),
    "generate_codebook": (sr.generate_codebook, dict(cfg=CFG)),
    "pareto_frontier": (sr.pareto_frontier, dict(points=[[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])),
    "posterior_w1w2": (sr.posterior_w1w2, dict(cb=CB, y2=SYMBOLS)),
    "project": (sr.project, dict(points=[[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]], axis="r1")),
    "region_bounds": (sr.region_bounds, dict(aux=AUX, ch=CH, kind="dm_inner")),
    "run_simulation": (sr.run_simulation, dict(cfg=CFG, trials=2)),
    "sweep_gaussian": (sr.sweep_gaussian, dict(
        s=SCENARIO, kind="g_outer", resolution=3, r0_rho_coeff=2.0)),
    "sweep_region": (sr.sweep_region, dict(ch=CH, sweep_class="inner", grid=GRID)),
    "transmit": (sr.transmit, dict(cb=CB, x1=SYMBOLS, x2=SYMBOLS, rng=_rng())),
}

# Public names that take no input to fuzz.
NOT_FUZZED = {
    "CapExceededError": "an exception type",
    "ValidationError": "an exception type",
    "R0_RHO_COEFF_AS_PRINTED": "a constant",
    "R0_RHO_COEFF_DERIVATION": "a constant",
    "SimulationSummary": "the record run_simulation returns; no outside input reaches it",
}

# The parameters that take a non-finite entry, and why.
NON_FINITE_TAKEN = {
    ("capacity_fn", "x"): "an infinite SNR has infinite capacity",
    ("RateRegion", "records"): "a Gaussian sweep without rho records it as NaN",
}

NON_FINITE = [np.nan, np.inf, -np.inf]
OTHER = [
    True, False, np.bool_(True), 10**400, -1, -0.5, 2.5, 2**70, "x", "", "0.5", None,
    [[1.0, 2.0], [1.0]], [], np.zeros(0), np.zeros((0, 3)), np.ones((2, 2, 2, 2, 2)),
    [True, False], {"a": 1},
]


def _fuzzed(value) -> bool:
    """Numbers, arrays, text and mappings are fuzzed; package objects and
    random generators are not."""
    return not type(value).__module__.startswith(("secrecy_regions", "numpy.random"))


def _spoiled(valid):
    """A strategy of (value, non_finite) pairs derived from a valid argument:
    a str wrapped in a list or an array; an array with an axis added, dropped,
    cut short or swapped, made ragged, or with one entry spoiled.  None for a
    mapping."""
    if isinstance(valid, str):
        wrapped = [[valid], np.array([valid, valid]), (valid,), valid.upper()]
        return st.sampled_from(wrapped).map(lambda v: (v, False))
    if isinstance(valid, dict):
        return None
    arr = np.asarray(valid)
    reshaped = [arr[None]]
    if arr.ndim:
        reshaped += [arr[0], arr[..., :-1]]
    if arr.ndim > 1:
        ragged = arr.tolist()
        ragged[-1] = ragged[-1][:-1]
        reshaped += [arr.T, ragged]
    entries = [np.nan, np.inf, -np.inf, 0.5, -1, 7] + [10**400] * (arr.ndim > 0)

    def spoil(value, index):
        if value == 10**400:  # only a list holds it
            out = leaf = arr.tolist()
            while isinstance(leaf[0], list):
                leaf = leaf[0]
            leaf[0] = value
            return out, False
        out = arr.astype(float) if isinstance(value, float) else arr.copy()
        out.flat[index] = value
        return out, not np.isfinite(value)

    spoiled = st.builds(spoil, st.sampled_from(entries), st.integers(0, arr.size - 1))
    return st.sampled_from(reshaped).map(lambda v: (v, False)) | spoiled


def _vacuous(result) -> bool:
    """An empty array, or a NaN anywhere in a number, array or tuple."""
    if isinstance(result, (tuple, list)):
        return any(_vacuous(r) for r in result)
    if isinstance(result, (float, np.floating, np.ndarray)):
        arr = np.asarray(result)
        return arr.size == 0 or (arr.dtype.kind == "f" and bool(np.isnan(arr).any()))
    return False


CASES = [(name, param) for name, (_, kwargs) in VALID.items()
         for param, value in kwargs.items() if _fuzzed(value)]


def _call(name, param, value, non_finite):
    """Call name with param replaced by value: refused, or a harmless result."""
    fn, kwargs = VALID[name]
    try:
        result = fn(**{**kwargs, param: value})
    except (ValidationError, CapExceededError):
        return
    if non_finite:
        assert (name, param) in NON_FINITE_TAKEN, f"{name}({param}={value!r}) was taken"
        assert not _vacuous(result), f"{name}({param}={value!r}) -> {result!r}"


def test_every_public_callable_is_fuzzed_with_every_parameter():
    assert set(sr.__all__) == {n.split(".")[0] for n in VALID} | set(NOT_FUZZED)
    for name, (fn, kwargs) in VALID.items():
        assert set(kwargs) == set(inspect.signature(fn).parameters), name


@pytest.mark.parametrize("name", VALID)
def test_the_valid_call_succeeds(name):
    fn, kwargs = VALID[name]
    assert not _vacuous(fn(**kwargs))


@pytest.mark.parametrize("name, param", CASES)
def test_each_malformed_value_is_refused_or_harmless(name, param):
    for value in NON_FINITE:
        _call(name, param, value, True)
    for value in OTHER:
        _call(name, param, value, False)


@pytest.mark.parametrize(
    "name, param", [c for c in CASES if _spoiled(VALID[c[0]][1][c[1]]) is not None]
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_a_spoiled_valid_argument_is_refused_or_harmless(name, param, data):
    value, non_finite = data.draw(_spoiled(VALID[name][1][param]), label=param)
    _call(name, param, value, non_finite)
