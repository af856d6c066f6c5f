"""Discrete-memoryless rate-region bounds: the achievable (inner) and
converse (outer) inequality sets of auxiliary chains, and grid sweeps over
auxiliary-chain distributions.

An auxiliary chain is the factored input distribution
p(u) p(v1,v2|u) p(x1|v1) p(x2|v2); the inner class additionally requires
p(v1,v2|u) = p(v1|u) p(v2|u).  One evaluator works on a block of chains at
once: the joint p(u,v1,v2,y1,y2), the marginal entropies, the information
terms and the five bounds all carry a leading chain axis, and a single chain
is a block of one.  Sweeps decode a block of grid indices at a time, so no
Python work is done per chain.  No sum runs over the chain axis, and a
chain's bounds come out the same bits however the chains are split into
blocks; the tests compare the default block size with a small one.

The Fourier-Motzkin check derives the inner region a second way, from the
binning scheme's raw system over (r0, r1, r2, r1p, r2p).  Its coefficients
do not depend on the chain, so the bin rates are eliminated once per process
with every right-hand side carried as a variable over 8 information terms
(_fm_table, 21 rows); a chain's projection is that table times its terms.
A chain whose projection differs from the direct polytope is raw_infeasible
when the projection is empty: the raw system has no non-negative solution,
while the direct bounds, clamped at zero, still give a polytope.  Any other
difference is a mismatch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np
from scipy.special import xlogy

from .errors import CapExceededError, ValidationError
from .geometry import (
    CONSTRAINT_PATTERNS,
    FrontierAccumulator,
    HalfspaceSystem,
    Polytope3,
    RateRegion,
    _prune_pairwise,
    batch_vertices,
)
from .info import (
    _LN2,
    DiscreteChannel,
    FiniteDistribution,
    check_distribution,
    float_table,
)

MAX_AUX_ALPHABET = 3
MAX_CHAINS = 300_000
PRODUCT_TOL = 1e-12


@dataclass(frozen=True)
class AuxiliaryChain:
    """Factored auxiliary distribution feeding a two-input channel.

    p_v1v2_given_u has shape (|U|, |V1|, |V2|); for kind 'inner' every u
    slice must factor as p(v1|u) p(v2|u) exactly.
    """

    p_u: FiniteDistribution
    p_v1v2_given_u: np.ndarray
    p_x1_given_v1: np.ndarray
    p_x2_given_v2: np.ndarray
    kind: str = "outer"

    def __post_init__(self):
        pv = float_table(self.p_v1v2_given_u, "p(v1,v2|u)", 3)
        px1 = float_table(self.p_x1_given_v1, "p(x1|v1)", 2)
        px2 = float_table(self.p_x2_given_v2, "p(x2|v2)", 2)
        object.__setattr__(self, "p_v1v2_given_u", pv)
        object.__setattr__(self, "p_x1_given_v1", px1)
        object.__setattr__(self, "p_x2_given_v2", px2)
        if self.kind not in ("inner", "outer"):
            raise ValidationError(f"chain kind must be inner or outer, got {self.kind!r}")
        if pv.shape[0] != len(self.p_u):
            raise ValidationError("p(v1,v2|u) must have one slice per u symbol")
        if px1.shape[0] != pv.shape[1] or px2.shape[0] != pv.shape[2]:
            raise ValidationError("p(x|v) rows must match the v alphabets")
        if max(pv.shape) > MAX_AUX_ALPHABET:
            raise ValidationError(
                f"auxiliary alphabets (u, v1, v2) = {pv.shape} exceed {MAX_AUX_ALPHABET} symbols"
            )
        check_distribution(pv, "p(v1,v2|u)", rows=pv.shape[0])
        check_distribution(px1, "p(x1|v1)", rows=px1.shape[0])
        check_distribution(px2, "p(x2|v2)", rows=px2.shape[0])
        if self.kind == "inner":
            for u in range(pv.shape[0]):
                slice_u = pv[u]
                prod_form = np.outer(slice_u.sum(axis=1), slice_u.sum(axis=0))
                if np.max(np.abs(slice_u - prod_form)) > PRODUCT_TOL:
                    raise ValidationError(
                        f"inner chain slice u={u} is not a product distribution"
                    )

    @classmethod
    def inner(cls, p_u, p_v1_given_u, p_v2_given_u, p_x1_given_v1, p_x2_given_v2):
        """Inner-class chain from per-u product factors."""
        pv1 = float_table(p_v1_given_u, "p(v1|u)", 2)
        pv2 = float_table(p_v2_given_u, "p(v2|u)", 2)
        joint = np.einsum("ua,ub->uab", pv1, pv2)
        return cls(p_u, joint, p_x1_given_v1, p_x2_given_v2, kind="inner")

    @property
    def u_size(self) -> int:
        return len(self.p_u)

    @property
    def v1_size(self) -> int:
        return self.p_v1v2_given_u.shape[1]

    @property
    def v2_size(self) -> int:
        return self.p_v1v2_given_u.shape[2]

    def output_joint(self, ch: DiscreteChannel) -> np.ndarray:
        """p(u, v1, v2, y1, y2) through `ch`, with the channel inputs
        marginalized out."""
        tables = (self.p_u.probs, self.p_v1v2_given_u, self.p_x1_given_v1, self.p_x2_given_v2)
        return _joint5(*(t[None] for t in tables), ch.transition)[0]


# ---------------------------------------------------------------------------
# Chain evaluation, over a block of chains at once
# ---------------------------------------------------------------------------

# The marginals of p(u, v1, v2, y1, y2) whose entropies the information terms
# use, as the joint axes they keep (0 u, 1 v1, 2 v2, 3 y1, 4 y2).  Each entry
# comes after the larger marginals it is summed from.
_SUBSETS = {
    "uv1v2y1": (0, 1, 2, 3),
    "uv1v2y2": (0, 1, 2, 4),
    "uv1v2": (0, 1, 2),
    "uv1y1": (0, 1, 3),
    "uv2y1": (0, 2, 3),
    "v1v2y1": (1, 2, 3),
    "uv1y2": (0, 1, 4),
    "uv2y2": (0, 2, 4),
    "uv1": (0, 1),
    "uv2": (0, 2),
    "uy1": (0, 3),
    "uy2": (0, 4),
    "v1v2": (1, 2),
    "u": (0,),
    "y1": (3,),
    "y2": (4,),
}


def _joint5(p_u, p_v1v2, p_x1, p_x2, transition) -> np.ndarray:
    """p(u, v1, v2, y1, y2) per chain, with the channel inputs summed out.
    Every table but the transition has a leading chain axis."""
    p_y_v1x2 = (p_x1[:, :, :, None, None, None] * transition).sum(axis=2)
    p_y_v = (p_x2[:, None, :, :, None, None] * p_y_v1x2[:, :, None]).sum(axis=3)
    return p_u[:, :, None, None, None, None] * p_v1v2[..., None, None] * p_y_v[:, None]


def _entropies(joint: np.ndarray) -> dict:
    """Entropy in bits of every marginal in _SUBSETS, one value per chain.
    `joint` has axes (chain, u, v1, v2, y1, y2).  Each marginal is summed out
    of the smallest one already built that contains it, one axis at a time."""
    tables = {(0, 1, 2, 3, 4): joint}
    h = {}
    for name, keep in _SUBSETS.items():
        source = min((k for k in tables if set(keep) <= set(k)), key=len)
        table = tables[source]
        for pos in reversed([i for i, axis in enumerate(source) if axis not in keep]):
            table = table.sum(axis=1 + pos)
        tables[keep] = table
        h[name] = -xlogy(table, table).reshape(len(table), -1).sum(axis=1) / _LN2
    return h


def _information(h: dict) -> dict:
    """The conditional mutual informations (bits) from the marginal
    entropies; works per chain or on arrays over a block of chains."""
    return {
        "I(U;Y1)": h["u"] + h["y1"] - h["uy1"],
        "I(U;Y2)": h["u"] + h["y2"] - h["uy2"],
        "I(V1;Y1|U)": h["uv1"] + h["uy1"] - h["uv1y1"] - h["u"],
        "I(V2;Y1|U)": h["uv2"] + h["uy1"] - h["uv2y1"] - h["u"],
        "I(V1;Y2|U)": h["uv1"] + h["uy2"] - h["uv1y2"] - h["u"],
        "I(V2;Y2|U)": h["uv2"] + h["uy2"] - h["uv2y2"] - h["u"],
        "I(V1;Y1|V2,U)": h["uv1v2"] + h["uv2y1"] - h["uv1v2y1"] - h["uv2"],
        "I(V2;Y1|V1,U)": h["uv1v2"] + h["uv1y1"] - h["uv1v2y1"] - h["uv1"],
        "I(V1;Y2|V2,U)": h["uv1v2"] + h["uv2y2"] - h["uv1v2y2"] - h["uv2"],
        "I(V2;Y2|V1,U)": h["uv1v2"] + h["uv1y2"] - h["uv1v2y2"] - h["uv1"],
        "I(V1,V2;Y1|U)": h["uv1v2"] + h["uy1"] - h["uv1v2y1"] - h["u"],
        "I(V1,V2;Y2|U)": h["uv1v2"] + h["uy2"] - h["uv1v2y2"] - h["u"],
        "I(V1,V2;Y1)": h["v1v2"] + h["y1"] - h["v1v2y1"],
        "I(U,V1,V2;Y1)": h["uv1v2"] + h["y1"] - h["uv1v2y1"],
    }


def _bounds(mi: dict, kind: str) -> np.ndarray:
    """(b0, b1, b2, b12, b012) per chain, each clamped at zero: differences
    of the chains' information terms."""
    if kind == "dm_inner":
        b0 = mi["I(U;Y2)"]
        b1 = mi["I(V1;Y1|V2,U)"] - mi["I(V1;Y2|U)"]
        b2 = mi["I(V2;Y1|V1,U)"] - mi["I(V2;Y2|U)"]
    else:
        b0 = np.minimum(mi["I(U;Y1)"], mi["I(U;Y2)"])
        b1 = mi["I(V1;Y1|U)"] - mi["I(V1;Y2|U)"]
        b2 = mi["I(V2;Y1|U)"] - mi["I(V2;Y2|U)"]
    b12 = mi["I(V1,V2;Y1|U)"] - mi["I(V1,V2;Y2|U)"]
    b012 = mi["I(V1,V2;Y1)"] - mi["I(V1,V2;Y2|U)"]
    return np.maximum(np.stack([b0, b1, b2, b12, b012], axis=1), 0.0)


def chain_information(aux: AuxiliaryChain, ch: DiscreteChannel) -> dict:
    """All conditional mutual informations (bits) the region inequalities and
    the raw achievability constraint system need, for one chain."""
    mi = _information(_entropies(aux.output_joint(ch)[None]))
    return {name: float(value[0]) for name, value in mi.items()}


def region_bounds(aux: AuxiliaryChain, ch: DiscreteChannel, kind: str) -> np.ndarray:
    """The five right-hand sides (b0, b1, b2, b12, b012), clamped at zero."""
    if kind not in ("dm_inner", "dm_outer"):
        raise ValidationError(f"unknown dm bound kind {kind!r}")
    return _bounds(_information(_entropies(aux.output_joint(ch)[None])), kind)[0]


def inner_corner_triples(aux: AuxiliaryChain, ch: DiscreteChannel) -> list:
    """Vertices of the five-inequality achievable polytope for one
    inner-class chain, intersected with the non-negative orthant."""
    if aux.kind != "inner":
        raise ValidationError("inner region evaluation requires an inner-class chain")
    poly = Polytope3.from_bounds("dm_inner", region_bounds(aux, ch, "dm_inner"))
    return poly.vertex_triples()


def outer_corner_triples(aux: AuxiliaryChain, ch: DiscreteChannel) -> list:
    """Vertices of the converse polytope for one (possibly correlated) chain."""
    poly = Polytope3.from_bounds("dm_outer", region_bounds(aux, ch, "dm_outer"))
    return poly.vertex_triples()


# ---------------------------------------------------------------------------
# Raw achievability constraint system (before eliminating the bin rates)
# ---------------------------------------------------------------------------

RAW_VARS = ("r0", "r1", "r2", "r1p", "r2p")

# The binning scheme's raw system over RAW_VARS, one (coefficients, relation,
# right-hand-side information term) per row; None stands for 0.
_RAW_ROWS = (
    # r1p + r2p pinned to the eavesdropper's conditional rate (slack -> 0)
    ((0, 0, 0, 1, 1), "==", "I(V1,V2;Y2|U)"),
    # reliable decoding at the legitimate receiver / of the common message
    ((1, 0, 0, 0, 0), "<=", "I(U;Y2)"),
    ((0, 1, 0, 1, 0), "<=", "I(V1;Y1|V2,U)"),
    ((0, 0, 1, 0, 1), "<=", "I(V2;Y1|V1,U)"),
    ((0, 1, 1, 1, 1), "<=", "I(V1,V2;Y1|U)"),
    ((1, 1, 1, 1, 1), "<=", "I(U,V1,V2;Y1)"),
    # eavesdropper can resolve the bin indices given the messages
    ((0, 0, 0, 1, 0), "<=", "I(V1;Y2|V2,U)"),
    ((0, 0, 0, 0, 1), "<=", "I(V2;Y2|V1,U)"),
    ((0, 0, 0, 1, 1), "<=", "I(V1,V2;Y2|U)"),
) + tuple((tuple(-float(i == k) for i in range(5)), "<=", None) for k in range(5))
_RAW_TERMS = tuple(dict.fromkeys(term for _, _, term in _RAW_ROWS if term))


def _binning_terms(aux: AuxiliaryChain, ch: DiscreteChannel) -> dict:
    """The information terms of one inner-class chain, arrays of one value."""
    if aux.kind != "inner":
        raise ValidationError("the binning scheme requires an inner-class chain")
    return _information(_entropies(aux.output_joint(ch)[None]))


def achievability_constraint_system(aux: AuxiliaryChain, ch: DiscreteChannel) -> HalfspaceSystem:
    """The raw constraint system of the binning scheme for one inner-class
    chain: the rate-split equality on the bin rates, the decoding constraints
    at the legitimate receiver, the eavesdropper bin-decoding constraints,
    and non-negativity.  Eliminating r1p and r2p from it chain by chain is
    the reference for the table that _fm_table derives once.
    """
    mi = _binning_terms(aux, ch)
    rows = tuple((c, rel, float(mi[t][0]) if t else 0.0) for c, rel, t in _RAW_ROWS)
    return HalfspaceSystem(RAW_VARS, rows)


@cache
def _fm_table():
    """(A, T): the raw system with r1p and r2p eliminated once, for every
    chain, by carrying each right-hand-side term as a variable (the FME-IT
    method of Gattegno, Goldfeld & Permuter 2016).  A chain's projection is
    A r <= T @ terms, with the terms in _RAW_TERMS order."""
    from .geometry import fm_eliminate

    rows = tuple(
        (c + tuple(-float(t == name) for name in _RAW_TERMS), rel, 0.0) for c, rel, t in _RAW_ROWS
    )
    system = HalfspaceSystem(RAW_VARS + _RAW_TERMS, rows)
    A, _ = fm_eliminate(fm_eliminate(system, "r1p"), "r2p").to_arrays()
    return A[:, :3], -A[:, 3:]


def _fm_polytope(mi: dict) -> Polytope3:
    """The table evaluated at one chain's terms, parallel rows merged."""
    A, T = _fm_table()
    return Polytope3(*_prune_pairwise(A, T @ [mi[name][0] for name in _RAW_TERMS]))


def fm_region_polytope(aux: AuxiliaryChain, ch: DiscreteChannel) -> Polytope3:
    """The raw constraint system projected onto (r0, r1, r2), both bin rates
    eliminated by Fourier-Motzkin."""
    return _fm_polytope(_binning_terms(aux, ch))


def random_inner_chain(
    ch: DiscreteChannel,
    rng: np.random.Generator,
    u_size: int = 2,
    v1_size: int = 2,
    v2_size: int = 2,
) -> AuxiliaryChain:
    """A random inner-class chain with flat-Dirichlet factors, for seeded
    equivalence suites."""

    def rows(n, k):
        return rng.dirichlet(np.ones(k), size=n)

    return AuxiliaryChain.inner(
        FiniteDistribution(rng.dirichlet(np.ones(u_size))),
        rows(u_size, v1_size),
        rows(u_size, v2_size),
        rows(v1_size, ch.x1_size),
        rows(v2_size, ch.x2_size),
    )


def fm_matches_direct(aux: AuxiliaryChain, ch: DiscreteChannel, tol: float = 1e-9) -> bool:
    """Mutual vertex containment of the Fourier-Motzkin projection and the
    direct five-inequality polytope for one inner-class chain."""
    mi = _binning_terms(aux, ch)
    direct = Polytope3.from_bounds("dm_inner", _bounds(mi, "dm_inner")[0])
    projected = _fm_polytope(mi)
    return all(projected.contains_point(v, tol) for v in direct.vertices()) and all(
        direct.contains_point(v, tol) for v in projected.vertices()
    )


# ---------------------------------------------------------------------------
# Grid sweeps
# ---------------------------------------------------------------------------


def simplex_grid(cells: int, resolution: int) -> np.ndarray:
    """All probability vectors over `cells` whose entries are multiples of
    1/(resolution-1); resolution 1 yields just the uniform vector."""
    if resolution < 1:
        raise ValidationError("resolution must be >= 1")
    if resolution == 1:
        return np.full((1, cells), 1.0 / cells)
    steps = resolution - 1
    rows = [
        c + (steps - sum(c),)
        for c in product(range(steps + 1), repeat=cells - 1)
        if sum(c) <= steps
    ]
    return np.array(rows, dtype=float) / steps


@dataclass(frozen=True)
class GridSpec:
    """Deterministic enumeration grid over auxiliary chains."""

    u_size: int = 2
    v1_size: int = 2
    v2_size: int = 2
    resolution: int = 3
    max_chains: int = MAX_CHAINS

    def __post_init__(self):
        for name in ("u_size", "v1_size", "v2_size"):
            v = getattr(self, name)
            if not 1 <= v <= MAX_AUX_ALPHABET:
                raise ValidationError(f"{name}={v} outside 1..{MAX_AUX_ALPHABET}")
        if self.resolution < 1:
            raise ValidationError("resolution must be >= 1")
        if not 1 <= self.max_chains <= MAX_CHAINS:
            raise ValidationError(f"max_chains={self.max_chains} outside 1..{MAX_CHAINS}")


def _block_cells(grid: GridSpec, ch: DiscreteChannel, sweep_class: str) -> list:
    """The number of cells of each per-parameter distribution of a chain."""
    if sweep_class == "inner":
        v_cells = [grid.v1_size] * grid.u_size + [grid.v2_size] * grid.u_size
    else:
        v_cells = [grid.v1_size * grid.v2_size] * grid.u_size
    return [grid.u_size, *v_cells, *[ch.x1_size] * grid.v1_size, *[ch.x2_size] * grid.v2_size]


def _chain_blocks(grid: GridSpec, ch: DiscreteChannel, sweep_class: str):
    """Per-parameter option tables; a chain is one choice from every block."""
    cells = _block_cells(grid, ch, sweep_class)
    tables = {c: simplex_grid(c, grid.resolution) for c in set(cells)}
    return [tables[c] for c in cells]


def chain_count(grid: GridSpec, ch: DiscreteChannel, sweep_class: str) -> int:
    """Grid chains, counted without building a table: simplex_grid(c, k)
    has comb(k - 1 + c - 1, c - 1) rows."""
    steps = grid.resolution - 1
    return math.prod(math.comb(steps + c - 1, c - 1) for c in _block_cells(grid, ch, sweep_class))


def _chain_tables(blocks, grid: GridSpec, sweep_class: str, index: np.ndarray):
    """(p_u, p_v1v2, p_x1, p_x2) of the grid chains at `index`, an array of
    chain indices, each table with a leading chain axis.  An index is a
    mixed-radix number whose last digit picks from the last block."""
    digits = []
    for b in reversed(blocks):
        index, d = np.divmod(index, len(b))
        digits.append(d)
    rows = iter([b[d] for b, d in zip(blocks, reversed(digits))])

    def take(count):
        return np.stack([next(rows) for _ in range(count)], axis=1)

    p_u = next(rows)
    if sweep_class == "inner":
        pv1, pv2 = take(grid.u_size), take(grid.u_size)
        p_v1v2 = pv1[:, :, :, None] * pv2[:, :, None, :]
    else:
        p_v1v2 = take(grid.u_size).reshape(-1, grid.u_size, grid.v1_size, grid.v2_size)
    return p_u, p_v1v2, take(grid.v1_size), take(grid.v2_size)


def chain_at(grid: GridSpec, ch: DiscreteChannel, sweep_class: str, index: int) -> AuxiliaryChain:
    """Materialize grid chain `index` as an AuxiliaryChain."""
    blocks = _chain_blocks(grid, ch, sweep_class)
    tables = _chain_tables(blocks, grid, sweep_class, np.array([index]))
    p_u, p_v1v2, px1, px2 = (t[0] for t in tables)
    return AuxiliaryChain(
        FiniteDistribution(p_u), p_v1v2, px1, px2,
        kind="inner" if sweep_class == "inner" else "outer",
    )


# Cells in the largest table one block of chains builds; about 1 MB.
_BLOCK_CELLS = 1 << 17


def _block_chains(grid: GridSpec, transition: np.ndarray) -> int:
    """Chains per evaluation block.  Per chain, the largest table is one of
    the x1 and x2 products _joint5 sums over, or the joint itself."""
    x1, x2, y1, y2 = transition.shape
    largest = max(x1 * x2, grid.v2_size * x2, grid.u_size * grid.v2_size)
    return max(1, _BLOCK_CELLS // (largest * grid.v1_size * y1 * y2))


def _grid_bounds(ch: DiscreteChannel, grid: GridSpec, sweep_class: str, kind: str, total: int):
    """Bounds of all `total` grid chains, evaluated a fixed-size block at a time."""
    blocks = _chain_blocks(grid, ch, sweep_class)
    step = _block_chains(grid, ch.transition)
    parts = []
    for first in range(0, total, step):
        tables = _chain_tables(blocks, grid, sweep_class, np.arange(first, min(first + step, total)))
        parts.append(_bounds(_information(_entropies(_joint5(*tables, ch.transition))), kind))
    return np.concatenate(parts)


def default_workers() -> int:
    """Kept for the benchmark harness in perfbench/, which records this value
    in its manifest and refuses to run when it exceeds the CPU count; the
    package never calls it.  A sweep always runs in one process, so this is
    1, unless SECRECY_REGIONS_THREADS is set: that value is still parsed and
    returned so the harness's guard keeps working, and it affects no sweep."""
    env = os.environ.get("SECRECY_REGIONS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValidationError(f"SECRECY_REGIONS_THREADS={env!r} is not an integer")
    return 1


def sweep_region(ch: DiscreteChannel, sweep_class: str, grid: GridSpec) -> RateRegion:
    """Sweep every grid chain, collect all corner triples, and return the
    Pareto frontier with chain-index provenance.  Deterministic given the
    grid; the chains are evaluated in this process, a block at a time.
    """
    if sweep_class not in ("inner", "outer"):
        raise ValidationError(f"sweep class must be inner or outer, got {sweep_class!r}")
    kind = "dm_inner" if sweep_class == "inner" else "dm_outer"
    total = chain_count(grid, ch, sweep_class)
    if total > grid.max_chains:
        raise CapExceededError(
            f"grid enumerates {total} chains, above the cap of {grid.max_chains}"
        )
    bounds = _grid_bounds(ch, grid, sweep_class, kind, total)

    A = CONSTRAINT_PATTERNS[kind]
    acc = FrontierAccumulator(record_width=1)
    chunk = 8192
    for start in range(0, total, chunk):
        rows = bounds[start : start + chunk]
        B = np.hstack([rows, np.zeros((len(rows), 3))])
        pts, owner = batch_vertices(A, B)
        acc.add(pts, (start + owner)[:, None].astype(float))
    return acc.finish(kind, bounds)
