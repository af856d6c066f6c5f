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

A sweep evaluates only the V-canonical grid chains (_canonical_index), as
relabelling V1 or V2 leaves a chain's polytope unchanged, and enumerates
only the polytopes that no other evaluated one contains (the skyline of
their tightened bound rows); the region keeps those rows as bound_rows.

Every sum over a short axis (a channel input or a marginalized variable) is
_fold: the axis's slices added left to right with whole-array adds, which is
the order numpy's own sum takes below 8 entries, at a fraction of its cost.
The alphabet caps (MAX_CHANNEL_ALPHABET, MAX_AUX_ALPHABET) keep every such
axis below 8 entries, so the bits are those of ndarray.sum.  The entropy sum
over a marginal's cells stays numpy's pairwise sum.

The Fourier-Motzkin check derives the inner region a second way, from the
binning scheme's raw system over (r0, r1, r2, r1p, r2p).  Its coefficients
do not depend on the chain, so the bin rates are eliminated once per process
with every right-hand side carried as a variable over 8 information terms
(_fm_table, 21 rows); a chain's projection is that table times its terms.
A block of chains is checked at once, with stacked terms, right-hand sides,
kept rows and vertices.  A chain whose projection differs from the direct
polytope is raw_infeasible when the projection is empty: the raw system has
no non-negative solution, while the direct bounds, clamped at zero, still
give a polytope.  Any other difference is a mismatch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache
from itertools import combinations_with_replacement, product

import numpy as np

from .errors import CapExceededError, ValidationError, check_choice, check_integer, checked_array
from .geometry import (
    A_FIVE_BOUNDS,
    CONSTRAINT_PATTERNS,
    GEOM_TOL,
    FrontierAccumulator,
    RateRegion,
    _skyline_mask,
    _tight_five_bounds,
    batch_vertices,
)
from .info import _LN2, DiscreteChannel, FiniteDistribution, check_distribution

MAX_AUX_ALPHABET = 3
MAX_CHAINS = 300_000
PRODUCT_TOL = 1e-12


@dataclass(frozen=True)
class AuxiliaryChain:
    """Factored auxiliary distribution feeding a two-input channel.

    p_v1v2_given_u has shape (|U|, |V1|, |V2|), p_x1_given_v1 (|V1|, |X1|)
    and p_x2_given_v2 (|V2|, |X2|); kind is inner or outer, and for inner
    every u slice must factor as p(v1|u) p(v2|u) exactly.
    """

    p_u: FiniteDistribution
    p_v1v2_given_u: np.ndarray
    p_x1_given_v1: np.ndarray
    p_x2_given_v2: np.ndarray
    kind: str = "outer"

    def __post_init__(self):
        check_choice(self.kind, ("inner", "outer"), "chain kind")
        pv = checked_array(self.p_v1v2_given_u, "p(v1,v2|u)", (len(self.p_u), "|V1|", "|V2|"))
        px1 = checked_array(self.p_x1_given_v1, "p(x1|v1)", (pv.shape[1], "|X1|"))
        px2 = checked_array(self.p_x2_given_v2, "p(x2|v2)", (pv.shape[2], "|X2|"))
        object.__setattr__(self, "p_v1v2_given_u", pv)
        object.__setattr__(self, "p_x1_given_v1", px1)
        object.__setattr__(self, "p_x2_given_v2", px2)
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
        pv1 = checked_array(p_v1_given_u, "p(v1|u)", (len(p_u), "|V1|"))
        pv2 = checked_array(p_v2_given_u, "p(v2|u)", (len(p_u), "|V2|"))
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

    def check_channel(self, ch: DiscreteChannel) -> None:
        """Refuse a channel whose input alphabets are not the columns of
        p(x1|v1) and p(x2|v2)."""
        if self.p_x1_given_v1.shape[1] != ch.x1_size or self.p_x2_given_v2.shape[1] != ch.x2_size:
            raise ValidationError("auxiliary chain input alphabets do not match the channel")

    def output_joint(self, ch: DiscreteChannel) -> np.ndarray:
        """p(u, v1, v2, y1, y2) through `ch`, with the channel inputs
        marginalized out."""
        self.check_channel(ch)
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


def _marginal_plan() -> tuple:
    """(name, keep, source, axes) for each marginal in _SUBSETS order:
    `source` is the smallest marginal built before it that contains it, and
    `axes` are the table axes summed out of it, the last first."""
    built = [(0, 1, 2, 3, 4)]
    plan = []
    for name, keep in _SUBSETS.items():
        source = min((k for k in built if set(keep) <= set(k)), key=len)
        axes = [1 + i for i in reversed(range(len(source))) if source[i] not in keep]
        built.append(keep)
        plan.append((name, keep, source, axes))
    return tuple(plan)


_MARGINAL_PLAN = _marginal_plan()


def _fold(t: np.ndarray, axis: int) -> np.ndarray:
    """t.sum(axis) as ((0.0 + t[..0..]) + t[..1..]) + ..., the slices taken
    by basic indexing.  It starts from numpy's identity 0.0, so a sum of
    -0.0 is 0.0, as numpy makes it."""
    lead = (slice(None),) * axis
    total = t[lead + (0,)] + 0.0
    for k in range(1, t.shape[axis]):
        total += t[lead + (k,)]
    return total


def _joint5(p_u, p_v1v2, p_x1, p_x2, transition) -> np.ndarray:
    """p(u, v1, v2, y1, y2) per chain, with the channel inputs summed out by
    _fold, x1 then x2.  Every table but the transition has a leading chain
    axis."""
    p_y_v1x2 = _fold(p_x1[:, :, :, None, None, None] * transition, 2)
    p_y_v = _fold(p_x2[:, None, :, :, None, None] * p_y_v1x2[:, :, None], 3)
    return p_u[:, :, None, None, None, None] * p_v1v2[..., None, None] * p_y_v[:, None]


def _entropies(joint: np.ndarray) -> dict:
    """Entropy in bits of every marginal in _SUBSETS, one value per chain.
    `joint` has axes (chain, u, v1, v2, y1, y2).  Each marginal is summed out
    of its _MARGINAL_PLAN source one axis at a time, each by _fold.  The sum
    over a marginal's cells (up to 108 of them) stays numpy's pairwise sum."""
    from scipy.special import xlogy

    tables = {(0, 1, 2, 3, 4): joint}
    h = {}
    for name, keep, source, axes in _MARGINAL_PLAN:
        table = tables[source]
        for axis in axes:
            table = _fold(table, axis)
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
    the raw achievability constraint system need, for one chain: the block
    evaluator's terms, each an array over a chain axis of length one."""
    return _information(_entropies(aux.output_joint(ch)[None]))


def _require_inner(aux: AuxiliaryChain) -> None:
    if aux.kind != "inner":
        raise ValidationError("the inner region and the binning scheme need an inner-class chain")


def region_bounds(aux: AuxiliaryChain, ch: DiscreteChannel, kind: str) -> np.ndarray:
    """The five right-hand sides (b0, b1, b2, b12, b012), clamped at zero.
    dm_inner refuses a chain that is not of the inner class."""
    check_choice(kind, ("dm_inner", "dm_outer"), "dm bound kind")
    if kind == "dm_inner":
        _require_inner(aux)
    return _bounds(chain_information(aux, ch), kind)[0]


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


def _raw_arrays():
    """(A, T): _RAW_ROWS as A x <= T @ terms, x over RAW_VARS and the terms in
    _RAW_TERMS order; an equality becomes the row followed by its negation."""
    rows = []
    for coeffs, rel, term in _RAW_ROWS:
        row = np.array(coeffs + tuple(float(term == name) for name in _RAW_TERMS), dtype=float)
        rows += [row, -row] if rel == "==" else [row]
    rows = np.array(rows)
    return rows[:, : len(RAW_VARS)], rows[:, len(RAW_VARS) :]


def achievability_constraint_system(aux: AuxiliaryChain, ch: DiscreteChannel):
    """(A, b), A x <= b over the RAW_VARS columns: the binning scheme's raw
    system for one inner-class chain.  Its rows are the rate-split equality
    on the bin rates (as two opposing rows), the decoding constraints at the
    legitimate receiver, the eavesdropper bin-decoding constraints and
    non-negativity.  Eliminating r1p and r2p from it chain by chain is the
    reference for the table that _fm_table derives once.
    """
    _require_inner(aux)
    A, T = _raw_arrays()
    mi = chain_information(aux, ch)
    return A, T @ [mi[name][0] for name in _RAW_TERMS]


@cache
def _fm_table():
    """(A, T): the raw system with r1p and r2p eliminated once, for every
    chain, by carrying each right-hand-side term as a variable (the FME-IT
    method of Gattegno, Goldfeld & Permuter 2016).  A chain's projection is
    A r <= T @ terms, with the terms in _RAW_TERMS order."""
    from .geometry import fm_eliminate

    A, T = _raw_arrays()
    j = RAW_VARS.index("r1p")  # r2p moves into this column once r1p is gone
    A, b = fm_eliminate(np.hstack([A, -T]), np.zeros(len(A)), j)
    A, _ = fm_eliminate(A, b, j)
    return A[:, :3], -A[:, 3:]


def _fm_block(mi: dict):
    """(A, B, keep): the _fm_table rows, each chain's right-hand sides T @
    terms (a row per chain of mi), and the rows _prune_pairwise keeps of
    each, less those every r >= 0 satisfies (no positive coefficient,
    b >= 0).  A's groups of parallel rows do not depend on the chain: each
    keeps its row of least b / scale, the first of equal ones."""
    A, T = _fm_table()
    B = np.stack([mi[name] for name in _RAW_TERMS], axis=1) @ T.T
    scale = np.abs(A).max(axis=1, initial=0.0)
    keep = (scale < GEOM_TOL) & (B < -GEOM_TOL)
    rows = np.flatnonzero(scale >= GEOM_TOL)
    _, group = np.unique(A[rows] / scale[rows, None], axis=0, return_inverse=True)
    for g in np.unique(group):
        members = rows[group.ravel() == g]
        keep[np.arange(len(B)), members[np.argmin(B[:, members] / scale[members], axis=1)]] = True
    return A, B, keep & ((A > 0).any(axis=1) | (B < 0))


def _block_information(chains, ch: DiscreteChannel) -> dict:
    """The information terms of a non-empty sequence of inner-class chains
    of one shape (u, v1, v2) that match `ch`, on a chain axis, from the
    block evaluator; anything else is refused (ValidationError)."""
    if not isinstance(chains, (list, tuple)) or not chains:
        raise ValidationError("expected an AuxiliaryChain or a non-empty sequence of them")
    for aux in chains:
        if not isinstance(aux, AuxiliaryChain):
            raise ValidationError(f"a chain block holds a {type(aux).__name__}, not a chain")
        _require_inner(aux)
        aux.check_channel(ch)
    if len({aux.p_v1v2_given_u.shape for aux in chains}) > 1:
        raise ValidationError("the chains of a block differ in their (u, v1, v2) alphabets")
    tables = [(a.p_u.probs, a.p_v1v2_given_u, a.p_x1_given_v1, a.p_x2_given_v2) for a in chains]
    return _information(_entropies(_joint5(*map(np.stack, zip(*tables)), ch.transition)))


def fm_region_polytope(aux: AuxiliaryChain, ch: DiscreteChannel):
    """(A, b), the polytope {r >= 0 : A r <= b} over (r0, r1, r2): the raw
    constraint system projected, both bin rates eliminated by Fourier-Motzkin."""
    A, B, keep = _fm_block(_block_information([aux], ch))
    return A[keep[0]], B[0, keep[0]]


def random_inner_chain(ch: DiscreteChannel, rng: np.random.Generator) -> AuxiliaryChain:
    """A random inner-class chain with binary U, V1 and V2 and flat-Dirichlet
    factors, for seeded equivalence suites."""

    def rows(k):
        return rng.dirichlet(np.ones(k), size=2)

    return AuxiliaryChain.inner(
        FiniteDistribution(rng.dirichlet(np.ones(2))),
        rows(2),
        rows(2),
        rows(ch.x1_size),
        rows(ch.x2_size),
    )


def fm_matches_direct(aux: AuxiliaryChain | list, ch: DiscreteChannel) -> str | list:
    """Compare the Fourier-Motzkin projection with the direct five-inequality
    polytope, both in r >= 0, for one inner-class chain `aux`, or for each
    of a sequence of chains of one shape (a list of verdicts, the same as
    one call per chain).  "equal" when each contains the other's maximal
    vertices within GEOM_TOL, which decides containment, as both are
    down-closed in the orthant.  Otherwise "raw_infeasible" when the
    projection is empty, which is exactly when it excludes the origin, since
    none of its rows has a negative rate coefficient: the raw system has no
    solution, and the direct bounds hide that by clamping at zero.  Else
    "mismatch"."""
    single = isinstance(aux, AuxiliaryChain)
    mi = _block_information([aux] if single else aux, ch)
    direct = _bounds(mi, "dm_inner")
    A, B, keep = _fm_block(mi)
    pts, owner = batch_vertices(A_FIVE_BOUNDS, direct)
    outside = ((pts @ A.T > B[owner] + GEOM_TOL) & keep[owner]).any(axis=1)
    equal = np.bincount(owner[outside], minlength=len(B)) == 0
    ids = np.flatnonzero(equal)  # the FM vertices, one call per pattern of kept rows
    patterns, which = np.unique(keep[ids], axis=0, return_inverse=True)
    for p, rows in enumerate(patterns):
        own = ids[which.ravel() == p]
        pts, owner = batch_vertices(A[rows], B[own][:, rows])
        outside = (pts @ A_FIVE_BOUNDS.T > direct[own][owner] + GEOM_TOL).any(axis=1)
        equal[own[owner[outside]]] = False
    holds_origin = ((0.0 <= B + GEOM_TOL) | ~keep).all(axis=1)
    verdicts = np.where(equal, "equal", np.where(holds_origin, "mismatch", "raw_infeasible"))
    return verdicts.tolist()[0] if single else verdicts.tolist()


# ---------------------------------------------------------------------------
# Grid sweeps
# ---------------------------------------------------------------------------


def simplex_grid(cells: int, resolution: int) -> np.ndarray:
    """All probability vectors over `cells` whose entries are multiples of
    1/(resolution-1); resolution 1 (GridSpec's least) yields just the
    uniform vector."""
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
            check_integer(getattr(self, name), name, 1, MAX_AUX_ALPHABET)
        check_integer(self.resolution, "resolution", 1)
        check_integer(self.max_chains, "max_chains", 1, MAX_CHAINS)


def _block_cells(grid: GridSpec, ch: DiscreteChannel, sweep_class: str) -> list:
    """The number of cells of each per-parameter distribution of a chain.
    The one check of `sweep_class`: chain_count, chain_at and sweep_region
    all come through here."""
    check_choice(sweep_class, ("inner", "outer"), "sweep class")
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


def _capped_chain_count(grid: GridSpec, ch: DiscreteChannel, sweep_class: str) -> int:
    """chain_count, refused above grid.max_chains (CapExceededError) before
    any option table is built: each table has at most chain_count rows."""
    total = chain_count(grid, ch, sweep_class)
    if total > grid.max_chains:
        raise CapExceededError(f"grid enumerates {total} chains, above the cap of {grid.max_chains}")
    return total


def _chain_tables(blocks, grid: GridSpec, sweep_class: str, index: np.ndarray):
    """(p_u, p_v1v2, p_x1, p_x2) of the grid chains at `index`, an array of
    chain indices, each table with a leading chain axis.  An index is a
    mixed-radix number whose last digit picks from the last block."""
    digits = np.unravel_index(index, [len(b) for b in blocks])
    rows = iter([b[d] for b, d in zip(blocks, digits)])

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
    """Materialize grid chain `index`, an integer in 0..chain_count - 1, as
    an AuxiliaryChain.  A grid above max_chains is refused
    (CapExceededError) before any table is built, as sweep_region does."""
    check_integer(index, "chain index", 0, _capped_chain_count(grid, ch, sweep_class) - 1)
    blocks = _chain_blocks(grid, ch, sweep_class)
    tables = _chain_tables(blocks, grid, sweep_class, np.array([index]))
    p_u, p_v1v2, px1, px2 = (t[0] for t in tables)
    return AuxiliaryChain(
        FiniteDistribution(p_u), p_v1v2, px1, px2,
        kind="inner" if sweep_class == "inner" else "outer",
    )


# Cells in the largest table one block of chains builds; about 1 MB.
_BLOCK_CELLS = 1 << 17


def _block_chains(sizes, transition: np.ndarray) -> int:
    """Chains per evaluation block, for chains of aux alphabet sizes
    (u, v1, v2).  Per chain, the largest table is one of the x1 and x2
    products _joint5 sums over, or the joint itself."""
    (u, v1, v2), (x1, x2, y1, y2) = sizes, transition.shape
    return max(1, _BLOCK_CELLS // (max(x1 * x2, v2 * x2, u * v2) * v1 * y1 * y2))


def _canonical_index(blocks, grid: GridSpec) -> np.ndarray:
    """The indices of the grid of `blocks` whose p(x1|v1) option digits never
    fall, nor do their p(x2|v2) ones, ascending.  Relabelling V1 permutes
    the v1 cells of p(v1|u) (or of p(v1,v2|u)) with the rows of p(x1|v1) and
    leaves every entropy as it was, and simplex_grid is closed under
    permuting cells: so each grid chain has a twin here, its x1 rows sorted,
    with the same polytope.  The same holds for V2."""
    counts = [len(blocks[-1 - grid.v2_size]), len(blocks[-1])]
    suffix = np.zeros(1, dtype=np.int64)
    for n, size in zip(counts, (grid.v1_size, grid.v2_size)):
        rising = np.array(list(combinations_with_replacement(range(n), size)))
        suffix = (suffix[:, None] * n**size + np.ravel_multi_index(rising.T, (n,) * size)).ravel()
    radix = counts[0] ** grid.v1_size * counts[1] ** grid.v2_size
    heads = math.prod(len(b) for b in blocks[: -grid.v1_size - grid.v2_size])
    return (np.arange(heads)[:, None] * radix + suffix).ravel()


def _grid_bounds(ch: DiscreteChannel, grid: GridSpec, sweep_class: str, kind: str):
    """(index, bounds): the _canonical_index chains of the grid and their
    bounds, one row each, evaluated a fixed-size block at a time."""
    blocks = _chain_blocks(grid, ch, sweep_class)
    index = _canonical_index(blocks, grid)
    step = _block_chains((grid.u_size, grid.v1_size, grid.v2_size), ch.transition)
    parts = []
    for first in range(0, len(index), step):
        tables = _chain_tables(blocks, grid, sweep_class, index[first : first + step])
        parts.append(_bounds(_information(_entropies(_joint5(*tables, ch.transition))), kind))
    return index, np.concatenate(parts)


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
    """The region of every grid chain: the Pareto frontier of the maximal
    vertices of the polytope skyline, with chain-index provenance.  Only
    the _canonical_index chains are evaluated, and only the polytopes that
    no other one contains (_skyline_mask of the _tight_five_bounds rows)
    are enumerated; their rows, in grid order, are the region's bound_rows.
    Deterministic given the grid; the chains are evaluated in this process,
    a block at a time.
    """
    _capped_chain_count(grid, ch, sweep_class)
    kind = "dm_inner" if sweep_class == "inner" else "dm_outer"
    index, bounds = _grid_bounds(ch, grid, sweep_class, kind)
    live = np.flatnonzero(_skyline_mask(_tight_five_bounds(bounds)))

    A = CONSTRAINT_PATTERNS[kind]
    acc = FrontierAccumulator()
    chunk = 8192
    for start in range(0, len(live), chunk):
        rows = live[start : start + chunk]
        pts, owner = batch_vertices(A, bounds[rows])
        acc.add(pts, index[rows[owner]][:, None].astype(float))
    return acc.finish(kind, bounds[live])
