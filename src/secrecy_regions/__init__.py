"""Inner and outer bounds on the secrecy rate region of a two-sender wiretap
channel with a common message, plus a small random-binning simulator.

The public surface: exact information measures over dense tables (`info`),
polyhedral rate-region machinery (`geometry`), discrete-memoryless and
Gaussian bound evaluation and sweeps (`dm`, `gaussian`), the Monte Carlo
coding-scheme simulator (`binning`), and scenario/CLI plumbing.
"""

from .binning import (
    CodeConfig,
    Codebook,
    SimulationSummary,
    decode_rx1,
    decode_rx2,
    encode,
    generate_codebook,
    posterior_w1w2,
    run_simulation,
    transmit,
)
from .dm import (
    AuxiliaryChain,
    GridSpec,
    achievability_constraint_system,
    chain_at,
    chain_count,
    chain_information,
    fm_matches_direct,
    fm_region_polytope,
    inner_corner_triples,
    outer_corner_triples,
    region_bounds,
    sweep_region,
)
from .errors import CapExceededError, UnboundedPolytopeError, ValidationError
from .gaussian import (
    R0_RHO_COEFF_AS_PRINTED,
    R0_RHO_COEFF_DERIVATION,
    GaussianScenario,
    SweepPoint,
    capacity_fn,
    cmac_capacity_at,
    gaussian_inner_at,
    gaussian_outer_at,
    sweep_gaussian,
)
from .geometry import (
    HalfspaceSystem,
    Polytope3,
    RateRegion,
    RateTriple,
    contains,
    enumerate_vertices,
    fm_eliminate,
    pareto_frontier,
    project,
)
from .info import (
    DiscreteChannel,
    FiniteDistribution,
    JointDistribution,
    assemble_joint,
    entropy,
    entropy_bits,
    mutual_information,
)
from .scenario import ScenarioFile

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryChain",
    "CapExceededError",
    "CodeConfig",
    "Codebook",
    "DiscreteChannel",
    "FiniteDistribution",
    "GaussianScenario",
    "GridSpec",
    "HalfspaceSystem",
    "JointDistribution",
    "Polytope3",
    "R0_RHO_COEFF_AS_PRINTED",
    "R0_RHO_COEFF_DERIVATION",
    "RateRegion",
    "RateTriple",
    "ScenarioFile",
    "SimulationSummary",
    "SweepPoint",
    "UnboundedPolytopeError",
    "ValidationError",
    "achievability_constraint_system",
    "assemble_joint",
    "capacity_fn",
    "chain_at",
    "chain_count",
    "chain_information",
    "cmac_capacity_at",
    "contains",
    "decode_rx1",
    "decode_rx2",
    "encode",
    "entropy",
    "entropy_bits",
    "enumerate_vertices",
    "fm_eliminate",
    "fm_matches_direct",
    "fm_region_polytope",
    "gaussian_inner_at",
    "gaussian_outer_at",
    "generate_codebook",
    "inner_corner_triples",
    "mutual_information",
    "outer_corner_triples",
    "pareto_frontier",
    "posterior_w1w2",
    "project",
    "region_bounds",
    "run_simulation",
    "sweep_gaussian",
    "sweep_region",
    "transmit",
]
