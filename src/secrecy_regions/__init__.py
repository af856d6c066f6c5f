"""Inner and outer bounds on the secrecy rate region of a two-sender wiretap
channel with a common message, plus a small random-binning simulator.

The public surface: distributions, channels and entropy over dense tables
(`info`), polyhedral rate-region machinery (`geometry`), discrete-memoryless and
Gaussian bound evaluation and sweeps (`dm`: region_bounds and sweep_region;
`gaussian`: gaussian_bounds and sweep_gaussian), the Monte Carlo
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
    region_bounds,
    sweep_region,
)
from .errors import CapExceededError, ValidationError
from .gaussian import (
    R0_RHO_COEFF_AS_PRINTED,
    R0_RHO_COEFF_DERIVATION,
    GaussianScenario,
    capacity_fn,
    gaussian_bounds,
    sweep_gaussian,
)
from .geometry import (
    RateRegion,
    batch_vertices,
    contains,
    fm_eliminate,
    pareto_frontier,
    project,
)
from .info import DiscreteChannel, FiniteDistribution, entropy_bits
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
    "R0_RHO_COEFF_AS_PRINTED",
    "R0_RHO_COEFF_DERIVATION",
    "RateRegion",
    "ScenarioFile",
    "SimulationSummary",
    "ValidationError",
    "achievability_constraint_system",
    "batch_vertices",
    "capacity_fn",
    "chain_at",
    "chain_count",
    "chain_information",
    "contains",
    "decode_rx1",
    "decode_rx2",
    "encode",
    "entropy_bits",
    "fm_eliminate",
    "fm_matches_direct",
    "fm_region_polytope",
    "gaussian_bounds",
    "generate_codebook",
    "pareto_frontier",
    "posterior_w1w2",
    "project",
    "region_bounds",
    "run_simulation",
    "sweep_gaussian",
    "sweep_region",
    "transmit",
]
