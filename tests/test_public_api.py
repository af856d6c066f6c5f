"""The package's public names, and a guard against top-level code in src/
that only the tests call."""

import ast
from collections import Counter
from pathlib import Path

import secrecy_regions

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "secrecy_regions"

PUBLIC = {
    "AuxiliaryChain", "CapExceededError", "CodeConfig", "Codebook", "DiscreteChannel",
    "FiniteDistribution", "GaussianScenario", "GridSpec", "HalfspaceSystem",
    "JointDistribution", "Polytope3", "R0_RHO_COEFF_AS_PRINTED", "R0_RHO_COEFF_DERIVATION",
    "RateRegion", "ScenarioFile", "SimulationSummary", "UnboundedPolytopeError",
    "ValidationError", "achievability_constraint_system", "assemble_joint", "capacity_fn",
    "chain_at", "chain_count", "chain_information", "contains", "decode_rx1", "decode_rx2",
    "encode", "entropy_bits", "enumerate_vertices", "fm_eliminate", "fm_matches_direct",
    "fm_region_polytope", "gaussian_bounds", "generate_codebook", "mutual_information",
    "pareto_frontier", "posterior_w1w2", "project", "region_bounds", "run_simulation",
    "sweep_gaussian", "sweep_region", "transmit",
}


def test_all_is_the_pinned_public_surface():
    assert sorted(secrecy_regions.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        getattr(secrecy_regions, name)


def _references(node) -> set:
    """Every name loaded, attribute read and string constant under `node`
    (perfbench/ names the attributes it wraps as strings)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _statements(paths) -> list:
    return [node for p in paths for node in ast.parse(p.read_text(encoding="utf-8")).body]


def _registered(node) -> bool:
    """A click command or group: its decorator registers it, so no caller
    names it."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def test_every_top_level_definition_has_a_caller_outside_the_tests():
    # __init__.py only re-exports; its __all__ is pinned above
    package = _statements(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    statements = package + _statements(sorted((ROOT / "perfbench").glob("*.py")))
    refs = [_references(node) for node in statements]
    count = Counter(name for r in refs for name in r)
    unused = [
        node.name
        for node, r in zip(package, refs)  # the package's statements come first
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and count[node.name] == (node.name in r)  # named only inside itself, if at all
        and node.name not in secrecy_regions.__all__
        and not _registered(node)
    ]
    assert unused == []
