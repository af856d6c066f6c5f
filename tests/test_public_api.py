"""The package's public names, and a guard against functions, classes and
methods in src/ that only the tests call."""

import ast
from collections import Counter
from pathlib import Path

import secrecy_regions

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "secrecy_regions"

PUBLIC = {
    "AuxiliaryChain", "CapExceededError", "CodeConfig", "Codebook", "DiscreteChannel",
    "FiniteDistribution", "GaussianScenario", "GridSpec",
    "R0_RHO_COEFF_AS_PRINTED", "R0_RHO_COEFF_DERIVATION", "RateRegion", "ScenarioFile",
    "SimulationSummary", "ValidationError",
    "achievability_constraint_system", "batch_vertices", "capacity_fn",
    "chain_at", "chain_count", "chain_information", "contains", "decode_rx1", "decode_rx2",
    "encode", "entropy_bits", "fm_eliminate", "fm_matches_direct",
    "fm_region_polytope", "gaussian_bounds", "generate_codebook",
    "pareto_frontier", "posterior_w1w2", "project", "region_bounds", "run_simulation",
    "sweep_gaussian", "sweep_region", "transmit",
}


def test_all_is_the_pinned_public_surface():
    assert len(PUBLIC) == 38
    assert sorted(secrecy_regions.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        getattr(secrecy_regions, name)


def _named_in_src(tools) -> set:
    """(file, top-level statement, name) for each of the names in tools that
    src/ loads, reads as an attribute or imports.  An import counts as a use
    of every name in its dotted path; a statement without a name is given
    by its type."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", type(top).__name__)
            for node in ast.walk(top):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    dotted = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                    names = {part for d in dotted for part in d.split(".")}
                else:
                    names = {getattr(node, "id", None), getattr(node, "attr", None)}
                found |= {(path.name, where, name) for name in names & tools}
    return found


def test_vertex_enumeration_lives_only_in_batch_vertices():
    """np.linalg and itertools.combinations, the tools of vertex enumeration,
    appear in src/ only inside geometry.batch_vertices, apart from the import
    that brings combinations in: a second enumerator cannot grow back
    unnoticed."""
    assert _named_in_src({"linalg", "combinations"}) == {
        ("geometry.py", "ImportFrom", "combinations"),
        ("geometry.py", "batch_vertices", "combinations"),
        ("geometry.py", "batch_vertices", "linalg"),
    }


def test_the_orthant_is_added_only_in_batch_vertices():
    """np.eye, which writes the r >= 0 rows, is named in src/ only inside
    geometry.batch_vertices, and np.hstack, which pads bounds with their
    zero right-hand sides, only there and in dm._fm_table: zero padding
    cannot grow back at a call site unnoticed."""
    assert _named_in_src({"eye", "hstack"}) == {
        ("geometry.py", "batch_vertices", "eye"),
        ("geometry.py", "batch_vertices", "hstack"),
        ("dm.py", "_fm_table", "hstack"),
    }


def test_the_2d_staircase_lives_only_in_maxima_2d_and_covered_2d():
    """searchsorted and np.maximum.accumulate, the tools of a 2-D maxima
    staircase, appear in src/ only inside geometry._maxima_2d (which builds
    one), _covered_2d (which queries one) and _pivot_covered (the linear
    pass before the 3-D skyline): a second staircase cannot grow back
    unnoticed."""
    assert _named_in_src({"searchsorted", "accumulate"}) == {
        ("geometry.py", "_maxima_2d", "accumulate"),
        ("geometry.py", "_covered_2d", "searchsorted"),
        ("geometry.py", "_pivot_covered", "accumulate"),
    }


def test_csv_cells_are_formatted_only_in_write_csv():
    """cli._fmt_column is named in src/ only inside cli._write_csv, and
    cli._fmt only inside _fmt_column: a second path that formats CSV cells
    cannot grow back unnoticed."""
    assert _named_in_src({"_fmt", "_fmt_column"}) == {
        ("cli.py", "_write_csv", "_fmt_column"),
        ("cli.py", "_fmt_column", "_fmt"),
    }


def test_the_filesystem_is_checked_only_in_check_targets():
    """os.path.realpath and isdir are named in src/ only inside
    cli._check_targets: a second owner of the output path rules cannot grow
    back unnoticed."""
    assert _named_in_src({"realpath", "isdir"}) == {
        ("cli.py", "_check_targets", "realpath"),
        ("cli.py", "_check_targets", "isdir"),
    }


def test_yaml_is_read_only_through_the_scenario_loader():
    """yaml.SafeLoader is named in src/ only in scenario._Loader and its two
    hooks: a second scanner or compose step cannot grow back unnoticed."""
    assert _named_in_src({"SafeLoader"}) == {
        ("scenario.py", "_Loader", "SafeLoader"),
        ("scenario.py", "_fetch_checked", "SafeLoader"),
        ("scenario.py", "_unique_mapping", "SafeLoader"),
    }


def test_scenario_imports_only_errors_from_the_package():
    """scenario.py names no module of the package but errors: it checks a
    file's structure, and the cli runners build the library types, so that
    construction cannot move back into scenario.py unnoticed."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} | {"secrecy_regions"}
    assert {found for found in _named_in_src(modules) if found[0] == "scenario.py"} == {
        ("scenario.py", "ImportFrom", "errors"),
    }


def _references(node) -> Counter:
    """How often each name is loaded, attribute read or string constant
    written under `node` (perfbench/ names the attributes it wraps as
    strings)."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
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


def _definitions(package) -> list:
    """Top-level functions and classes outside __all__ that no decorator
    registers, and every method and property that is not a dunder."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in package:
        if isinstance(node, (*functions, ast.ClassDef)):
            if node.name not in secrecy_regions.__all__ and not _registered(node):
                out.append(node)
        if isinstance(node, ast.ClassDef):
            out += [m for m in node.body if isinstance(m, functions)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def test_every_definition_has_a_caller_outside_the_tests():
    """Every occurrence of an unused definition's name lies inside the
    definition itself.  Names are matched as plain strings, so a method that
    shares its name with any other attribute passes: the scan could not
    catch FiniteDistribution.uniform, because perfbench/ calls rng.uniform."""
    # __init__.py only re-exports; its __all__ is pinned above
    package = _statements(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    statements = package + _statements(sorted((ROOT / "perfbench").glob("*.py")))
    total = sum((_references(node) for node in statements), Counter())
    unused = [d.name for d in _definitions(package) if total[d.name] == _references(d)[d.name]]
    assert unused == []
