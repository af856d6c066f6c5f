"""Command line front end: runs parameter sweeps, simulator batches, and
projection-equivalence checks, and writes plot-ready CSV files plus JSON
summaries.

Exit codes: 0 success, 1 validation failure, 2 runtime cap exceeded.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .binning import CodeConfig, check_simulation, run_simulation
from .dm import (
    AuxiliaryChain, GridSpec, _block_chains, fm_matches_direct, random_inner_chain, sweep_region
)
from .errors import CapExceededError, ValidationError, check_choice, check_integer
from .gaussian import GAUSSIAN_KINDS, GaussianScenario, sweep_gaussian
from .geometry import GEOM_TOL, RateRegion, project
from .info import DiscreteChannel, FiniteDistribution
from .scenario import ScenarioFile

REGION_COLUMNS = ("bound_kind", "r0", "r1", "r2", "beta1", "beta2", "rho")
SIM_COLUMNS = ("n", "trials", "pe1", "pe2", "equivocation_bits_per_use", "secrecy_gap")
MAX_FM_CHAINS = 100_000


def _fmt(x: float) -> str:
    """One number as text: 10 significant digits, empty for NaN."""
    return "" if x != x else "%.10g" % x


def _fmt_column(values: np.ndarray) -> list:
    """_fmt of every value of a float64 array, formatted once per distinct
    bit pattern: np.unique on the int64 view keeps -0.0 apart from 0.0, and
    every NaN bit pattern gives the same empty cell."""
    bits, inverse = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array([_fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _round10(x: float) -> float:
    return float("%.10g" % x)


def _write_csv(path, header, blocks) -> None:
    """Write the header and each block's lines; the only code that formats
    CSV cells.  A block is (kind, columns): columns holds one numeric array
    per CSV column, equal in length, each formatted by _fmt_column, and
    kind, unless None, is the first cell of each line."""
    lines = [",".join(header)]
    for kind, columns in blocks:
        cells = [_fmt_column(c) for c in columns]
        if kind is not None:
            cells.insert(0, [kind] * len(cells[0]))
        lines += map(",".join, zip(*cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _region_rows(region: RateRegion) -> tuple:
    """The CSV block of a swept frontier; beta/rho cells are empty when the
    sweep has no such parameter (discrete-memoryless regions carry a chain
    index instead, which the CSV omits)."""
    gaussian = region.kind in GAUSSIAN_KINDS
    params = region.records if gaussian else np.full((len(region.points), 3), np.nan)
    return region.kind, np.vstack([region.points.T, params.T])


def _projected_rows(region: RateRegion) -> tuple:
    """The CSV block of a swept frontier projected onto the (r1, r2) plane;
    r0 and the parameters left empty."""
    points2d = project(region.points, "r0")
    columns = np.full((6, len(points2d)), np.nan)
    columns[1:3] = points2d.T
    return region.kind, columns


def _region_summary(region: RateRegion) -> dict:
    return {
        "points": len(region.points),
        "max_r0": _round10(region.max_common_rate()),
        "max_r1_plus_r2": _round10(region.max_sum_rate()),
    }


# ---------------------------------------------------------------------------
# Scenario execution
# ---------------------------------------------------------------------------


def _write_region(sf: ScenarioFile, region: RateRegion) -> list:
    """The scenario's region CSV and, when asked for, its JSON summary."""
    written = [sf.data["output"]]
    _write_csv(written[0], REGION_COLUMNS, [_region_rows(region)])
    if "summary" in sf.data:
        _write_json(sf.data["summary"], {region.kind: _region_summary(region)})
        written.append(sf.data["summary"])
    return written


def _run_gaussian(sf: ScenarioFile) -> list:
    d = sf.data
    kind = {"inner": "g_inner", "outer": "g_outer", "cmac": "cmac"}[d["bound"]]
    # sweep_gaussian alone sets the defaults of the keys a file leaves out
    options = {key: d[key] for key in ("resolution", "r0_rho_coeff") if key in d}
    region = sweep_gaussian(GaussianScenario(**d["scenario"]), kind, **options)
    return _write_region(sf, region)


def _run_dm(sf: ScenarioFile) -> list:
    grid = GridSpec(**sf.data.get("grid", {}))
    region = sweep_region(DiscreteChannel(sf.data["channel"]), sf.data["bound"], grid)
    return _write_region(sf, region)


def _run_simulate(sf: ScenarioFile) -> list:
    d, a = sf.data, sf.data["aux"]
    trials = d["trials"]
    aux = AuxiliaryChain.inner(
        FiniteDistribution(a["p_u"]),
        a["p_v1_given_u"],
        a["p_v2_given_u"],
        a["p_x1_given_v1"],
        a["p_x2_given_v2"],
    )
    rates = {"r0": 0.0, "r1": 0.0, "r2": 0.0, "r1p": 0.0, "r2p": 0.0}
    # the code at its own blocklength n, which is checked even where blocklengths replaces it
    code = CodeConfig(aux=aux, channel=DiscreteChannel(d["channel"]), **{**rates, **d["code"]})
    configs = [replace(code, n=n) for n in d.get("blocklengths", [code.n])]
    for cfg in configs:  # refuse the whole scenario before its first blocklength runs
        check_simulation(cfg, trials)
    rows = []
    for cfg in configs:
        s = run_simulation(cfg, trials)
        rows.append((s.n, s.trials, s.pe1, s.pe2, s.equivocation_bits_per_use, s.secrecy_gap))
    _write_csv(d["output"], SIM_COLUMNS, [(None, np.array(rows, float).T)])
    return [d["output"]]


def _run_fm_check(sf: ScenarioFile) -> list:
    chains, seed = sf.data["chains"], sf.data.get("seed", 0)
    check_integer(chains, "chains", 1)
    check_integer(seed, "seed", 0)
    if chains > MAX_FM_CHAINS:
        raise CapExceededError(f"{chains} chains, above the cap of {MAX_FM_CHAINS}")
    ch = DiscreteChannel(sf.data["channel"])
    rng = np.random.default_rng(seed)
    step = _block_chains((2, 2, 2), ch.transition)  # random_inner_chain's U, V1 and V2
    verdicts = []
    for first in range(0, chains, step):
        block = [random_inner_chain(ch, rng) for _ in range(min(step, chains - first))]
        verdicts += fm_matches_direct(block, ch)
    report = [{"chain": i, "equal": v == "equal", "verdict": v} for i, v in enumerate(verdicts)]
    payload = {"chains": len(report), "all_equal": all(r["equal"] for r in report), "results": report}
    _write_json(sf.data["output"], payload)
    return [sf.data["output"]]


_RUNNERS = {
    "gaussian": _run_gaussian,
    "dm": _run_dm,
    "simulate": _run_simulate,
    "fm-check": _run_fm_check,
}


def _check_targets(targets: dict, source=None) -> None:
    """Refuse, before any sweep runs or anything is written, a summary that
    is also the output file, and an output or summary path of targets (a
    scenario's data, or a figure's two files) that is the scenario file
    source, names a directory or whose directory does not exist."""
    paths = {key: os.path.realpath(targets[key]) for key in ("output", "summary") if key in targets}
    if paths.get("summary") == paths["output"]:
        raise ValidationError(f"summary: {targets['summary']!r} is also the output file")
    for key, path in paths.items():
        if source is not None and path == os.path.realpath(source):
            raise ValidationError(f"{key}: {targets[key]!r} is the scenario file itself")
        if os.path.isdir(path):  # "" is the working directory
            raise ValidationError(f"{key}: {targets[key]!r} is a directory")
        if not os.path.isdir(os.path.dirname(path)):
            raise ValidationError(f"{key}: the directory of {targets[key]!r} does not exist")


def run_scenario(sf: ScenarioFile, source=None) -> list:
    """Dispatch a parsed scenario, read from the file source if any, to its
    module once _check_targets passes its paths; returns the written paths."""
    _check_targets(sf.data, source)
    return _RUNNERS[sf.kind](sf)


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

# which -> (scenario, the two kinds swept, whether the CSV is projected onto (r1, r2))
_FIGURES = {
    "fig2": (GaussianScenario(1.0, 1.0, 0.1, 0.3), ("g_inner", "g_outer"), False),
    "fig3": (GaussianScenario(1.0, 1.0, 0.1, 0.3), ("g_inner", "cmac"), True),
    "fig4": (GaussianScenario(1.0, 1.0, 0.1, 0.6), ("g_inner", "cmac"), False),
}


def run_figure(which: str, out_dir, resolution: int = 101, outer_resolution: int = 51) -> list:
    """Emit the plot data for one region-comparison figure.

    fig2: full 3-D achievable and converse frontiers at noise pair (.1, .3).
    fig3: the same scenario projected onto the (r1, r2) plane, with the
          no-secrecy compound-MAC region for comparison.
    fig4: achievable region versus compound-MAC at the noisier eavesdropper
          setting (.1, .6), where secrecy enlarges the sum rate.

    out_dir is created if missing; then _check_targets refuses, before any
    sweep, a <which>.csv or <which>_summary.json in it that is a directory.
    """
    check_choice(which, _FIGURES, "figure")
    s, kinds, projected = _FIGURES[which]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = {"output": str(out_dir / f"{which}.csv"), "summary": str(out_dir / f"{which}_summary.json")}
    _check_targets(targets)
    regions = [sweep_gaussian(s, k, outer_resolution if k == "g_outer" else resolution) for k in kinds]
    rows = _projected_rows if projected else _region_rows
    _write_csv(targets["output"], REGION_COLUMNS, [rows(r) for r in regions])
    summary = {r.kind: _region_summary(r) for r in regions}
    if "cmac" in kinds:
        inner_sum, cmac_sum = (r.max_sum_rate() for r in regions)
        summary["inner_max_r1_plus_r2"] = _round10(inner_sum)
        summary["cmac_max_r1_plus_r2"] = _round10(cmac_sum)
        summary["inner_exceeds_cmac"] = bool(inner_sum > cmac_sum + GEOM_TOL)
    _write_json(targets["summary"], summary)
    return list(targets.values())


# ---------------------------------------------------------------------------
# Click commands
# ---------------------------------------------------------------------------


@click.group()
def cli():
    """Secrecy rate region sweeps, simulations, and figure data."""


def _sweep_default(name: str) -> str:
    """--help's note of a sweep_gaussian default: it alone owns them, as an
    option not given stays out of the scenario."""
    return f"[default: {inspect.signature(sweep_gaussian).parameters[name].default}]"


def _gaussian_options(fn):
    for opt in reversed(
        [
            click.option("--p1", type=float, required=True, help="transmit power P1"),
            click.option("--p2", type=float, required=True, help="transmit power P2"),
            click.option("--sigma1-sq", type=float, required=True, help="receiver 1 noise variance"),
            click.option("--sigma2-sq", type=float, required=True, help="receiver 2 noise variance"),
            click.option("--resolution", type=int, help=_sweep_default("resolution")),
            click.option("--output", type=click.Path(), required=True, help="CSV output path"),
            click.option("--summary", type=click.Path(), default=None, help="JSON summary path"),
        ]
    ):
        fn = opt(fn)
    return fn


def _gaussian_command(bound, p1, p2, sigma1_sq, sigma2_sq, output, **optional):
    data = {
        "scenario": {"p1": p1, "p2": p2, "sigma1_sq": sigma1_sq, "sigma2_sq": sigma2_sq},
        "bound": bound,
        "output": output,
        **{key: value for key, value in optional.items() if value is not None},
    }
    for path in run_scenario(ScenarioFile("gaussian", data)):
        click.echo(path)


@cli.command("gaussian-inner")
@_gaussian_options
def gaussian_inner(**kw):
    """Sweep the Gaussian achievable region over the power splits."""
    _gaussian_command("inner", **kw)


@cli.command("gaussian-outer")
@_gaussian_options
@click.option(
    "--r0-rho-coeff",
    type=float,
    help="coefficient on the correlation term in the common-rate bound  "
    + _sweep_default("r0_rho_coeff"),
)
def gaussian_outer(r0_rho_coeff, **kw):
    """Sweep the Gaussian converse region over splits and correlation."""
    _gaussian_command("outer", r0_rho_coeff=r0_rho_coeff, **kw)


@cli.command("cmac")
@_gaussian_options
def cmac(**kw):
    """Sweep the no-secrecy compound-MAC capacity region."""
    _gaussian_command("cmac", **kw)


@cli.command("figure")
@click.argument("which", type=click.Choice(["fig2", "fig3", "fig4"]))
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def figure(which, out_dir):
    """Emit the CSV + JSON data behind one region-comparison figure."""
    for written in run_figure(which, out_dir):
        click.echo(written)


@cli.command("run")
@click.argument("path", type=click.Path(exists=True))
def run(path):
    """Execute any scenario file, dispatching on its kind."""
    for written in run_scenario(ScenarioFile.load(path), path):
        click.echo(written)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except CapExceededError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ValidationError, click.Abort, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
