"""Command line front end: runs parameter sweeps, simulator batches, and
projection-equivalence checks, and writes plot-ready CSV files plus JSON
summaries.

Exit codes: 0 success, 1 validation failure, 2 runtime cap exceeded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .binning import check_simulation, run_simulation
from .dm import fm_matches_direct, fm_region_polytope, random_inner_chain, sweep_region
from .errors import CapExceededError, UnboundedPolytopeError, ValidationError
from .gaussian import R0_RHO_COEFF_DERIVATION, GaussianScenario, sweep_gaussian
from .geometry import RateRegion, project
from .scenario import ScenarioFile

REGION_COLUMNS = ("bound_kind", "r0", "r1", "r2", "beta1", "beta2", "rho")
SIM_COLUMNS = ("n", "trials", "pe1", "pe2", "equivocation_bits_per_use", "secrecy_gap")
MAX_FM_CHAINS = 100_000


def _fmt(x) -> str:
    """One number as text: 10 significant digits, empty for missing."""
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return ""
    return "%.10g" % x


def _round10(x: float) -> float:
    return float("%.10g" % x)


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _region_rows(region: RateRegion):
    """CSV rows for a swept frontier; beta/rho cells are empty when the sweep
    has no such parameter (discrete-memoryless regions carry a chain index
    instead, which the CSV omits)."""
    rows = []
    gaussian = region.kind in ("g_inner", "g_outer", "cmac")
    for point, record in zip(region.points, region.records):
        beta1, beta2, rho = (record[0], record[1], record[2]) if gaussian else (None, None, None)
        rows.append((region.kind, point[0], point[1], point[2], beta1, beta2, rho))
    return rows


def _projected_rows(kind: str, points2d):
    """Rows of a frontier projected onto the (r1, r2) plane; r0 left empty."""
    return [(kind, None, p[0], p[1], None, None, None) for p in points2d]


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
    _write_csv(written[0], REGION_COLUMNS, _region_rows(region))
    if "summary" in sf.data:
        _write_json(sf.data["summary"], {region.kind: _region_summary(region)})
        written.append(sf.data["summary"])
    return written


def _run_gaussian(sf: ScenarioFile) -> list:
    kind = {"inner": "g_inner", "outer": "g_outer", "cmac": "cmac"}[sf.data["bound"]]
    region = sweep_gaussian(
        sf.gaussian_scenario(), kind, sf.resolution(), r0_rho_coeff=sf.r0_rho_coeff()
    )
    return _write_region(sf, region)


def _run_dm(sf: ScenarioFile) -> list:
    region = sweep_region(sf.discrete_channel(), sf.data["bound"], sf.grid_spec())
    return _write_region(sf, region)


def _run_simulate(sf: ScenarioFile) -> list:
    trials = sf.data["trials"]
    configs = [sf.code_config(n=n) for n in sf.blocklengths()]
    for cfg in configs:  # refuse the whole scenario before its first blocklength runs
        check_simulation(cfg, trials)
    rows = []
    for cfg in configs:
        s = run_simulation(cfg, trials)
        rows.append((s.n, s.trials, s.pe1, s.pe2, s.equivocation_bits_per_use, s.secrecy_gap))
    _write_csv(sf.data["output"], SIM_COLUMNS, rows)
    return [sf.data["output"]]


def _fm_verdict(equal: bool, aux, ch) -> str:
    """Why a chain is or is not equal.  The projection is empty exactly when
    it excludes the origin, since only its r >= 0 rows have a negative rate
    coefficient; an empty projection is a raw system with no solution, which
    the direct bounds hide by clamping at zero."""
    if equal:
        return "equal"
    empty = not fm_region_polytope(aux, ch).contains_point(np.zeros(3))
    return "raw_infeasible" if empty else "mismatch"


def _run_fm_check(sf: ScenarioFile) -> list:
    if sf.data["chains"] > MAX_FM_CHAINS:
        raise CapExceededError(f"{sf.data['chains']} chains, above the cap of {MAX_FM_CHAINS}")
    ch = sf.discrete_channel()
    rng = np.random.default_rng(sf.data.get("seed", 0))
    report = []
    for i in range(sf.data["chains"]):
        aux = random_inner_chain(ch, rng)
        equal = bool(fm_matches_direct(aux, ch))
        report.append({"chain": i, "equal": equal, "verdict": _fm_verdict(equal, aux, ch)})
    payload = {"chains": len(report), "all_equal": all(r["equal"] for r in report), "results": report}
    _write_json(sf.data["output"], payload)
    return [sf.data["output"]]


_RUNNERS = {
    "gaussian": _run_gaussian,
    "dm": _run_dm,
    "simulate": _run_simulate,
    "fm-check": _run_fm_check,
}


def run_scenario(sf: ScenarioFile) -> list:
    """Dispatch a parsed scenario to its module; returns the written paths."""
    return _RUNNERS[sf.kind](sf)


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

_FIGURE_SCENARIOS = {
    "fig2": GaussianScenario(1.0, 1.0, 0.1, 0.3),
    "fig3": GaussianScenario(1.0, 1.0, 0.1, 0.3),
    "fig4": GaussianScenario(1.0, 1.0, 0.1, 0.6),
}


def run_figure(which: str, out_dir, resolution: int = 101, outer_resolution: int = 51) -> list:
    """Emit the plot data for one region-comparison figure.

    fig2: full 3-D achievable and converse frontiers at noise pair (.1, .3).
    fig3: the same scenario projected onto the (r1, r2) plane, with the
          no-secrecy compound-MAC region for comparison.
    fig4: achievable region versus compound-MAC at the noisier eavesdropper
          setting (.1, .6), where secrecy enlarges the sum rate.
    """
    if which not in _FIGURE_SCENARIOS:
        raise ValidationError(f"unknown figure {which!r}; expected fig2, fig3, or fig4")
    s = _FIGURE_SCENARIOS[which]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{which}.csv"
    json_path = out_dir / f"{which}_summary.json"

    if which == "fig2":
        inner = sweep_gaussian(s, "g_inner", resolution)
        outer = sweep_gaussian(s, "g_outer", outer_resolution)
        _write_csv(csv_path, REGION_COLUMNS, _region_rows(inner) + _region_rows(outer))
        summary = {"g_inner": _region_summary(inner), "g_outer": _region_summary(outer)}
    else:
        inner = sweep_gaussian(s, "g_inner", resolution)
        cmac = sweep_gaussian(s, "cmac", resolution)
        if which == "fig3":
            rows = _projected_rows("g_inner", project(inner.points, "r0"))
            rows += _projected_rows("cmac", project(cmac.points, "r0"))
        else:
            rows = _region_rows(inner) + _region_rows(cmac)
        _write_csv(csv_path, REGION_COLUMNS, rows)
        inner_sum, cmac_sum = inner.max_sum_rate(), cmac.max_sum_rate()
        summary = {
            "g_inner": _region_summary(inner),
            "cmac": _region_summary(cmac),
            "inner_max_r1_plus_r2": _round10(inner_sum),
            "cmac_max_r1_plus_r2": _round10(cmac_sum),
            "inner_exceeds_cmac": bool(inner_sum > cmac_sum + 1e-9),
        }
    _write_json(json_path, summary)
    return [str(csv_path), str(json_path)]


# ---------------------------------------------------------------------------
# Click commands
# ---------------------------------------------------------------------------


@click.group()
def cli():
    """Secrecy rate region sweeps, simulations, and figure data."""


def _gaussian_options(fn):
    for opt in reversed(
        [
            click.option("--p1", type=float, required=True, help="transmit power P1"),
            click.option("--p2", type=float, required=True, help="transmit power P2"),
            click.option("--sigma1-sq", type=float, required=True, help="receiver 1 noise variance"),
            click.option("--sigma2-sq", type=float, required=True, help="receiver 2 noise variance"),
            click.option("--resolution", type=int, default=101, show_default=True),
            click.option("--output", type=click.Path(), required=True, help="CSV output path"),
            click.option("--summary", type=click.Path(), default=None, help="JSON summary path"),
        ]
    ):
        fn = opt(fn)
    return fn


def _gaussian_command(bound, p1, p2, sigma1_sq, sigma2_sq, resolution, output, summary, **extra):
    data = {
        "scenario": {"p1": p1, "p2": p2, "sigma1_sq": sigma1_sq, "sigma2_sq": sigma2_sq},
        "bound": bound,
        "resolution": resolution,
        "output": output,
        **extra,
    }
    if summary:
        data["summary"] = summary
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
    default=R0_RHO_COEFF_DERIVATION,
    show_default=True,
    help="coefficient on the correlation term in the common-rate bound",
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
    for written in run_scenario(ScenarioFile.load(path)):
        click.echo(written)


def main(argv=None) -> int:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except (CapExceededError, UnboundedPolytopeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except (click.Abort, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
