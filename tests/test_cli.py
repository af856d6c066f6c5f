import json
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import secrecy_regions
from secrecy_regions import ScenarioFile, ValidationError
from secrecy_regions.cli import main, run_figure, run_scenario
from conftest import degraded_binary_channel, reveal_both_channel

MINIMAL_GAUSSIAN = {
    "scenario": {"p1": 1.0, "p2": 1.0, "sigma1_sq": 0.1, "sigma2_sq": 0.3},
    "bound": "inner",
    "resolution": 11,
}


def gaussian_scenario_text(output, summary=None, **extra):
    data = {"kind": "gaussian", **MINIMAL_GAUSSIAN, "output": str(output), **extra}
    if summary is not None:
        data["summary"] = str(summary)
    return yaml.safe_dump(data)


def simulate_data(output):
    return {
        "kind": "simulate",
        "channel": reveal_both_channel(0.25).transition.tolist(),
        "aux": {
            "p_u": [1.0],
            "p_v1_given_u": [[0.5, 0.5]],
            "p_v2_given_u": [[0.5, 0.5]],
            "p_x1_given_v1": [[1.0, 0.0], [0.0, 1.0]],
            "p_x2_given_v2": [[1.0, 0.0], [0.0, 1.0]],
        },
        "code": {"n": 4, "r1": 0.25, "r2": 0.25, "r1p": 0.1887, "seed": 5},
        "blocklengths": [4, 8],
        "trials": 25,
        "output": str(output),
    }


def fm_check_data(output):
    return {
        "kind": "fm-check",
        "channel": degraded_binary_channel().transition.tolist(),
        "chains": 5,
        "seed": 3,
        "output": str(output),
    }


# -- scenario parsing -------------------------------------------------------


def test_parse_minimal_gaussian(tmp_path):
    sf = ScenarioFile.parse(gaussian_scenario_text(tmp_path / "r.csv"))
    assert sf.kind == "gaussian"
    assert sf.resolution() == 11
    assert sf.gaussian_scenario().sigma2_sq == 0.3


def test_parse_rejects_unknown_keys(tmp_path):
    text = gaussian_scenario_text(tmp_path / "r.csv") + "\nmystery_knob: 3\n"
    with pytest.raises(ValidationError, match="unknown keys"):
        ScenarioFile.parse(text)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        ScenarioFile.parse("kind: bogus\noutput: x.csv\n")
    with pytest.raises(ValidationError):
        ScenarioFile.parse("output: x.csv\n")


def test_parse_rejects_missing_required():
    with pytest.raises(ValidationError, match="missing keys"):
        ScenarioFile.parse("kind: gaussian\nbound: inner\noutput: x.csv\n")


def test_parse_rejects_bad_yaml():
    with pytest.raises(ValidationError, match="parse error"):
        ScenarioFile.parse("kind: [unclosed\n")


def test_round_trip_is_field_identical(tmp_path):
    sf = ScenarioFile.parse(gaussian_scenario_text(tmp_path / "r.csv", tmp_path / "s.json"))
    again = ScenarioFile.parse(sf.serialize())
    assert again.kind == sf.kind
    assert again.data == sf.data


def test_dm_scenario_alphabet_cap(tmp_path):
    data = {
        "kind": "dm",
        "bound": "inner",
        "channel": np.full((2, 2, 2, 2), 0.25).tolist(),
        "grid": {"u_size": 5},
        "output": str(tmp_path / "r.csv"),
    }
    sf = ScenarioFile.parse(yaml.safe_dump(data))
    with pytest.raises(ValidationError, match="1..3"):
        sf.grid_spec()


# -- scenario execution -----------------------------------------------------


def test_run_gaussian_scenario_writes_csv(tmp_path):
    out = tmp_path / "region.csv"
    sf = ScenarioFile.parse(gaussian_scenario_text(out, tmp_path / "summary.json"))
    written = run_scenario(sf)
    assert str(out) in written
    lines = out.read_text().splitlines()
    assert lines[0] == "bound_kind,r0,r1,r2,beta1,beta2,rho"
    assert len(lines) >= 2
    # inner rows must leave rho empty
    assert all(line.endswith(",") for line in lines[1:])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["g_inner"]["points"] == len(lines) - 1


def test_run_simulate_scenario(tmp_path):
    out = tmp_path / "sim.csv"
    run_scenario(ScenarioFile.parse(yaml.safe_dump(simulate_data(out))))
    lines = out.read_text().splitlines()
    assert lines[0] == "n,trials,pe1,pe2,equivocation_bits_per_use,secrecy_gap"
    assert len(lines) == 3
    assert lines[1].startswith("4,25,") and lines[2].startswith("8,25,")


def test_run_fm_check_scenario(tmp_path):
    out = tmp_path / "fm.json"
    run_scenario(ScenarioFile.parse(yaml.safe_dump(fm_check_data(out))))
    report = json.loads(out.read_text())
    assert report["chains"] == 5
    assert report["all_equal"] is True
    assert all(r["equal"] for r in report["results"])


# -- figures ----------------------------------------------------------------


def test_run_figure_fig4_summary(tmp_path):
    run_figure("fig4", tmp_path, resolution=51, outer_resolution=11)
    summary = json.loads((tmp_path / "fig4_summary.json").read_text())
    assert summary["inner_max_r1_plus_r2"] == pytest.approx(1.138420103, abs=1e-6)
    assert summary["cmac_max_r1_plus_r2"] == pytest.approx(1.057738609, abs=1e-6)
    assert summary["inner_exceeds_cmac"] is True


def test_run_figure_fig3_summary_and_projection(tmp_path):
    run_figure("fig3", tmp_path, resolution=51)
    summary = json.loads((tmp_path / "fig3_summary.json").read_text())
    assert summary["inner_max_r1_plus_r2"] == pytest.approx(0.7268590, abs=1e-6)
    assert summary["cmac_max_r1_plus_r2"] == pytest.approx(1.4692997, abs=1e-6)
    assert summary["inner_exceeds_cmac"] is False
    lines = (tmp_path / "fig3.csv").read_text().splitlines()
    # projected rows leave r0 empty
    assert lines[1].split(",")[1] == ""


def test_figure_rerun_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    run_figure("fig2", a_dir, resolution=21, outer_resolution=9)
    run_figure("fig2", b_dir, resolution=21, outer_resolution=9)
    assert (a_dir / "fig2.csv").read_bytes() == (b_dir / "fig2.csv").read_bytes()
    assert (a_dir / "fig2_summary.json").read_bytes() == (b_dir / "fig2_summary.json").read_bytes()


def test_run_figure_rejects_unknown():
    with pytest.raises(ValidationError):
        run_figure("fig9", ".")


# -- exit codes -------------------------------------------------------------


def test_exit_code_success(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(gaussian_scenario_text(tmp_path / "r.csv"))
    assert main(["run", str(path)]) == 0
    assert (tmp_path / "r.csv").exists()


def test_exit_code_validation_failure(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("kind: bogus\n")
    assert main(["run", str(path)]) == 1


def test_exit_code_cap_exceeded(tmp_path):
    data = {
        "kind": "dm",
        "bound": "inner",
        "channel": degraded_binary_channel().transition.tolist(),
        "grid": {"u_size": 3, "v1_size": 3, "v2_size": 3, "resolution": 5, "max_chains": 100},
        "output": str(tmp_path / "r.csv"),
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 2


@pytest.mark.parametrize("power", [float("nan"), float("inf"), "lots"])
def test_non_finite_or_text_power_is_validation_exit(tmp_path, power):
    data = yaml.safe_load(gaussian_scenario_text(tmp_path / "r.csv"))
    data["scenario"]["p1"] = power
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "build, field, value",
    [(fm_check_data, "chains", -3), (simulate_data, "trials", 0),
     (lambda out: {"kind": "gaussian", **MINIMAL_GAUSSIAN, "output": str(out)}, "resolution", 2.7)],
)
def test_bad_count_field_is_validation_exit(tmp_path, build, field, value):
    data = build(tmp_path / "out")
    data[field] = value
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "lots"])
@pytest.mark.parametrize(
    "field", ["r0", "r1", "r2", "r1p", "r2p", "typicality_eps", "r0_rho_coeff"]
)
def test_non_finite_or_text_number_is_validation_exit(tmp_path, field, value):
    out = tmp_path / "out"
    if field == "r0_rho_coeff":
        data = {"kind": "gaussian", **MINIMAL_GAUSSIAN, "bound": "outer", "resolution": 5,
                "r0_rho_coeff": value, "output": str(out)}
    else:
        data = simulate_data(out)
        data["code"][field] = value
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not out.exists()


def test_cli_r0_rho_coeff_nan_is_validation_exit(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "gaussian-outer",
            "--p1", "1", "--p2", "1",
            "--sigma1-sq", "0.1", "--sigma2-sq", "0.3",
            "--resolution", "5", "--r0-rho-coeff", "nan",
            "--output", str(out),
        ]
    )
    assert code == 1
    assert not out.exists()


def test_huge_integer_powers_run(tmp_path):
    # 10**12 * 10**12 overflows int64, and numpy cannot take sqrt of the Python int
    data = gaussian_data(tmp_path / "r.csv")
    data["scenario"].update(p1=10**12, p2=10**12)
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 0


@pytest.mark.parametrize("bound", ["inner", "outer", "cmac"])
def test_gaussian_grid_cap_is_cap_exit(tmp_path, bound):
    # 10**6 per axis cannot be allocated at all; the cap must refuse it first
    data = {"kind": "gaussian", **MINIMAL_GAUSSIAN, "bound": bound, "resolution": 10**6,
            "output": str(tmp_path / "r.csv")}
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 2
    assert not (tmp_path / "r.csv").exists()


def test_oversized_simulation_is_cap_exit_before_codebook(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("codebook generated before the tuple cap was checked")

    monkeypatch.setattr("secrecy_regions.binning.generate_codebook", refuse)
    data = simulate_data(tmp_path / "out")
    data["code"].update(n=16, r1=0.5, r1p=0.4375, r2=0.5, r2p=0.4375)
    data["blocklengths"] = [16]
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def _refuse(*args, **kwargs):
    raise AssertionError("drawn before the cap was checked")


@pytest.mark.parametrize(
    "build, field, value, draw",
    [
        (simulate_data, ("trials",), 10**12, "secrecy_regions.binning.generate_codebook"),
        (simulate_data, ("code", "r1"), 300, "secrecy_regions.binning.generate_codebook"),
        (simulate_data, ("code", "r2p"), 10**12, "secrecy_regions.binning.generate_codebook"),
        (fm_check_data, ("chains",), 10**12, "secrecy_regions.cli.random_inner_chain"),
    ],
)
def test_oversized_request_is_cap_exit_before_drawing(tmp_path, monkeypatch, build, field, value,
                                                      draw):
    monkeypatch.setattr(draw, _refuse)
    data = build(tmp_path / "out")
    node = data
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 2
    assert not (tmp_path / "out").exists()


def test_dm_max_chains_above_cap_is_validation_exit(tmp_path):
    data = dm_data(tmp_path / "out")
    data["grid"]["max_chains"] = 10**15
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


def test_fm_check_verdicts_say_why(tmp_path):
    """On a random channel the unequal chains are the ones whose raw system
    is infeasible (the zero clamp), not elimination mismatches."""
    channel = np.random.default_rng(7).dirichlet(np.ones(4), size=4).reshape(2, 2, 2, 2)
    data = fm_check_data(tmp_path / "out.json")
    data.update(channel=channel.tolist(), chains=20, seed=1)
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / "out.json").read_text())
    verdicts = [r["verdict"] for r in report["results"]]
    assert all((v == "equal") == r["equal"] for v, r in zip(verdicts, report["results"]))
    assert verdicts.count("raw_infeasible") > 0 and verdicts.count("mismatch") == 0
    assert report["all_equal"] is False


def test_channel_alphabet_above_cap_is_validation_exit(tmp_path):
    t = np.zeros((2, 2, 5, 2))
    t[:, :, 0, 0] = 1.0
    data = fm_check_data(tmp_path / "out")
    data["channel"] = t.tolist()
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("wide", ["u", "v1", "v2"])
def test_aux_alphabet_above_cap_is_validation_exit(tmp_path, wide):
    data = simulate_data(tmp_path / "out")
    aux = data["aux"]
    if wide == "u":
        aux.update(p_u=[0.25] * 4, p_v1_given_u=[[0.5, 0.5]] * 4, p_v2_given_u=[[0.5, 0.5]] * 4)
    else:
        aux[f"p_{wide}_given_u"] = [[0.25] * 4]
        aux[f"p_x{wide[1]}_given_{wide}"] = [[1.0, 0.0], [0.0, 1.0]] * 2
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


def test_readme_scenarios_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 4
    for block in blocks:
        ScenarioFile.parse(block)


def test_public_names_resolve():
    for name in secrecy_regions.__all__:
        assert getattr(secrecy_regions, name) is not None


def test_cli_gaussian_inner_subcommand(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "gaussian-inner",
            "--p1", "1", "--p2", "1",
            "--sigma1-sq", "0.1", "--sigma2-sq", "0.6",
            "--resolution", "11",
            "--output", str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("bound_kind,")


def test_cli_usage_error_is_validation_exit():
    assert main(["gaussian-inner", "--p1", "1"]) == 1


# -- mutated scenarios ------------------------------------------------------


def dm_data(output):
    return {
        "kind": "dm",
        "bound": "inner",
        "channel": degraded_binary_channel().transition.tolist(),
        "grid": {"u_size": 1, "v1_size": 2, "v2_size": 2, "resolution": 2, "max_chains": 1000},
        "workers": 1,
        "output": str(output),
        "summary": str(output) + ".json",
    }


def gaussian_data(output):
    # a copy of the nested scenario, so that a mutation does not outlive its example
    return {"kind": "gaussian", **MINIMAL_GAUSSIAN, "scenario": dict(MINIMAL_GAUSSIAN["scenario"]),
            "bound": "outer", "resolution": 4, "r0_rho_coeff": 1.0, "output": str(output),
            "summary": str(output) + ".json"}


def _field_paths(data, prefix=()):
    """Every key of a scenario, nested ones too, and the first item of each list."""
    for key, value in data.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))
        elif isinstance(value, list):
            yield prefix + (key, 0)


# Type and finiteness values, and one huge number: every count and rate that
# sets the amount of work has an upper cap, so 10**12 must not start a long run.
_MUTANT_VALUES = (
    float("nan"), float("inf"), float("-inf"), "text", None, [1, 2], -1, 0, 2.7, 10**12
)
_BUILDERS = (gaussian_data, dm_data, fm_check_data, simulate_data)
_MUTATIONS = [
    (build, path, value)
    for build in _BUILDERS
    for path in _field_paths(build("out"))
    for value in _MUTANT_VALUES
]


@given(st.sampled_from(_MUTATIONS))
@settings(max_examples=600, deadline=None)
def test_mutated_scenario_exits_cleanly(mutation):
    build, path, value = mutation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # a mutated output path is written relative to here
        try:
            data = build(Path(tmp) / "out")
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            Path("s.yaml").write_text(yaml.safe_dump(data))
            assert main(["run", "s.yaml"]) in (0, 1, 2)
        finally:
            os.chdir(cwd)
