import concurrent.futures
import hashlib
import importlib
import inspect
import json
import multiprocessing.process
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import secrecy_regions
from secrecy_regions import ScenarioFile, ValidationError, cli, dm, scenario, sweep_gaussian
from secrecy_regions.cli import _fmt, _fmt_column, main, run_figure, run_scenario
from conftest import degraded_binary_channel, reveal_both_channel

ROOT = Path(__file__).resolve().parents[1]

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
    assert sf.data["resolution"] == 11
    assert sf.data["scenario"]["sigma2_sq"] == 0.3


def test_parse_rejects_unknown_keys(tmp_path):
    text = gaussian_scenario_text(tmp_path / "r.csv") + "\nmystery_knob: 3\n"
    with pytest.raises(ValidationError, match="unknown keys"):
        ScenarioFile.parse(text)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        ScenarioFile.parse("kind: bogus\noutput: x.csv\n")
    with pytest.raises(ValidationError):
        ScenarioFile.parse("output: x.csv\n")


@pytest.mark.parametrize(
    "kind, data, match",
    [("dm", None, "expected a mapping"), ("dm", ["channel"], "expected a mapping"),
     (np.array(["dm"]), {}, "scenario kind must be one of"),
     (["dm"], {}, "scenario kind must be one of"),
     ("gaussian", {**MINIMAL_GAUSSIAN, "bound": ["inner"], "output": "r.csv"},
      "gaussian bound must be one of")],
)
def test_scenario_file_refuses_a_kind_or_data_of_the_wrong_type(kind, data, match):
    # None data used to raise TypeError, an array kind numpy's "ambiguous" ValueError
    with pytest.raises(ValidationError, match=match):
        ScenarioFile(kind, data)


def test_parse_rejects_missing_required():
    with pytest.raises(ValidationError, match="missing keys"):
        ScenarioFile.parse("kind: gaussian\nbound: inner\noutput: x.csv\n")


def test_parse_rejects_bad_yaml():
    with pytest.raises(ValidationError, match="parse error"):
        ScenarioFile.parse("kind: [unclosed\n")


@pytest.mark.parametrize("content", [b"kind: gaussian\nbound: \xff\n", None])
def test_run_refuses_a_file_it_cannot_read_as_text(tmp_path, capsys, content):
    # non-UTF-8 bytes used to end in a UnicodeDecodeError traceback; None
    # makes the path a directory
    path = tmp_path / "s.yaml"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", str(path)]) == 1
    assert f"scenario file {str(path)!r}" in capsys.readouterr().err


def _dm_data(output):
    return {
        "kind": "dm",
        "bound": "inner",
        "channel": np.full((2, 2, 2, 2), 0.25).tolist(),
        "grid": {"resolution": 2},
        "output": str(output),
    }


_NESTED_KIND = {"scenario": "gaussian", "grid": "dm", "aux": "simulate", "code": "simulate"}


@pytest.mark.parametrize("where", [None, *_NESTED_KIND])
def test_run_refuses_unknown_keys_of_mixed_types(tmp_path, capsys, where):
    # sorting the keys 1 and "x" for the message used to raise TypeError
    out = tmp_path / "r.csv"
    data = {"gaussian": yaml.safe_load(gaussian_scenario_text(out)), "dm": _dm_data(out),
            "simulate": simulate_data(out)}[_NESTED_KIND.get(where, "dm")]
    (data if where is None else data[where]).update({1: 2, "x": 3})
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "unknown keys [1, 'x']" in err and "Traceback" not in err
    assert not out.exists()


def test_unknown_str_keys_are_listed_in_text_order():
    data = {k: v for k, v in _dm_data("r.csv").items() if k != "kind"}
    with pytest.raises(ValidationError, match=r"unknown keys \['a', 'a ', 'b'\]"):
        ScenarioFile("dm", {**data, "b": 1, "a ": 2, "a": 3})


def test_parse_refuses_yaml_aliases(tmp_path, capsys, monkeypatch):
    # nested aliases expand a small file k**depth-fold once parsed; the
    # scanner refuses each alias as it reaches it, so none reaches the parser
    def refuse(*args, **kwargs):
        raise AssertionError("an alias reached the parser")

    monkeypatch.setattr(yaml, "parse", refuse)
    monkeypatch.setattr(yaml.events.AliasEvent, "__init__", refuse)
    text = "kind: dm\nbound: inner\nrow: &r [0.25, 0.25]\nchannel: [[*r, *r], [*r, *r]]\n"
    with pytest.raises(ValidationError, match="aliases"):
        ScenarioFile.parse(text + "output: r.csv\n")
    path = tmp_path / "s.yaml"
    path.write_text(text + f"output: {tmp_path / 'r.csv'}\n")
    assert main(["run", str(path)]) == 1
    assert "YAML aliases" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize(
    "text",
    [lambda out: gaussian_scenario_text(out) + "resolution: 7\n",
     lambda out: (f"kind: dm\nbound: inner\nchannel: {np.full((2, 2, 2, 2), 0.25).tolist()}\n"
                  f"grid:\n  resolution: 2\n  u_size: 2\n  resolution: 3\noutput: {out}\n"),
     lambda out: yaml.safe_dump(_dm_data(out)) + "1: 2\n1.0: 3\n",
     lambda out: f"kind: dm\nbound: inner\nchannel: [{{a: 1, a: 2}}]\noutput: {out}\n",
     lambda out: f"kind: dm\nbound: inner\nchannel:\n- a: 1\n  a: 2\noutput: {out}\n",
     lambda out: f"kind: dm\nbound: inner\nchannel: !!set {{a, a}}\noutput: {out}\n",
     lambda out: f"kind: dm\nbound: inner\nchannel: [[0.25]]\noutput: {out}\n<<: {{a: 1, a: 2}}\n"],
    ids=["top-level", "nested", "1-and-1.0", "flow-list", "block-list", "set", "merged-mapping"],
)
def test_run_refuses_a_duplicate_key(tmp_path, capsys, text):
    # YAML keys are unique; the last value used to win without a word
    path = tmp_path / "s.yaml"
    path.write_text(text(tmp_path / "r.csv"))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "duplicate key" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize(
    "text",
    ["<<: {a: 1, b: 1}\nb: 2\n", "<<: [{a: 1}, {a: 2}]\na: 3\n", "=: 1\nb: 2\n", "a: {b: [1, {c: 2}]}\n", "",
     "!!omap [{a: 1}, {a: 2}]\n"],
)
def test_the_duplicate_key_check_keeps_merge_and_value_keys(text):
    # a key merged in by << may be overridden, and "=" is a str key, as in yaml.safe_load
    assert scenario._load(text) == yaml.safe_load(text)


def test_run_refuses_an_unhashable_key_as_a_parse_error(tmp_path, capsys):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(_dm_data(tmp_path / "r.csv")) + "? [1, 2]\n: 3\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "parse error" in err and "unhashable" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("output, summary", [("r.csv", "r.csv"), ("r.csv", "./r.csv")])
def test_run_refuses_a_summary_that_is_the_output(tmp_path, monkeypatch, capsys, output, summary):
    # the summary used to overwrite the region CSV
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "s.yaml"
    path.write_text(gaussian_scenario_text(output, summary))
    assert main(["run", str(path)]) == 1
    assert f"summary: {summary!r} is also the output file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_gaussian_command_refuses_a_summary_that_is_the_output(tmp_path, monkeypatch, capsys):
    # the flags build a scenario with no file, so no other path checks it
    monkeypatch.chdir(tmp_path)
    args = ["--p1", "1", "--p2", "1", "--sigma1-sq", "0.1", "--sigma2-sq", "0.3", "--resolution", "5"]
    assert main(["gaussian-inner", *args, "--output", "r.csv", "--summary", "./r.csv"]) == 1
    err = capsys.readouterr().err
    assert "summary: './r.csv' is also the output file" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", ["output", "summary"])
def test_run_refuses_a_path_holding_a_nul(tmp_path, capsys, key):
    # open() used to raise ValueError, a traceback, after the whole sweep
    paths = {"output": tmp_path / "r.csv", "summary": tmp_path / "r.json", key: "r\0.csv"}
    path = tmp_path / "s.yaml"
    path.write_text(gaussian_scenario_text(paths["output"], paths["summary"]))
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{key}: expected a file path" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


def _tree(root):
    """Every path under root, with the bytes of each file (None for a
    directory)."""
    return {p: None if p.is_dir() else p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize("key", ["output", "summary"])
@pytest.mark.parametrize("target", ["s.yaml", "./s.yaml", "{root}/s.yaml"])
def test_run_refuses_to_overwrite_its_own_scenario(tmp_path, monkeypatch, capsys, key, target):
    # `output: s.yaml` used to exit 0 and leave s.yaml holding the region CSV
    monkeypatch.chdir(tmp_path)
    target = target.format(root=tmp_path)
    paths = {"output": "r.csv", "summary": "r.json", key: target}
    path = tmp_path / "s.yaml"
    path.write_text(gaussian_scenario_text(paths["output"], paths["summary"]))
    before = _tree(tmp_path)
    assert main(["run", "s.yaml"]) == 1
    err = capsys.readouterr().err
    assert f"{key}: {target!r} is the scenario file itself" in err and "Traceback" not in err
    assert _tree(tmp_path) == before


def _refuse_to_sweep(*args, **kwargs):
    raise AssertionError("a sweep ran before the target paths were checked")


@pytest.mark.parametrize("kind", ["gaussian", "dm"])
@pytest.mark.parametrize("key", ["output", "summary"])
@pytest.mark.parametrize(
    "target, message",
    [("nodir/t.x", "the directory of 'nodir/t.x' does not exist"),
     ("sub", "'sub' is a directory"),
     ("sub/", "'sub/' is a directory"),
     ("", "'' is a directory")],
    ids=["missing-directory", "directory", "directory-slash", "empty"],
)
def test_run_refuses_a_target_it_cannot_write_before_the_sweep(
    tmp_path, monkeypatch, capsys, kind, key, target, message
):
    # `summary: nodir/t.json` used to exit 1 only after writing the CSV
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "r.csv").write_text("an earlier run's output\n")
    monkeypatch.setattr(cli, "sweep_gaussian", _refuse_to_sweep)
    monkeypatch.setattr(cli, "sweep_region", _refuse_to_sweep)
    paths = {"output": "r.csv", "summary": "r.json", key: target}
    data = yaml.safe_load(gaussian_scenario_text("r.csv")) if kind == "gaussian" else _dm_data("")
    (tmp_path / "s.yaml").write_text(yaml.safe_dump({**data, **paths}))
    before = _tree(tmp_path)
    assert main(["run", "s.yaml"]) == 1
    err = capsys.readouterr().err
    assert f"error: {key}: {message}" in err and "Traceback" not in err
    assert _tree(tmp_path) == before


def test_parse_gives_what_safe_load_gives(tmp_path, monkeypatch):
    # every scenario text the tests and README hold, and the seven that the
    # benchmark workloads write
    out = tmp_path / "r.csv"
    texts = [p.read_text() for p in Path(__file__).parent.glob("*.yaml")]
    texts += re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), flags=re.S)
    texts += [gaussian_scenario_text(out, tmp_path / "r.json")]
    texts += [yaml.safe_dump(d) for d in (simulate_data(out), fm_check_data(out), _dm_data(out))]
    monkeypatch.syspath_prepend(ROOT / "perfbench")
    workloads = importlib.import_module("workloads")
    for name in ("figures", "dm", "simulate"):
        workloads.build(secrecy_regions, name, 7, "full", tmp_path / name)
    bench = sorted(tmp_path.glob("*/*.yaml"))
    assert len(bench) == 7
    for text in texts + [p.read_text() for p in bench]:
        raw = yaml.safe_load(text)
        assert scenario._load(text) == raw
        sf = ScenarioFile.parse(text)
        assert {"kind": sf.kind, **sf.data} == raw


@pytest.mark.parametrize(
    "deep, star",
    [
        (" " + "[" * 20_000 + "0.25" + "]" * 20_000, False),
        (" " + "[" * 20_000 + "0.25" + "]" * 20_000, True),
        (" " + "{a: " * 20_000 + "0.25" + "}" * 20_000, False),
        ("\n" + "- " * 3_000 + "0.25", False),
    ],
    ids=["sequences", "sequences-alias-scan", "mappings", "block-sequences"],
)
def test_run_refuses_a_scenario_nested_too_deeply(tmp_path, capsys, deep, star):
    # PyYAML recurses once per level: 900 brackets (1.8 KB) used to end in a
    # RecursionError traceback, and 20,000 (40 KB) took about 1 s to refuse.
    # A "*" in the text once ran a second, event-level parse for aliases,
    # which took 41 s on them; the scanner now refuses aliases too.
    # Flow brackets are refused as the scanner reaches the ninth level (about
    # 1 ms); block nesting reaches the composer and is refused from its
    # RecursionError.
    text = f"kind: dm\nbound: inner\nchannel:{deep}\noutput: {tmp_path / 'r.csv'}\n"
    path = tmp_path / "s.yaml"
    path.write_text(text + ("# *\n" if star else ""))
    start = time.perf_counter()
    assert main(["run", str(path)]) == 1
    assert time.perf_counter() - start < 2.0
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_flow_depth_cap_counts_only_yaml_brackets():
    # 8 levels parse, 9 do not; brackets in quoted scalars, plain scalars
    # and comments are not flow levels, so they count for nothing
    cap = scenario._MAX_FLOW_DEPTH
    assert cap == 8
    channel = "[" * (cap - 1) + "0.25" + "]" * (cap - 1)
    text = f"{{kind: dm, bound: inner, channel: {channel}, output: r.csv}}"
    for star in ("", " # *"):  # a "*" in a comment is no alias
        sf = ScenarioFile.parse(text + star)
        assert sf.data["channel"] == np.full((1,) * (cap - 1), 0.25).tolist()
        with pytest.raises(ValidationError, match="nested too deeply"):
            ScenarioFile.parse(f"[{text}]{star}")
    brackets = "[" * 40 + "{" * 40
    text = (
        f"# {brackets}\nkind: dm\nbound: '{brackets}'\nchannel: \"{brackets}\"\n"
        f"output: a{brackets}.csv  # {brackets}\ngrid: {{resolution: [[['{brackets}']]]}}\n"
    )
    data = ScenarioFile.parse(text).data
    assert data["bound"] == data["channel"] == brackets
    assert data["output"] == f"a{brackets}.csv" and data["grid"] == {"resolution": [[[brackets]]]}


def test_dm_scenario_alphabet_cap(tmp_path, capsys):
    data = {
        "kind": "dm",
        "bound": "inner",
        "channel": np.full((2, 2, 2, 2), 0.25).tolist(),
        "grid": {"u_size": 5},
        "output": str(tmp_path / "r.csv"),
    }
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert "1..3" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


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


def test_a_figure_run_never_loads_scipy_special(tmp_path):
    # importing scipy.special was over half of every process start, and only
    # the discrete, fm-check and simulator stages use it
    code = "import sys, secrecy_regions.cli as c; c.run_figure('fig3', sys.argv[1]); print(sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "'scipy.special'" not in proc.stdout and "'secrecy_regions.cli'" in proc.stdout
    assert (tmp_path / "fig3.csv").exists()


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


# an int beyond the float range, which math.isfinite cannot convert
HUGE_INT = pytest.param(10**400, id="10**400")


@pytest.mark.parametrize("power", [float("nan"), float("inf"), "lots", HUGE_INT])
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


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "lots", HUGE_INT])
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


@pytest.mark.parametrize("scenario, coeff", [({"p1": 1e200, "p2": 1e200}, 2.0), ({}, 1e308)])
def test_overflowing_gaussian_bounds_are_validation_exit(tmp_path, capsys, scenario, coeff):
    # finite inputs whose bounds overflow: refused, not swept into an empty
    # or partial region
    data = gaussian_data(tmp_path / "r.csv")
    data["scenario"].update(scenario)
    data["r0_rho_coeff"] = coeff
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


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
    # the second scenario fits at n=12 (262,144 tuples) but not at n=16
    # (16,777,216): no blocklength may run before the whole scenario is checked
    for rates, blocklengths in [((0.5, 0.4375), [16]), ((0.5, 0.25), [12, 16])]:
        data = simulate_data(tmp_path / "out")
        r, rp = rates
        data["code"].update(n=blocklengths[0], r1=r, r1p=rp, r2=r, r2p=rp)
        data["blocklengths"] = blocklengths
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


def _fm_check_verdicts(tmp_path, name):
    data = fm_check_data(tmp_path / f"{name}.json")
    data.update(chains=5, seed=1)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 0
    report = json.loads((tmp_path / f"{name}.json").read_text())
    return report["all_equal"], [(r["equal"], r["verdict"]) for r in report["results"]]


def test_fm_check_reports_a_mismatch(tmp_path, monkeypatch):
    """A table with every right-hand side halved still holds the origin, so
    each chain it differs on is a mismatch, not raw_infeasible."""
    assert _fm_check_verdicts(tmp_path, "real") == (True, [(True, "equal")] * 5)
    A, T = dm._fm_table()
    monkeypatch.setattr(dm, "_fm_table", lambda: (A, 0.5 * T))
    assert _fm_check_verdicts(tmp_path, "halved") == (False, [(False, "mismatch")] * 5)


def test_channel_alphabet_above_cap_is_validation_exit(tmp_path):
    t = np.zeros((2, 2, 5, 2))
    t[:, :, 0, 0] = 1.0
    data = fm_check_data(tmp_path / "out")
    data["channel"] = t.tolist()
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(data))
    assert main(["run", str(path)]) == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("wide", ["u", "v1", "v2", "rows"])
def test_aux_alphabet_above_cap_is_validation_exit(tmp_path, wide):
    data = simulate_data(tmp_path / "out")
    aux = data["aux"]
    if wide == "u":
        aux.update(p_u=[0.25] * 4, p_v1_given_u=[[0.5, 0.5]] * 4, p_v2_given_u=[[0.5, 0.5]] * 4)
    elif wide == "rows":  # row counts that differ from each other and from p_u
        aux.update(p_v1_given_u=[[0.5, 0.5]] * 2, p_v2_given_u=[[0.5, 0.5]] * 3)
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


def test_cli_leaves_the_sweep_defaults_to_sweep_gaussian(tmp_path, monkeypatch, capsys):
    """An option not given stays out of the scenario, so sweep_gaussian's own
    defaults apply; --help shows them as its signature holds them."""
    seen = []
    monkeypatch.setattr(cli, "run_scenario", lambda sf: seen.append(sf.data) or [])
    args = ["--p1", "1", "--p2", "1", "--sigma1-sq", "0.1", "--sigma2-sq", "0.3",
            "--output", str(tmp_path / "r.csv")]
    assert main(["gaussian-outer", *args]) == 0
    assert main(["gaussian-inner", *args, "--resolution", "7"]) == 0
    assert not {"resolution", "r0_rho_coeff", "summary"} & set(seen[0])
    assert seen[1]["resolution"] == 7
    defaults = inspect.signature(sweep_gaussian).parameters
    assert main(["gaussian-outer", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for name in ("resolution", "r0_rho_coeff"):
        assert f"[default: {defaults[name].default}]" in text


# -- mutated scenarios ------------------------------------------------------


def dm_data(output):
    return {
        "kind": "dm",
        "bound": "inner",
        "channel": degraded_binary_channel().transition.tolist(),
        "grid": {"u_size": 1, "v1_size": 2, "v2_size": 2, "resolution": 2, "max_chains": 1000},
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


def test_mutated_scenario_exits_cleanly(tmp_path, monkeypatch):
    """Every mutation in _MUTATIONS, in order, exits 0, 1 or 2."""
    for i, (build, path, value) in enumerate(_MUTATIONS):
        work = tmp_path / str(i)
        work.mkdir()
        monkeypatch.chdir(work)  # a mutated output path is written relative to here
        data = build(work / "out")
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        Path("s.yaml").write_text(yaml.safe_dump(data))
        assert main(["run", "s.yaml"]) in (0, 1, 2), (build.__name__, path, value)


def _run_dm(tmp_path, name, **extra):
    """Run dm_data, updated with `extra`, as <name>.csv."""
    data = dm_data(tmp_path / f"{name}.csv")
    data.update(extra)
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(data))
    return main(["run", str(path)])


def test_dm_workers_key_is_refused(tmp_path, capsys):
    """A sweep runs in one process, so the old `workers` key is unknown."""
    for good in (1, 2):
        assert _run_dm(tmp_path, f"w{good}", workers=good) == 1
        assert "unknown keys ['workers']" in capsys.readouterr().err
        assert not (tmp_path / f"w{good}.csv").exists()


# Every count field: (builder, path to the field, smallest allowed value).
_COUNT_FIELDS = [
    (gaussian_data, ("resolution",), 2),
    *((dm_data, ("grid", key), 1)
      for key in ("u_size", "v1_size", "v2_size", "resolution", "max_chains")),
    (fm_check_data, ("chains",), 1),
    (fm_check_data, ("seed",), 0),
    (simulate_data, ("trials",), 1),
    (simulate_data, ("code", "n"), 1),
    (simulate_data, ("code", "seed"), 0),
    (simulate_data, ("blocklengths", 0), 1),
]
_BAD_COUNTS = (float("nan"), float("inf"), float("-inf"), "text", None, [1, 2], -1, 2.7, True)


@pytest.mark.parametrize(
    "build, path, low", _COUNT_FIELDS, ids=[".".join(map(str, f[1])) for f in _COUNT_FIELDS]
)
def test_bad_count_is_validation_exit_with_no_output(tmp_path, build, path, low):
    """Each bad value and the minimum - 1 exit 1 and write nothing.  A bad
    code.n is refused even where blocklengths overrides it, and None in
    blocklengths does not fall back to code.n."""
    values = _BAD_COUNTS + ((low - 1,) if low - 1 != -1 else ())
    for i, value in enumerate(values):
        work = tmp_path / str(i)
        work.mkdir()
        data = build(work / "out")
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (work / "s.yaml").write_text(yaml.safe_dump(data))
        assert main(["run", str(work / "s.yaml")]) == 1, (build.__name__, path, value)
        assert [p.name for p in work.iterdir()] == ["s.yaml"], (build.__name__, path, value)


def test_scenario_module_holds_no_number_rule():
    """Integer, range and finiteness rules belong to the types and runners
    that use the values; scenario.py checks only the file's structure."""
    source = Path(scenario.__file__).read_text(encoding="utf-8")
    for rule in ("is_integer", "check_real", "check_integer", "checked_array"):
        assert rule not in source


def test_dm_sweep_starts_no_process(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dm sweep started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    for bound in ("inner", "outer"):
        assert _run_dm(tmp_path, bound, bound=bound) == 0


def _benchmark_shaped_simulation(output):
    """The benchmark's simulate scenario (I(V1;Y2) bin rate, eps 0.125,
    n = 12 and 16) at 200 trials."""
    flip = 0.25
    data = simulate_data(output)
    r1p = 1.0 + flip * np.log2(flip) + (1 - flip) * np.log2(1 - flip)
    data["code"] = {"n": 12, "r0": 0.0, "r1": 0.25, "r2": 0.25, "r1p": float(r1p),
                    "r2p": 0.0, "typicality_eps": 0.125, "seed": 7}
    data.update(blocklengths=[12, 16], trials=200)
    return data


def _common_message_simulation(output):
    """M0 = 2, both bins of size 2 and a two-letter U, at n = 6 and 8."""
    data = simulate_data(output)
    data["aux"].update(p_u=[0.5, 0.5], p_v1_given_u=[[0.7, 0.3], [0.2, 0.8]],
                       p_v2_given_u=[[0.4, 0.6], [0.9, 0.1]])
    sixth = 1 / 6
    data["code"] = {"n": 6, "r0": sixth, "r1": 2 * sixth, "r2": sixth, "r1p": sixth,
                    "r2p": sixth, "typicality_eps": 0.15, "seed": 11}
    data.update(blocklengths=[6, 8], trials=200)
    return data


# sha256 of the simulate CSVs as the one-trial-per-call simulator wrote them:
# the chunked scans must reproduce every error count and every printed digit
_GOLDEN = "151edd4b5bc54a25e563bfee5183ab11d7b24f04b0e21a07a76399e1fe8b8fe3"
_GOLDEN_M0 = "f9d70c642122075e76cbdc8ff0345b484df4d7929515d81ae709665ecf2ffe2f"


@pytest.mark.parametrize(
    "build, digest",
    [(_benchmark_shaped_simulation, _GOLDEN), (_common_message_simulation, _GOLDEN_M0)],
)
def test_simulate_csv_matches_its_golden_digest(tmp_path, build, digest):
    out = tmp_path / "sim.csv"
    run_scenario(ScenarioFile.parse(yaml.safe_dump(build(out))))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _benchmark_shaped_fm_check(output):
    """The fm-check scenario the benchmark draws at seed 0, at 200 chains."""
    rng = np.random.default_rng(0)
    channel = rng.dirichlet(np.ones(4), size=4).reshape(2, 2, 2, 2)
    data = fm_check_data(output)
    data.update(channel=channel.tolist(), chains=200, seed=int(rng.integers(2**31)))
    return data


# sha256 of that fm-check JSON as the elimination over named variables wrote
# it, before it ran on plain arrays
_GOLDEN_FM = "1add23a6cf5aea5d7c2b67ceb38d58a9c894f748fde759f507ba34f84d303a4a"


def test_fm_check_json_matches_its_golden_digest(tmp_path):
    out = tmp_path / "fm.json"
    run_scenario(ScenarioFile.parse(yaml.safe_dump(_benchmark_shaped_fm_check(out))))
    verdicts = [r["verdict"] for r in json.loads(out.read_text())["results"]]
    # the digest covers both verdicts this channel reaches
    assert verdicts.count("equal") > 0 and verdicts.count("raw_infeasible") > 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _GOLDEN_FM


def _region_outputs(tmp_path, data):
    """Run a region scenario; its CSV bytes followed by its summary bytes."""
    data = {**data, "output": str(tmp_path / "r.csv"), "summary": str(tmp_path / "r.json")}
    run_scenario(ScenarioFile.parse(yaml.safe_dump(data)))
    return (tmp_path / "r.csv").read_bytes() + (tmp_path / "r.json").read_bytes()


def _fig2(tmp_path):
    """fig2 at its default resolutions: a g_outer 51^3 sweep of seven chunks,
    merged in FrontierAccumulator.finish."""
    run_figure("fig2", tmp_path)
    return (tmp_path / "fig2.csv").read_bytes() + (tmp_path / "fig2_summary.json").read_bytes()


def _fig3(tmp_path):
    """fig3 at its default resolution: the g_inner and cmac frontiers projected
    onto the (r1, r2) plane, the one preset figure that project writes."""
    run_figure("fig3", tmp_path)
    return (tmp_path / "fig3.csv").read_bytes() + (tmp_path / "fig3_summary.json").read_bytes()


def _fig4(tmp_path):
    """fig4 at its default resolution: a cmac frontier of about 17k points."""
    run_figure("fig4", tmp_path)
    return (tmp_path / "fig4.csv").read_bytes() + (tmp_path / "fig4_summary.json").read_bytes()


def _gaussian_outer_30(tmp_path):
    """27,000 grid points: two sweep chunks and a real merge at the end."""
    data = {"kind": "gaussian", **MINIMAL_GAUSSIAN, "bound": "outer", "resolution": 30}
    return _region_outputs(tmp_path, data)


def _cmac_101(tmp_path):
    data = {"kind": "gaussian", **MINIMAL_GAUSSIAN, "bound": "cmac", "resolution": 101}
    return _region_outputs(tmp_path, data)


def _dm_benchmark_shaped(bound):
    """A dm sweep at the benchmark's grid shape, GridSpec(2, 2, 2, 3), on one
    seeded channel drawn as the benchmark draws its channels."""

    def build(tmp_path):
        channel = np.random.default_rng(0).dirichlet(np.ones(4), size=4).reshape(2, 2, 2, 2)
        grid = {"u_size": 2, "v1_size": 2, "v2_size": 2, "resolution": 3}
        data = {"kind": "dm", "channel": channel.tolist(), "bound": bound, "grid": grid}
        return _region_outputs(tmp_path, data)

    return build


# sha256 of region outputs (CSV, then JSON summary) as the per-row staircase
# and the row-by-row CSV writer produced them; the dm entries as the sweep
# over canonical chains and their polytope skyline produces them
_REGION_GOLDEN = {
    "fig2": "e1e0eb03b69d7b477c4cc3e80c7738de6963fcec412a47ae852636aea309f201",
    "fig3": "216bf35c13dd10d26a61693804adaeb6e57ca60ebd130d57310ae4ea9856203a",
    "fig4": "e88d2db6826e014bde425c30a61547bb7e4b24b99e13843d27071f85f58864f0",
    "gaussian_outer_30": "40463112d047fdb7f9aa7b2ad7b665ee9e2962117ab2038ca54f59c7160c654c",
    "cmac_101": "5f681f7ee238a5b14166c4210b7ee7b2c389b07c75f5eeea4637fd7ac4632fd2",
    "dm_inner": "a03982c1f69413d3ca33982f535193dc87815705c64ae5a2681cd25aa0cacbff",
    "dm_outer": "40d67cefbc320a205cbd73277a84b2c9b38858602a70f5126670cdab8251aa65",
}


@pytest.mark.parametrize(
    "name, build",
    [("fig2", _fig2), ("fig3", _fig3), ("fig4", _fig4),
     ("gaussian_outer_30", _gaussian_outer_30), ("cmac_101", _cmac_101),
     ("dm_inner", _dm_benchmark_shaped("inner")), ("dm_outer", _dm_benchmark_shaped("outer"))],
)
def test_region_outputs_match_their_golden_digests(tmp_path, name, build):
    assert hashlib.sha256(build(tmp_path)).hexdigest() == _REGION_GOLDEN[name]


def _bits(*words):
    """float64 values with the given int64 bit patterns."""
    return np.array(words, dtype=np.int64).view(np.float64)


@pytest.mark.parametrize(
    "column",
    [
        [],
        [0.0, -0.0, 0.0, -0.0, 0.0],
        [np.nan] * 5,  # a dm region's parameter columns
        # NaNs with three payloads, one negative
        [*_bits(0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000), 0.0, -0.0],
        [5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300, np.inf, -np.inf],
        # the 10th significant digit's rounding edge, and one ulp either side
        [x for e in (0.12345678905, 1.0000000005, 0.99999999995, 9999999999.5, 2.5e-10)
         for x in (np.nextafter(e, 0.0), e, np.nextafter(e, 2 * e))],
        np.tile(np.linspace(0.0, 1.0, 101), 7),  # a beta column: few values, each repeated
        np.repeat([0.1, -0.0, 0.1 + 2**-56, np.nan, 0.1], 3),
    ],
)
def test_fmt_column_formats_every_cell_as_fmt_does(column):
    values = np.array(column, dtype=float)
    assert _fmt_column(values) == [_fmt(x) for x in values.tolist()]
