"""Tests of the benchmark itself, at toy problem sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = run.WORKLOADS

# Counts made by the program itself; these must repeat exactly for one seed.
PROGRAM_COUNTS = (
    "dm.chains",
    "geometry.frontier.candidates",
    "geometry.frontier.survivors",
    "geometry.region.bound_rows",
    *(f"binning.n{n}.{c}" for n in (12, 16) for c in ("decode_rx1.none", "posterior.tuples")),
)


def bench(*args, env=None, cwd=ROOT, script=BENCH_DIR / "run.py"):
    cmd = [sys.executable, str(script), "--seconds", "0", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "7", "--trace", "0")
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["value"] > 0
        assert f"metric {name} = " in proc.stdout and proc.stdout.count(f" {unit}\n") >= 1
    assert f"{run.WORK_METRIC_NAMES[workload]} = " in proc.stdout
    assert "manifest " in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_program_counts(workload):
    first, second = (
        result_of(bench("--workload", workload, "--seed", "11", "--trace", "1")) for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    assert {k: v["unit"] for k, v in first["metrics"].items()} == tracing.LAYER_METRICS
    for name in PROGRAM_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name

    spans = [
        json.loads(line)
        for line in (run.WORK / "traces" / f"{workload}-seed11.jsonl").read_text().splitlines()
    ]
    assert spans
    for s in spans:
        assert 0.0 <= s["self_s"] <= s["end"] - s["start"]
        if s["parent"] >= 0:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert parent["job"] == s["job"]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "c", "start": 3.0, "end": 6.0, "parent": 0},  # overlaps b
        {"name": "d", "start": 9.0, "end": 12.0, "parent": 0},  # runs past a
        {"name": "e", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 3.0, 1.0]


def test_corrupted_reference_digest_is_reported_not_raised(tmp_path):
    import workloads

    pkg = run.import_package()
    reference = json.loads(workloads.REFERENCE_DIGESTS.read_text())
    reference["fig3.csv"] = "0" * 64
    reference["fig3_summary.json"] = "not-a-digest"
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(reference))
    size = workloads.SIZES["tiny"]
    (tmp_path / "out").mkdir()
    job = workloads.build_figures(pkg, 1, size, tmp_path / "out", corrupted).jobs[0]
    errors = job.run().errors
    assert any("fig3.csv" in e and "differs from reference" in e for e in errors)
    assert any("fig3_summary.json" in e and "malformed" in e for e in errors)

    corrupted.write_text("{not json")
    job = workloads.build_figures(pkg, 1, size, tmp_path / "out", corrupted).jobs[0]
    assert any("unreadable" in e for e in job.run().errors)


def test_worker_guard_refuses_more_workers_than_cpus():
    env = dict(os.environ, SECRECY_REGIONS_THREADS=str(run.nproc() + 1))
    proc = bench("--workload", "dm", "--seed", "1", "--trace", "0", env=env)
    assert proc.returncode == 2
    assert "refusing to run" in proc.stderr and "pool workers" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_refuses_without_package_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    script = tmp_path / "perfbench" / "run.py"
    proc = bench("--workload", "figures", "--seed", "1", cwd=tmp_path, script=script)
    assert proc.returncode == 2
    assert "package source not found" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_failed_jobs_are_counted_not_raised():
    import types

    import workloads

    def boom():
        raise ValueError("bad input")

    result = run.run_pass(workloads.Workload("things", [workloads.Job("boom", boom)]), {})
    assert result["jobs"][0]["errors"] == ["ValueError: bad input"]

    # a call that raises inside a traced boundary leaves a span without counters
    tracer = tracing.Tracer()
    layer = types.SimpleNamespace(contains=boom)
    job = workloads.Job("query", lambda: layer.contains())
    with tracer.installed([(layer, "contains", "geometry.contains", tracing._one)]):
        result = run.run_pass(workloads.Workload("queries", [job]), {}, tracer, 1)
    assert result["jobs"][0]["errors"]
    seconds = tracing.layer_seconds(tracer.spans, tracing.self_times(tracer.spans), "1:")
    assert seconds["geometry.contains.queries"] == 0 and seconds["geometry.contains.s"] >= 0
    assert layer.contains is boom


def test_outputs_that_change_between_passes_fail():
    import workloads

    outcomes = iter([workloads.Outcome(1, "aaaa"), workloads.Outcome(1, "bbbb")])
    workload = workloads.Workload("things", [workloads.Job("flaky", lambda: next(outcomes))])
    fingerprints = {}
    assert not run.run_pass(workload, fingerprints)["jobs"][0]["errors"]
    errors = run.run_pass(workload, fingerprints)["jobs"][0]["errors"]
    assert errors == ["outputs differ from the first pass with this seed"]
