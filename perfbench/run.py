"""Benchmark for secrecy_regions: runs one workload by name and seed, times it
end to end with tracing off (or per layer with --trace 1), checks every
output, and prints one JSON result as the last line of standard output.

    python3 perfbench/run.py --workload dm --seed 1 --seconds 20 --trace 0

The package is imported from `src/` beside this directory; nothing is
installed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("figures", "containment", "dm", "simulate")
SETUP_PROBES = {"full": 4, "tiny": 1}  # extra fresh processes timing set-up

# End-to-end metric -> unit.  work_per_s counts the workload's own unit of
# work (grid points, queries, chains or trials) per second of job wall time.
END_TO_END = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
WORK_METRIC_NAMES = {
    "figures": "grid_points_per_s",
    "containment": "queries_per_s",
    "dm": "chains_per_s",
    "simulate": "trials_per_s",
}


class Refusal(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_package():
    """secrecy_regions from this checkout's src/, never an installed copy."""
    init = SRC / "secrecy_regions" / "__init__.py"
    if not init.is_file():
        raise Refusal(f"package source not found at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("secrecy_regions")
    importlib.import_module("secrecy_regions.cli")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise Refusal(f"imported secrecy_regions from {pkg.__file__}, not from {SRC}")
    return pkg


def tail_percentile(samples):
    """(percent, value) for the highest whole percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    pct = int(100 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[min(n - 1, int(pct / 100 * n))]


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def describe(samples, unit) -> str:
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.6g} {unit}" if tail else "no tail percentile"
    return f"median {median(samples):.6g} {unit}, {tail_text}, n={len(samples)}"


# ---------------------------------------------------------------------------
# Run manifest and worker guard
# ---------------------------------------------------------------------------


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def effective_workers(pkg, chains: int) -> int:
    """The pool size dm.sweep_region picks for a sweep of `chains` chains."""
    try:
        workers = pkg.dm.default_workers()
    except pkg.ValidationError as exc:
        raise Refusal(str(exc)) from exc
    return max(1, min(workers, chains)) if chains else workers


def manifest(pkg, args, workers) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "package_version": pkg.__version__,
        "git_commit": git_commit(),
        "dm.workers": workers,
    }


# ---------------------------------------------------------------------------
# Set-up and passes
# ---------------------------------------------------------------------------


def setup(args, workdir: Path):
    """Package import plus input generation; returns (pkg, workload, seconds)."""
    t0 = time.perf_counter()
    pkg = import_package()
    import workloads

    workload = workloads.build(pkg, args.workload, args.seed, args.size, workdir)
    return pkg, workload, time.perf_counter() - t0


def probe_setup(args) -> list:
    """Set-up times from fresh processes, so setup_s is a median."""
    samples = []
    for i in range(SETUP_PROBES[args.size]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            print(f"warning: set-up probe {i} timed out")
            continue
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"warning: set-up probe {i} failed: {proc.stderr.strip()[-400:]}")
            continue
        samples.append(json.loads(lines[-1])["setup_s"])
    return samples


def run_pass(workload, fingerprints: dict, tracer=None, index=0) -> dict:
    """One pass over the job list; a failing job is recorded, never raised."""
    import workloads

    jobs = []
    t0 = time.perf_counter()
    for job in workload.jobs:
        if tracer is not None:
            tracer.job = f"{index}:{job.name}"
        j0 = time.perf_counter()
        trace_text = None
        try:
            outcome = job.run()
        except Exception as exc:  # the benchmark keeps running and reports the job
            outcome = workloads.Outcome(0, "", [f"{type(exc).__name__}: {exc}"])
            trace_text = traceback.format_exc()
        elapsed = time.perf_counter() - j0
        errors = list(outcome.errors)
        if outcome.fingerprint:
            first = fingerprints.setdefault(job.name, outcome.fingerprint)
            if outcome.fingerprint != first:
                errors.append("outputs differ from the first pass with this seed")
        jobs.append({"name": job.name, "seconds": elapsed, "work": outcome.work,
                     "counts_work": job.counts_work, "errors": errors,
                     "traceback": trace_text})
    wall = time.perf_counter() - t0
    counted = [j for j in jobs if j["counts_work"]]
    work_time = sum(j["seconds"] for j in counted)
    work = sum(j["work"] for j in counted)
    return {"index": index, "traced": tracer is not None, "wall_s": wall,
            "work": work, "work_per_s": work / work_time if work_time > 0 else 0.0,
            "jobs": jobs}


def measure(pkg, workload, args) -> tuple:
    """Passes until --seconds have gone by (at least two).  With tracing,
    passes alternate untraced / traced so the overhead can be taken."""
    tracer = tracing.Tracer() if args.trace else None
    targets = tracing.package_targets(pkg) if args.trace else None
    passes, fingerprints = [], {}
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        index = len(passes)
        if tracer is not None and index % 2 == 1:
            with tracer.installed(targets):
                passes.append(run_pass(workload, fingerprints, tracer, index))
        else:
            passes.append(run_pass(workload, fingerprints, None, index))
    return passes, tracer


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_results(passes, tracer, workers) -> tuple:
    traced = [p for p in passes if p["traced"]]
    selfs = tracing.self_times(tracer.spans)
    per_pass = [tracing.layer_seconds(tracer.spans, selfs, f"{p['index']}:") for p in traced]
    return tracing.layer_metrics(
        per_pass,
        [p["wall_s"] for p in traced],
        [p["wall_s"] for p in passes if not p["traced"]],
        workers,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def benchmark(args) -> dict:
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pkg, workload, own_setup = setup(args, workdir)
        workers = effective_workers(pkg, workload.dm_chains)
        if workload.dm_chains and workers > nproc():
            raise Refusal(
                f"dm sweeps would start {workers} pool workers on {nproc()} CPUs; "
                "unset SECRECY_REGIONS_THREADS or set it to at most the CPU count"
            )
        info = manifest(pkg, args, workers)
        print("manifest " + json.dumps(info, sort_keys=True))
        setup_samples = [own_setup] + probe_setup(args)
        passes, tracer = measure(pkg, workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if j["errors"]]
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    rates = [p["work_per_s"] for p in untraced]
    stats = {"setup_s": setup_samples, "wall_s": walls, "work_per_s": rates}
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(jobs)} jobs, {len(failed)} failed, error_rate {len(failed) / len(jobs):.6g}")
    for j in failed:
        print(f"error: {j['name']}: {'; '.join(j['errors'])}")
    for name in sorted({j["name"] for j in jobs}):
        times = [j["seconds"] for p in untraced for j in p["jobs"] if j["name"] == name]
        print(f"job {name}: {describe(times, 's')}")

    if args.trace:
        metrics, seconds = layer_results(passes, tracer, info["dm.workers"])
        units = tracing.LAYER_METRICS
        for name, secs in seconds.items():
            print(f"layer {name} = {secs:.6g} s")
        tracer.write(WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": median(setup_samples),
            "wall_s": median(walls),
            "work_per_s": median(rates),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END
        seconds = {}
        for name in ("setup_s", "wall_s", "work_per_s"):
            print(f"{name}: {describe(stats[name], units[name])}")
        print(f"{WORK_METRIC_NAMES[args.workload]} = {metrics['work_per_s']:.6g} 1/s "
              f"({workload.unit} per second of job wall time)")
    for name, value in metrics.items():
        print(f"metric {name} = {fmt(value)} {units[name]}")

    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"manifest": info, "result": result, "samples": stats,
              "layer_seconds": seconds, "passes": passes}
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result


def setup_probe(args) -> dict:
    workdir = WORK / f"probe-{os.getpid()}"
    try:
        _, _, seconds = setup(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"setup_s": seconds}


def record_digests(args) -> dict:
    """Write the sha256 of every figure output to reference_digests.json."""
    pkg = import_package()
    import workloads

    workdir = WORK / f"digests-{os.getpid()}"
    try:
        digests = {}
        for which in workloads.FIGURES:
            errors = workloads.run_cli(pkg, ["figure", which, "--out-dir", str(workdir)])
            if errors:
                raise Refusal(f"figure {which}: {errors}")
            for name in (f"{which}.csv", f"{which}_summary.json"):
                digests[name] = workloads.sha256_file(workdir / name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return digests


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: toy problem sizes for the benchmark's own tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite reference_digests.json from the current package")
    args = ap.parse_args(argv)
    if not args.record_digests and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.record_digests:
            print(json.dumps(record_digests(args), indent=2))
        elif args.setup_probe:
            print(json.dumps(setup_probe(args)))
        else:
            print(json.dumps(benchmark(args)))
    except Refusal as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
