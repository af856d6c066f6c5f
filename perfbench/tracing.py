"""Outside-in tracer: wraps the module attributes through which one layer of
secrecy_regions calls the next, records one span per call, and turns the
spans into per-layer metrics.

Nothing in the package is edited.  A wrapper is installed by replacing the
attribute a caller looks up at call time (for example `cli.sweep_region`,
which is the name the CLI uses to reach `dm.sweep_region`), and the original
is put back afterwards.

Spans live in memory as (name, start, end, parent, job, attrs) and are
written out once, when the run ends.  Only the calling process is traced:
the process-pool children that `dm.sweep_region` starts evaluate chains out
of sight, so chain evaluation and `info` entropies show up as `dm.sweep`
self time.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from statistics import median, median_low


class Tracer:
    """Span recorder with a parent stack; one instance per run."""

    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []

    def wrap(self, name, fn, count=None):
        """A callable that runs `fn` inside a span; `count(args, kwargs,
        result)` returns the span's counters."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": parent, "job": self.job, "attrs": {}}
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["attrs"] = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets):
        """Replace every target attribute with a traced wrapper, and restore
        the originals on exit.  A target is (owner, attribute, span name,
        counter); class methods and classmethods are handled."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__, count)))
                else:
                    setattr(owner, attr, self.wrap(name, raw, count))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def write(self, path) -> None:
        """All spans as JSON lines, self time included."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, self_s) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": i, **span, "self_s": self_s}, sort_keys=True) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its direct
    children cover (children are clipped to the parent and merged)."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s["start"]
        for c in sorted(children.get(i, ()), key=lambda k: spans[k]["start"]):
            lo = max(spans[c]["start"], reach)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s["end"] - s["start"]) - covered)
    return out


# ---------------------------------------------------------------------------
# Wrapped boundaries
# ---------------------------------------------------------------------------


def _vertices(args, kwargs, result):
    B = args[1] if len(args) > 1 else kwargs["B"]
    rows = len(B) if getattr(B, "ndim", 2) == 2 else 1
    return {"polytopes": rows, "candidates": len(result[0])}


def _frontier_add(args, kwargs, result):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return {"candidates": len(points)}


def _frontier_finish(args, kwargs, result):
    return {"survivors": len(result.points), "bound_rows": len(result.bound_rows)}


def _region_rows(args, kwargs, result):
    return {"rows": len(result.bound_rows)}


def _one(args, kwargs, result):
    return {"calls": 1}


def _simulation(args, kwargs, result):
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return {"n": args[0].n, "trials": int(trials)}


def _decode_rx1(args, kwargs, result):
    return {"none": int(result is None)}


def _posterior(args, kwargs, result):
    c = args[0].config
    return {"tuples": c.m0 * c.m1 * c.m1p * c.m2 * c.m2p}


def _written(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def package_targets(pkg) -> list:
    """(owner, attribute, span name, counter) for every wrapped boundary."""
    cli, dm, gaussian, geometry = pkg.cli, pkg.dm, pkg.gaussian, pkg.geometry
    binning, scenario = pkg.binning, pkg.scenario
    acc = geometry.FrontierAccumulator
    return [
        (gaussian, "batch_vertices", "geometry.batch_vertices", _vertices),
        (dm, "batch_vertices", "geometry.batch_vertices", _vertices),
        (acc, "add", "geometry.frontier", _frontier_add),
        (acc, "finish", "geometry.frontier", _frontier_finish),
        (geometry, "contains", "geometry.contains", _one),
        (geometry, "fm_eliminate", "geometry.fm_eliminate", _one),
        (gaussian, "sweep_gaussian", "gaussian.sweep", _region_rows),
        (cli, "sweep_gaussian", "gaussian.sweep", _region_rows),
        (cli, "sweep_region", "dm.sweep", _region_rows),
        (cli, "fm_matches_direct", "dm.fm_check", _one),
        (cli, "run_simulation", "binning.run_simulation", _simulation),
        (binning, "generate_codebook", "binning.codebook", None),
        (binning, "encode", "binning.encode", None),
        (binning, "transmit", "binning.transmit", None),
        (binning, "decode_rx1", "binning.decode_rx1", _decode_rx1),
        (binning, "decode_rx2", "binning.decode_rx2", None),
        (binning, "posterior_w1w2", "binning.posterior", _posterior),
        (scenario.ScenarioFile, "load", "scenario.load", None),
        (cli, "_write_csv", "cli.write", _written),
        (cli, "_write_json", "cli.write", _written),
    ]


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

BLOCKLENGTHS = (12, 16)
BINNING_STAGES = ("codebook", "encode", "transmit", "decode_rx1", "decode_rx2", "posterior")

# name -> unit.  Layer times are shares of the traced pass (`.pct`); the
# seconds behind them are printed and kept in the results file.
LAYER_METRICS = {
    "geometry.batch_vertices.pct": "%",
    "geometry.batch_vertices.polytopes": "count",
    "geometry.batch_vertices.candidates": "count",
    "geometry.frontier.pct": "%",
    "geometry.frontier.candidates": "count",
    "geometry.frontier.survivors": "count",
    "geometry.frontier.survivor_ratio": "ratio",
    "geometry.frontier.candidates_per_s": "1/s",
    "geometry.region.bound_rows": "count",
    "geometry.contains.pct": "%",
    "geometry.contains.queries": "count",
    "geometry.contains.queries_per_s": "1/s",
    "geometry.fm_eliminate.pct": "%",
    "geometry.fm_eliminate.calls": "count",
    "gaussian.sweep.pct": "%",
    "gaussian.sweep.self_pct": "%",
    "gaussian.grid_points": "count",
    "dm.sweep.pct": "%",
    "dm.sweep.self_pct": "%",
    "dm.chains": "count",
    "dm.chains_per_s": "1/s",
    "dm.workers": "count",
    "dm.fm_check.pct": "%",
    "dm.fm_check.chains": "count",
    **{
        f"binning.n{n}.{m}": unit
        for n in BLOCKLENGTHS
        for m, unit in [(f"{s}.pct", "%") for s in BINNING_STAGES]
        + [("self_pct", "%"), ("trials", "count"), ("decode_rx1.none", "count"),
           ("posterior.tuples", "count")]
    },
    "scenario.load.pct": "%",
    "cli.write.pct": "%",
    "cli.write.bytes": "bytes",
    "trace.overhead_pct": "%",
}

def _binning_n(spans, i):
    """Blocklength of the run_simulation span enclosing span i, if any."""
    while i >= 0:
        if spans[i]["name"] == "binning.run_simulation":
            return spans[i]["attrs"].get("n")
        i = spans[i]["parent"]
    return None


def layer_seconds(spans, selfs, job_prefix) -> dict:
    """Busy seconds, self seconds and counters per layer over the spans whose
    job starts with `job_prefix` (one traced pass); keys use the metric
    names above with `.s` in place of `.pct`.  `selfs` is self_times(spans).
    """
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        if not span["job"].startswith(job_prefix):
            continue
        # a call that raised has no counters
        name, attrs = span["name"], span["attrs"]
        dur = span["end"] - span["start"]
        if name.startswith("binning."):
            n = _binning_n(spans, i)
            stage = name.split(".", 1)[1]
            if stage == "run_simulation":
                add(f"binning.n{n}.self_s", self_s)
                add(f"binning.n{n}.trials", attrs.get("trials", 0))
            else:
                add(f"binning.n{n}.{stage}.s", dur)
                if stage == "decode_rx1":
                    add(f"binning.n{n}.decode_rx1.none", attrs.get("none", 0))
                if stage == "posterior":
                    add(f"binning.n{n}.posterior.tuples", attrs.get("tuples", 0))
            continue
        add(f"{name}.s", dur)
        if name == "geometry.batch_vertices":
            add("geometry.batch_vertices.polytopes", attrs.get("polytopes", 0))
            add("geometry.batch_vertices.candidates", attrs.get("candidates", 0))
        elif name == "geometry.frontier":
            add("geometry.frontier.candidates", attrs.get("candidates", 0))
            add("geometry.frontier.survivors", attrs.get("survivors", 0))
            add("geometry.region.bound_rows", attrs.get("bound_rows", 0))
        elif name == "geometry.contains":
            add("geometry.contains.queries", attrs.get("calls", 0))
        elif name == "geometry.fm_eliminate":
            add("geometry.fm_eliminate.calls", attrs.get("calls", 0))
        elif name == "gaussian.sweep":
            add("gaussian.grid_points", attrs.get("rows", 0))
            add("gaussian.sweep.self_s", self_s)
        elif name == "dm.sweep":
            add("dm.chains", attrs.get("rows", 0))
            add("dm.sweep.self_s", self_s)
        elif name == "dm.fm_check":
            add("dm.fm_check.chains", attrs.get("calls", 0))
        elif name == "cli.write":
            add("cli.write.bytes", attrs.get("bytes", 0))
    return out


# rate metric -> (count, busy seconds) it divides
RATES = {
    "geometry.frontier.candidates_per_s": ("geometry.frontier.candidates", "geometry.frontier.s"),
    "geometry.contains.queries_per_s": ("geometry.contains.queries", "geometry.contains.s"),
    "dm.chains_per_s": ("dm.chains", "dm.sweep.s"),
    "geometry.frontier.survivor_ratio": ("geometry.frontier.survivors", "geometry.frontier.candidates"),
}


def _pass_value(name, sec, wall):
    """One traced pass's value of a per-layer metric."""
    if name.endswith("pct"):
        return 100.0 * sec.get(name[: -len("pct")] + "s", 0.0) / wall
    if name in RATES:
        num, den = (sec.get(k, 0) for k in RATES[name])
        return num / den if den > 0 else 0.0
    return sec.get(name, 0)


def layer_metrics(per_pass, traced_walls, untraced_walls, workers) -> tuple:
    """Per-layer metric values (medians over traced passes; counts stay whole
    numbers) and the seconds behind the shares, from `layer_seconds` of each
    traced pass."""
    values: dict = {}
    for name, unit in LAYER_METRICS.items():
        samples = [_pass_value(name, sec, wall) for sec, wall in zip(per_pass, traced_walls)]
        values[name] = median(samples) if unit in ("%", "1/s") else median_low(samples)
    values["dm.workers"] = workers
    overhead = median(traced_walls) - median(untraced_walls)
    values["trace.overhead_pct"] = 100.0 * overhead / median(untraced_walls)
    seconds: dict = {}
    for sec in per_pass:
        for key, v in sec.items():
            if key.endswith((".s", "self_s")):
                seconds.setdefault(key, []).append(v)
    seconds = {k: median(v) for k, v in sorted(seconds.items())}
    seconds["trace.overhead_s"] = overhead
    return values, seconds
