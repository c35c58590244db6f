"""Traced in-process run: spans around the calls into each segkit layer.

The benchmark installs thin wrappers on the layer functions the CLI calls
(module attributes, restored afterwards), then runs each op through
segkit.cli.run in this process. So the traced op makes exactly the calls
the subcommand makes, in the same order, and no program code changes.
Each op gets a root span (cli.run) with one child span per wrapped call;
spans record name, start, end and parent, stay in memory, and are written
out when the run ends.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from segkit import cli, clustering, features, predict, region, retrieval, threshold

import checks
import workloads


class Tracer:
    def __init__(self):
        self.ops: list[dict] = []  # {"workload", "cycle", "slot", "kind"}
        self.spans: list[list] = []  # [op, id, parent, name, start_ns, end_ns]
        self.counters: list[tuple[int, str, int]] = []  # (op, name, value)
        self._stack: list[int] = []

    def begin_op(self, **info) -> None:
        """Later spans and counters belong to this op."""
        self.ops.append(info)

    def span(self, name: str, fn, *args, **kwargs):
        rec = [len(self.ops) - 1, len(self.spans), self._stack[-1] if self._stack else None, name, 0, 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        rec[4] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counters.append((len(self.ops) - 1, name, int(value)))


# Counters read from a wrapped call's arguments and result, after its span.
def _seed_counts(t, args, out):
    t.count("region.seeds", out.k)
    t.count("region.grown_px", (out.labels < 0).sum())


def _merge_counts(t, args, out):
    t.count("region.merged", args[0].k - out.k)


def _classify_counts(t, args, out):
    t.count("features.classified_px", out.labels.size)


def _refine_counts(t, args, out):
    t.count("features.refine_changed_px", (out.labels != args[0].labels).sum())


def _cluster_counts(t, args, out):
    t.count("clustering.iterations", out[1].iterations)
    t.count("clustering.converged", out[1].converged)


def _search_counts(t, args, out):
    t.count("retrieval.examined", out[1])
    t.count("retrieval.records", len(args[0].records))


# (module whose attribute the CLI path looks up, attribute, counters)
HOOKS = (
    (cli, "decode_pnm", None),
    (cli, "encode_pnm", None),
    (region, "box_smooth", None),
    (clustering, "sobel_magnitude", None),
    (threshold, "gray_histogram", None),
    (threshold, "otsu_threshold", None),
    (threshold, "valley_threshold", None),
    (threshold, "binarize", None),
    (clustering, "segment_clustering", _cluster_counts),
    (clustering, "edge_weights", None),
    (region, "primary_segment", None),
    (region, "select_seeds", _seed_counts),
    (region, "grow_regions", None),
    (region, "merge_small_regions", _merge_counts),
    (region, "region_stats", None),
    (features, "classify_windows", _classify_counts),
    (features, "refine_boundaries", _refine_counts),
    (retrieval, "decode_index", None),
    (retrieval, "encode_index", None),
    (retrieval, "ingest", None),
    (retrieval, "search_optimized", _search_counts),
    (predict, "parse_rulebase", None),
    (predict, "predict_label", None),
)


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _wrap(tracer: Tracer, fn, counters):
    name = span_name(fn)

    def traced(*args, **kwargs):
        out = tracer.span(name, fn, *args, **kwargs)
        if counters is not None:
            counters(tracer, args, out)
        return out

    return traced


@contextmanager
def hooks_installed(tracer: Tracer):
    saved = []
    try:
        for mod, attr, counters in HOOKS:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrap(tracer, fn, counters))
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ------------------------------------------------------------------ metrics
def _per_call(span):
    return lambda T, N, C: T[span] / N[span] if N[span] else None


def _count_per_call(counter, span):
    return lambda T, N, C: C[counter] / N[span] if N[span] else None


def _ratio(num, den, scale=1.0):
    return lambda T, N, C: scale * num(T, N, C) / den(T, N, C) if den(T, N, C) else None


def _t(span):
    return lambda T, N, C: T[span]


def _c(counter):
    return lambda T, N, C: C[counter]


_MS = ("ms", "lower")
# name -> (unit, better, value from per-cycle span totals T (ms), call
# counts N and counter sums C). The order is BENCHMARK.json's per_layer order.
PER_LAYER = {
    "region.select_seeds_ms": (*_MS, _per_call("region.select_seeds")),
    "region.grow_regions_ms": (*_MS, _per_call("region.grow_regions")),
    "region.merge_small_regions_ms": (*_MS, _per_call("region.merge_small_regions")),
    "region.region_stats_ms": (*_MS, _per_call("region.region_stats")),
    "region.seeds": ("count", "higher", _count_per_call("region.seeds", "region.select_seeds")),
    "region.grown_px": ("count", "lower", _count_per_call("region.grown_px", "region.select_seeds")),
    "region.merged": ("count", "lower", _count_per_call("region.merged", "region.merge_small_regions")),
    "region.grow_us_per_px": ("us/px", "lower", _ratio(_t("region.grow_regions"), _c("region.grown_px"), 1e3)),
    "features.classify_windows_ms": (*_MS, _per_call("features.classify_windows")),
    "features.refine_boundaries_ms": (*_MS, _per_call("features.refine_boundaries")),
    "features.classify_ns_per_px": (
        "ns/px", "lower", _ratio(_t("features.classify_windows"), _c("features.classified_px"), 1e6)),
    "features.refine_changed_px": (
        "count", "lower", _count_per_call("features.refine_changed_px", "features.refine_boundaries")),
    "clustering.segment_clustering_ms": (*_MS, _per_call("clustering.segment_clustering")),
    "clustering.edge_weights_ms": (*_MS, _per_call("clustering.edge_weights")),
    "raster.sobel_magnitude_ms": (*_MS, _per_call("raster.sobel_magnitude")),
    "clustering.iterations": (
        "count", "lower", _count_per_call("clustering.iterations", "clustering.segment_clustering")),
    "clustering.converged_ratio": (
        "ratio", "higher", _count_per_call("clustering.converged", "clustering.segment_clustering")),
    "clustering.ms_per_iteration": (
        "ms", "lower", _ratio(_t("clustering.segment_clustering"), _c("clustering.iterations"))),
    "threshold.gray_histogram_ms": (*_MS, _per_call("threshold.gray_histogram")),
    "threshold.otsu_threshold_ms": (*_MS, _per_call("threshold.otsu_threshold")),
    "threshold.valley_threshold_ms": (*_MS, _per_call("threshold.valley_threshold")),
    "threshold.binarize_ms": (*_MS, _per_call("threshold.binarize")),
    "retrieval.decode_index_ms": (*_MS, _per_call("retrieval.decode_index")),
    "retrieval.encode_index_ms": (*_MS, _per_call("retrieval.encode_index")),
    "retrieval.ingest_ms": (*_MS, _per_call("retrieval.ingest")),
    "retrieval.search_optimized_ms": (*_MS, _per_call("retrieval.search_optimized")),
    "retrieval.search_exhaustive_ms": (*_MS, _per_call("retrieval.search_exhaustive")),
    "retrieval.examined_fraction": (
        "ratio", "lower", _ratio(_c("retrieval.examined"), _c("retrieval.records"))),
    "raster.decode_pnm_ms": (*_MS, _per_call("raster.decode_pnm")),
    "raster.encode_pnm_ms": (*_MS, _per_call("raster.encode_pnm")),
    "raster.box_smooth_ms": (*_MS, _per_call("raster.box_smooth")),
    "predict.parse_rulebase_ms": (*_MS, _per_call("predict.parse_rulebase")),
    "predict.predict_label_ms": (*_MS, _per_call("predict.predict_label")),
    "cli.run_ms": (*_MS, _per_call("cli.run")),
    "cli.startup_ms": (*_MS, None),  # subprocess `import segkit.cli`, timed apart
}


def layer_metrics(tracer: Tracer, workload: str) -> dict[str, float]:
    """Each metric as the median over the workload's traced cycles of its
    per-cycle value; metrics the workload never exercises are left out."""
    per_cycle = defaultdict(lambda: (defaultdict(float), defaultdict(int), defaultdict(int)))
    for op, _, _, name, t0, t1 in tracer.spans:
        info = tracer.ops[op]
        if info["workload"] == workload:
            T, N, _ = per_cycle[info["cycle"]]
            T[name] += (t1 - t0) / 1e6
            N[name] += 1
    for op, name, value in tracer.counters:
        info = tracer.ops[op]
        if info["workload"] == workload:
            per_cycle[info["cycle"]][2][name] += value
    out = {}
    for metric, (_, _, fn) in PER_LAYER.items():
        if fn is None:
            continue
        values = [v for v in (fn(*tc) for tc in per_cycle.values()) if v is not None]
        if values:
            out[metric] = statistics.median(values)
    return out


def self_times(tracer: Tracer, workload: str) -> dict[str, tuple[int, float, float]]:
    """Per span name: calls, total ms and self ms (duration minus the part
    its child spans cover)."""
    child_ns = defaultdict(int)
    for _, _, parent, _, t0, t1 in tracer.spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for op, sid, _, name, t0, t1 in tracer.spans:
        if tracer.ops[op]["workload"] == workload:
            row = table[name]
            row[0] += 1
            row[1] += (t1 - t0) / 1e6
            row[2] += (t1 - t0 - child_ns[sid]) / 1e6
    return {name: tuple(row) for name, row in table.items()}


def nesting_errors(tracer: Tracer) -> list[str]:
    """Spans whose direct children add up to more than the span itself."""
    child_ns = defaultdict(int)
    for _, _, parent, _, t0, t1 in tracer.spans:
        if parent is not None:
            child_ns[parent] += t1 - t0
    return [
        f"op {op} span {name}: children {child_ns[sid]} ns > {t1 - t0} ns"
        for op, sid, _, name, t0, t1 in tracer.spans
        if t1 < t0 or child_ns[sid] > t1 - t0
    ]


# --------------------------------------------------------------- the run
def run_inprocess(op, workdir: str, tracer: Tracer | None):
    """One op through segkit.cli.run in this process: (seconds, rc, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        t0 = time.perf_counter()
        if tracer is None:
            rc = cli.run(op.argv, out, err)
        else:
            rc = tracer.span("cli.run", cli.run, op.argv, out, err)
        elapsed = time.perf_counter() - t0
    finally:
        os.chdir(cwd)
    return elapsed, rc, out.getvalue().encode("utf-8")


def cli_startup_ms(env: dict, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import segkit.cli"], env=env, check=True)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _cycle(tracer, workload, cycle, setup, workdir, traced, first, failures) -> float:
    """Run the cycle's ops once in-process; returns the summed cli.run time."""
    workloads.reset(setup, workdir)
    total = 0.0
    for op in setup.ops:
        workloads.clear_output(op, workdir)
        reference = retrieval.search_exhaustive
        if traced:
            tracer.begin_op(workload=workload, cycle=cycle, slot=op.slot, kind=op.kind)
            with hooks_installed(tracer):  # only around the op: checks stay untraced
                elapsed, rc, stdout = run_inprocess(op, workdir, tracer)
            if op.kind == "query":
                # the in-process reference ranking gets its own op and root span
                tracer.begin_op(workload=workload, cycle=cycle, slot=op.slot, kind="reference")

                def reference(*args):
                    return tracer.span("retrieval.search_exhaustive", retrieval.search_exhaustive, *args)
        else:
            elapsed, rc, stdout = run_inprocess(op, workdir, None)
        total += elapsed
        output = workloads.read_output(setup, op, workdir)
        key = (workload, op.slot)
        if key not in first:
            first[key] = (rc, stdout, output)
            bad = checks.check(setup, op, rc, stdout, output, search=reference)
        else:
            bad = None if first[key] == (rc, stdout, output) else "repeat differs from its first occurrence"
            if traced and op.kind == "query":  # time the reference search on every traced cycle
                checks.expected_query(setup, op, search=reference)
        if bad:
            failures.append(f"{workload} slot {op.slot} ({' '.join(op.argv[:3])}): {bad}")
    return total


def traced_run(workload: str, seed: int, setup, workdir: str, seconds: float, env: dict, trace_path: str):
    """Returns (per-layer metrics, attempted, failures, report lines)."""
    tracer = Tracer()
    first, failures, attempted = {}, [], 0
    startup = cli_startup_ms(env)
    ratios = []
    t_start = time.perf_counter()
    cycle = 0
    while cycle == 0 or time.perf_counter() - t_start < seconds:
        totals = {}
        for traced in ((False, True) if cycle % 2 == 0 else (True, False)):
            totals[traced] = _cycle(tracer, workload, cycle, setup, workdir, traced, first, failures)
            attempted += len(setup.ops)
        ratios.append(totals[True] / totals[False])
        cycle += 1
    metrics = layer_metrics(tracer, workload)
    metrics["cli.startup_ms"] = startup
    sources = {}
    # Layers this workload never calls are measured on one traced cycle of
    # the first workload that does, so every per-layer metric is reported.
    for other in workloads.WORKLOADS:
        missing = [m for m in PER_LAYER if m not in metrics]
        if not missing:
            break
        if other == workload:
            continue
        other_dir = os.path.join(workdir, other)
        os.makedirs(other_dir, exist_ok=True)
        other_setup = workloads.build(other, seed, other_dir)
        _cycle(tracer, other, 0, other_setup, other_dir, True, first, failures)
        attempted += len(other_setup.ops)
        filled = layer_metrics(tracer, other)
        for m in missing:
            if m in filled:
                metrics[m] = filled[m]
                sources[m] = other
    failures += nesting_errors(tracer)
    missing = [m for m in PER_LAYER if m not in metrics]
    failures += [f"per-layer metric {m} was never measured" for m in missing]

    with open(trace_path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": tracer.ops, "counters": tracer.counters,
                   "spans": [dict(zip(("op", "id", "parent", "name", "start_ns", "end_ns"), s)) for s in tracer.spans]},
                  fh)
    overhead = statistics.median(ratios) - 1.0
    lines = [f"traced cycles: {cycle}; tracing overhead vs untraced in-process cli.run: {overhead * 100:+.2f}%",
             f"spans written to {os.path.relpath(trace_path)}",
             "self time by span (this workload's traced cycles): calls, total ms, self ms"]
    for name, (calls, total, own) in sorted(self_times(tracer, workload).items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:34s} {calls:6d} {total:12.2f} {own:12.2f}")
    for m, other in sorted(sources.items()):
        lines.append(f"  {m} measured on {other} (not exercised by {workload})")
    return metrics, attempted, failures, lines
