"""segkit benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 runs the workload's op cycle as `segkit` subprocesses, one at a
time (a closed loop with one client), for about S seconds of whole cycles,
checks every output, and reports the end-to-end metrics, with every time
scaled to a reference CPU speed (see SpeedScale). --trace 1 runs the same
ops in-process with spans around each layer's calls and reports the
per-layer metrics. Human-readable lines go first; the last line of
stdout is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")

# The installed `segkit` console script runs exactly this.
CLI = [sys.executable, "-c", "from segkit.cli import main; main()"]
SETUP_REPEATS = 7
# The CPU speed of the hosts this benchmark runs on drifts by tens of
# percent over seconds to minutes, and each vCPU drifts on its own. So the
# benchmark and every op it starts run on one CPU, a fixed calibration job
# runs on that CPU between ops, and each time is scaled by
# CAL_REF_MS / (the mean calibration time just before and just after it):
# reported times are what the work takes on a CPU that runs the
# calibration job in CAL_REF_MS. Raw wall times are printed alongside.
CAL_REF_MS = 16.0
_CAL_DATA = np.random.default_rng(0).random(20000)
# Fixed so that commits stay comparable: the highest round percentile with
# at least ten samples beyond it on both workloads at the seed commit
# (image-mix runs 78-130 ops in 55 s).
TAIL_PCT = 85
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one CPU; returns it."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> float:
    """Seconds that one fixed job of Python bytecode and numpy calls takes
    now, on this process's CPU: about CAL_REF_MS on the reference CPU."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(160000):
        acc += i * i % 7
    for _ in range(22):
        np.sort(_CAL_DATA)
    return time.perf_counter() - t0


class SpeedScale:
    """Scales the time of work that ran between two calibrations."""

    def __init__(self):
        self.last = calibrate()
        self.raw_s = []  # unscaled seconds of each scaled measurement

    def scale(self, seconds: float) -> float:
        now = calibrate()
        factor = CAL_REF_MS / 1e3 / ((self.last + now) / 2)
        self.last = now
        self.raw_s.append(seconds)
        return seconds * factor


def run_subprocess(argv: list[str], cwd: str, env: dict):
    """One CLI op: (seconds, exit code, stdout, stderr, child ru_maxrss in KiB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(CLI + argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    stdout = proc.stdout.read()
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return elapsed, proc.returncode, stdout, stderr, usage.ru_maxrss


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of the sorted values."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """The pct-th percentile and how many samples lie beyond it."""
    v = percentile(values, pct)
    return v, sum(x > v for x in values)


def highest_tail(values: list[float]) -> tuple[float, float, int]:
    """(pct, value, beyond) for the highest of 50/75/80/90/95/99 with at
    least ten samples beyond it; p50 when there are too few samples."""
    best = (50.0, *tail(values, 50.0))
    for pct in (75.0, 80.0, 90.0, 95.0, 99.0):
        value, beyond = tail(values, pct)
        if beyond >= 10:
            best = (pct, value, beyond)
    return best


def judge(setup, first: dict, samples: list) -> tuple[list[str], int]:
    """Check each slot's first result; an op fails when that result fails
    its check or when the op's bytes differ from it. Returns the failure
    messages and the number of failed ops."""
    import checks

    failures, bad_slots = [], set()
    for op in setup.ops:
        (rc, stdout, output), stderr = first[op.slot]
        bad = checks.check(setup, op, rc, stdout, output)
        if bad:
            bad_slots.add(op.slot)
            err = stderr.decode(errors="replace").strip().splitlines()
            failures.append(f"slot {op.slot} ({' '.join(op.argv)}): {bad}" + (f" [{err[-1]}]" if err else ""))
    for op, _, _, same in samples:
        if not same:
            failures.append(f"slot {op.slot}: a repeat produced different stdout or output bytes")
    return failures, sum(1 for op, _, _, same in samples if op.slot in bad_slots or not same)


def end_to_end(setup, workdir: str, seconds: float, env: dict):
    """Closed loop, one client: whole cycles of subprocess ops until the next
    cycle would end past `seconds` (at least two, so every op repeats)."""
    import workloads

    # untimed warm-up: byte-compile segkit and fault the interpreter in
    subprocess.run([sys.executable, "-c", "import segkit.cli"], env=env, check=True)
    samples = []  # (op, scaled seconds, maxrss KiB, same bytes as the slot's first run)
    first = {}
    speed = SpeedScale()
    t_start = time.perf_counter()
    cycles = 0
    while True:
        workloads.reset(setup, workdir)
        for op in setup.ops:
            workloads.clear_output(op, workdir)
            elapsed, rc, stdout, stderr, rss = run_subprocess(op.argv, workdir, env)
            elapsed = speed.scale(elapsed)
            result = (rc, stdout, workloads.read_output(setup, op, workdir))
            first.setdefault(op.slot, (result, stderr))
            samples.append((op, elapsed, rss, first[op.slot][0] == result))
        cycles += 1
        spent = time.perf_counter() - t_start
        if cycles >= 2 and spent * (cycles + 1) / cycles > seconds:
            break

    failures, failed = judge(setup, first, samples)

    lat = [s * 1e3 for _, s, _, _ in samples]
    raw = [s * 1e3 for s in speed.raw_s]
    tail_ms, beyond = tail(lat, TAIL_PCT)
    metrics = {
        "ops_per_s": len(lat) / sum(s for _, s, _, _ in samples),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": max(rss for _, _, rss, _ in samples) / 1024.0,
    }
    lines = [
        f"closed loop, 1 client: {cycles} cycles x {len(setup.ops)} ops = {len(lat)} ops in {spent:.1f} s",
        f"error_rate {failed / len(lat):.4f} ({failed} failed of {len(lat)} attempted)",
        f"latency_tail_ms is p{TAIL_PCT}: {tail_ms:.1f} ms with {beyond} of {len(lat)} samples beyond it",
        f"unscaled wall times: p50 {statistics.median(raw):.1f} ms, p{TAIL_PCT} {percentile(raw, TAIL_PCT):.1f} ms, "
        f"{len(raw) / sum(raw) * 1e3:.3f} ops/s (scaled/unscaled p50 {statistics.median(lat) / statistics.median(raw):.3f})",
    ]
    for group in dict.fromkeys(op.group for op in setup.ops):
        g_lat = [s * 1e3 for op, s, _, _ in samples if op.group == group]
        g_pct, g_tail, g_beyond = highest_tail(g_lat)
        lines.append(
            f"{group}_p50_ms {statistics.median(g_lat):.1f}  {group}_tail_ms {g_tail:.1f} "
            f"(p{g_pct:g}, {g_beyond} of {len(g_lat)} beyond)"
        )
    return metrics, len(lat), failed, failures, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "segkit", "cli.py")):
        print(f"run.py: no segkit sources under {SRC}; run from a segkit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    env = dict(os.environ)
    # one CPU, so no BLAS/OpenMP thread pools that would only time-slice it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else SRC
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setup_times, digests = [], set()
        speed = SpeedScale()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            setup = workloads.build(args.workload, args.seed, workdir)
            setup_times.append(speed.scale(time.perf_counter() - t0))
            digests.add(hashlib.sha256(b"".join(setup.files[k] for k in sorted(setup.files))).hexdigest())
        setup_failures = [] if len(digests) == 1 else ["the same seed generated different inputs"]

        if args.trace:
            import tracing

            trace_path = os.path.join(WORK, f"trace-{args.workload}-s{args.seed}.json")
            metrics, attempted, failures, lines = tracing.traced_run(
                args.workload, args.seed, setup, workdir, args.seconds, env, trace_path)
            failed = len(failures)
            units = {m: unit for m, (unit, _, _) in tracing.PER_LAYER.items()}
        else:
            metrics, attempted, failed, failures, lines = end_to_end(setup, workdir, args.seconds, env)
            metrics["setup_s"] = statistics.median(setup_times)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = setup_failures + failures
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, pinned to CPU {cpu}, "
          f"setup_s median of {SETUP_REPEATS}: {statistics.median(setup_times):.4f} "
          f"(unscaled {statistics.median(speed.raw_s):.4f})")
    print("\n".join(lines))
    for f in failures[:20]:
        print(f"FAIL {f}")
    for name in units:
        print(f"{name:34s} {metrics[name]:14.4f} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
