"""Tests of the benchmark itself (not part of the segkit suite):

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

They run a few real CLI ops and show that the output checks catch broken
results, that the failure count feeds error_rate, that spans nest, and
that BENCHMARK.json names exactly the metrics run.py and tracing.py emit.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=run.SRC)


def _run(setup, op, workdir):
    workloads.clear_output(op, str(workdir))
    _, rc, stdout, _, _ = run.run_subprocess(op.argv, str(workdir), ENV)
    return rc, stdout, workloads.read_output(setup, op, str(workdir))


def test_corrupted_label_map_counts_as_failed(tmp_path):
    setup = workloads.build("image-mix", 3, str(tmp_path))
    op = next(op for op in setup.ops if op.kind == "threshold")
    rc, stdout, output = _run(setup, op, tmp_path)
    assert checks.check(setup, op, rc, stdout, output) is None

    off_palette = output[:-1] + bytes([7])
    assert "palette" in checks.check(setup, op, rc, stdout, off_palette)
    flipped = output[:-1] + bytes([255 - output[-1]])
    assert checks.check(setup, op, rc, stdout, flipped) is not None
    assert checks.check(setup, op, rc, stdout, output[:-1]) is not None
    assert checks.check(setup, op, rc, stdout, None) == "no output file"
    assert checks.check(setup, op, 3, stdout, output) == "exit code 3"

    # every repeat of the slot counts: the first result is bad, and a repeat
    # with different bytes fails even when the first one was good
    first = {o.slot: ((0, b"", None), b"") for o in setup.ops}
    first[op.slot] = ((rc, stdout, off_palette), b"")
    samples = [(o, 0.1, 1, True) for o in setup.ops] * 2
    failures, failed = run.judge(setup, first, samples)
    assert failed == len(samples)
    first = {}
    for o in setup.ops:
        first[o.slot] = (_run(setup, o, tmp_path), b"")
    samples = [(o, 0.1, 1, True) for o in setup.ops] + [(op, 0.1, 1, False)]
    failures, failed = run.judge(setup, first, samples)
    assert failed == 1 and "repeat" in failures[0]


def test_python_m_segkit_cli_is_an_empty_result(tmp_path):
    """`python -m segkit.cli` exits 0 and does nothing: the check must say so."""
    import subprocess

    setup = workloads.build("image-mix", 3, str(tmp_path))
    op = next(op for op in setup.ops if op.kind == "threshold")
    workloads.clear_output(op, str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "segkit.cli", *op.argv], cwd=tmp_path, env=ENV,
                          capture_output=True)
    output = workloads.read_output(setup, op, str(tmp_path))
    assert checks.check(setup, op, proc.returncode, proc.stdout, output) == "empty stdout"


def test_retrieval_checks_catch_wrong_rows_and_index_bytes(tmp_path):
    setup = workloads.build("retrieval-mix", 5, str(tmp_path))
    results = {}
    for op in setup.ops:  # one cycle in order: queries see earlier ingests
        results[op.slot] = _run(setup, op, tmp_path)
        assert checks.check(setup, op, *results[op.slot]) is None, op.argv
    query = next(op for op in setup.ops if op.kind == "query" and op.state > 0)
    rc, stdout, output = results[query.slot]
    rows = stdout.split(b"\n")
    swapped = b"\n".join([rows[1], rows[0], *rows[2:]])
    assert checks.check(setup, query, rc, swapped, output) is not None
    ingest = next(op for op in setup.ops if op.kind == "ingest")
    rc, stdout, output = results[ingest.slot]
    assert checks.check(setup, ingest, rc, stdout, output.replace(b"\t", b" ", 1)) is not None
    assert checks.check(setup, ingest, rc, b"0\n", output) is not None


def test_same_seed_same_inputs(tmp_path):
    a = workloads.build("image-mix", 9, str(tmp_path))
    b = workloads.build("image-mix", 9, str(tmp_path))
    c = workloads.build("image-mix", 10, str(tmp_path))
    assert a.files == b.files and a.files != c.files
    assert [op.argv for op in a.ops] == [op.argv for op in c.ops]


def test_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    ref = run.CAL_REF_MS / 1e3
    calibrations = iter([2 * ref, 2 * ref, ref / 2])
    monkeypatch.setattr(run, "calibrate", lambda: next(calibrations))
    speed = run.SpeedScale()
    # the CPU takes twice the reference time for the job: half speed
    assert abs(speed.scale(1.0) - 0.5) < 1e-12
    # the next time is scaled by the mean of 2 x ref before and ref / 2 after
    assert abs(speed.scale(1.0) - 0.8) < 1e-12
    assert speed.raw_s == [1.0, 1.0]


def test_spans_nest_and_children_fit_in_parents(tmp_path):
    setup = workloads.build("image-mix", 4, str(tmp_path))
    tracer = tracing.Tracer()
    with tracing.hooks_installed(tracer):
        for op in setup.ops[:2]:
            tracer.begin_op(workload="image-mix", cycle=0, slot=op.slot, kind=op.kind)
            _, rc, _ = tracing.run_inprocess(op, str(tmp_path), tracer)
            assert rc == 0
    assert tracing.nesting_errors(tracer) == []
    names = [s[3] for s in tracer.spans]
    assert names[0] == "cli.run" and "region.grow_regions" in names
    roots = [s for s in tracer.spans if s[2] is None]
    assert len(roots) == 2
    # hooks are removed afterwards
    from segkit import region

    assert region.grow_regions.__module__ == "segkit.region"
    tracer.spans.append([0, len(tracer.spans), 0, "bogus", 0, 10**15])
    assert tracing.nesting_errors(tracer)


def test_benchmark_json_matches_emitted_metrics():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()
    ]
