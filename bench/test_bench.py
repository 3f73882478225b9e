"""Tests of the benchmark harness itself:

    python3 -m pytest bench/test_bench.py -q
"""

import filecmp
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from reference import REFERENCES, run_reference
from tracer import COUNTS, Tracer, instrument, layer_metrics, metric_unit, save_spans
from workloads import WORKLOADS, CheckFailed, import_package, write_configs

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
package = import_package()

# every subcommand once, at sizes that keep a traced pass short
SMALL = [
    ("nonstandard", {"rates": "poly:1:2", "N": 6, "lambda": 1, "t": 1}),
    ("minimal", {"rates": "poly:1:2", "lambda": 1, "N": 8, "tol": 1e-10}),
    ("birth", {"rates": "geom:1.01", "lambda": [0.5, 2], "N": 60}),
    ("birth", {"rates": "poly:1:4", "lambda": 1, "N": 30}),
    ("trajectory", {"rates": "geom:2", "lambda": [0.5, 2], "samples": 400,
                    "horizon": 50, "max_jumps": 60}),
    ("diffusion", {"X": 12, "h": 0.05, "t": 0.5, "lambda": 1}),
    ("shift-demo", {"X": 8, "h": 0.01, "psi": "gauss:2:0.4"}),
]


def _traced_pass(jobs, seed):
    tracer = Tracer()
    with instrument(package, tracer):
        result = run.run_pass(package.cli, jobs, seed, tracer)
    return result, result.layers, result.spans


def _counts(metrics):
    return {name: value for name, value in metrics.items() if not name.endswith("_s")}


def test_traced_counts_repeat_and_outputs_unchanged(tmp_path):
    plain = write_configs(SMALL, tmp_path / "plain")
    assert not run.run_pass(package.cli, plain, 7).failures

    jobs = write_configs(SMALL, tmp_path / "traced")
    first, metrics, spans = _traced_pass(jobs, 7)
    assert not first.failures
    second, again, _ = _traced_pass(jobs, 7)
    assert not second.failures
    assert _counts(metrics) == _counts(again)

    for (_, _, _, out_plain), (_, _, _, out_traced) in zip(plain, jobs):
        names = sorted(p.name for p in out_plain.iterdir())
        assert names == sorted(p.name for p in out_traced.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(out_plain, out_traced, names,
                                                   shallow=False)
        assert not mismatch and not errors

    assert metrics["operators.superop_bytes"] == 16 * (6 ** 4 + 8 ** 4)
    assert metrics["operators.superop_matrix.calls"] == 2
    assert metrics["trajectories.samples"] == 400
    assert metrics["diffusion.grid_points"] == 2 * 241 ** 2
    assert metrics["cli.bytes_written"] == sum(
        p.stat().st_size for _, _, _, out in jobs for p in out.iterdir())
    for name in ("generators.apply.calls", "resolvent.series.iterations",
                 "birth.arrival.factors", "birth.resolvent.calls", "rates.mu.calls",
                 "rates.inverse_tail.calls", "trajectories.jumps"):
        assert metrics[name] > 0, name
    assert metrics["trace.spans"] == len(spans["start"])
    assert all(end >= start for start, end in zip(spans["start"], spans["end"]))
    save_spans(tmp_path / "spans.npz", ["x"], [spans, spans])
    with np.load(tmp_path / "spans.npz") as saved:
        assert list(saved["pass"]) == [0] * len(spans["start"]) + [1] * len(spans["start"])
        assert list(saved["parent"][:len(spans["start"])]) == list(spans["parent"])


def test_instrument_rebinds_every_holder_and_restores():
    cli, birth, generators = package.cli, package.birth, package.generators
    original = birth.arrival_laplace
    call = generators.StandardGeneratorSpec.__call__
    with instrument(package, Tracer()):
        assert cli.arrival_laplace is birth.arrival_laplace is package.arrival_laplace
        assert birth.arrival_laplace is not original
        assert birth.arrival_laplace.__wrapped__ is original
        assert generators.StandardGeneratorSpec.__call__ is not call
    assert cli.arrival_laplace is original and package.arrival_laplace is original
    assert generators.StandardGeneratorSpec.__call__ is call


def test_self_time_excludes_children():
    tracer = Tracer()
    outer, inner = tracer.name_id("a.outer"), tracer.name_id("b.inner")
    frame = tracer.begin(outer)
    child = tracer.begin(inner)
    tracer.end(child)
    tracer.end(frame)
    aggregates, spans = tracer.take_pass()
    duration = spans["end"][0] - spans["start"][0]
    child_duration = spans["end"][1] - spans["start"][1]
    assert list(spans["parent"]) == [-1, 0]
    assert aggregates["self_s"]["a.outer"] == pytest.approx(duration - child_duration)
    assert aggregates["entries"] == {"a.outer": 1, "b.inner": 1}


def test_failures_are_counted_and_the_pass_goes_on(tmp_path):
    jobs = write_configs([
        # escapes cli.run as RuntimeError after 10**7 factors
        ("birth", {"rates": "poly:1:2.5", "lambda": [0.5, 1, 2], "N": 200}),
        ("birth", {"rates": "poly:1", "lambda": 1, "N": 10}),      # exit 2
        ("birth", {"rates": "list:1,2", "lambda": 1, "N": 2}),     # exit 3
        ("birth", {"rates": "poly:1:3", "lambda": 1, "N": 20}),
    ], tmp_path)
    result = run.run_pass(package.cli, jobs, 0)
    assert len(result.failures) == 3
    assert "RuntimeError" in result.failures[0]
    assert "exit code 2" in result.failures[1]
    assert "exit code 3" in result.failures[2]
    assert (jobs[3][3] / "arrival.csv").is_file()


def test_failed_checks_mark_the_run_incorrect(tmp_path, monkeypatch):
    def reject(config, out, seed):
        raise CheckFailed("rejected")

    monkeypatch.setitem(run.CHECKS, "shift-demo", reject)
    jobs = write_configs([("shift-demo", {"X": 8, "h": 0.01, "psi": "gauss:2:0.4"})],
                         tmp_path)
    summary = run.summarize(*run.end_to_end(package.cli, jobs, 0, 0.0, [0.5], "kernel-io"))
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] == run.MIN_PASSES
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_every_workload_has_a_reference_batch():
    assert set(REFERENCES) == set(WORKLOADS) == {w["name"] for w in SPEC["workloads"]}
    for workload in REFERENCES:
        batches, wall, cpu = run_reference(workload, 0.0)
        assert batches == 1 and wall > 0 and cpu > 0


def test_per_layer_metrics_match_benchmark_json():
    empty = {"calls": {}, "entries": {}, "self_s": {}, "counts": dict.fromkeys(COUNTS, 0)}
    names = list(layer_metrics(empty)) + ["trace.wall_s", "trace.overhead_s"]
    assert {name: metric_unit(name) for name in names} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "kernel-io", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "cannot import semigroup_lab" in done.stderr
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
