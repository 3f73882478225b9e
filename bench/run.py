"""End-to-end benchmark of the semigroup-lab CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs from the root of a source checkout and imports ``semigroup_lab`` from
its ``src/``.  One pass runs every config of the workload once through
``semigroup_lab.cli.run`` in this process, with ``--seed`` passed to every
subcommand; the pass is timed from outside and its outputs are then checked
against independent oracles, outside the timed region.  Passes repeat
until ``--seconds`` have gone by.  Untraced passes are interleaved with the
workload's reference batches (see reference.py), and the end-to-end times
are pass times in units of the reference batch time.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` half the time runs untraced and half traced, and it
reports the per-layer metrics (see tracer.py).  Every run also writes its
result, with the pass times and an environment record, under
``.bench_out/``; a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from reference import run_reference
from tracer import Tracer, instrument, layer_metrics, median_metrics, metric_unit, \
    save_spans
from workloads import CHECKS, ROOT, WORKLOADS, import_package, write_configs

OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
MIN_PASSES = 3
REFERENCE_SHARE = 0.5   # reference seconds after a pass, per second of the pass


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    failures: list = field(default_factory=list)
    reference: tuple = None   # (batches, wall s, cpu s) of the reference after it
    layers: dict = None   # per-layer metrics of a traced pass
    spans: dict = None    # and its spans


def run_pass(cli, jobs, seed: int, tracer: Tracer = None) -> PassResult:
    """Run every job once through cli.run, timed (and traced, if a tracer is
    given); then check the outputs.

    A nonzero exit, an exception escaping cli.run or a failed oracle check
    fails the pass; the remaining jobs still run.
    """
    codes = []
    with tracer.recording() if tracer is not None else contextlib.nullcontext():
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for subcommand, config, path, out in jobs:
            try:
                codes.append(cli.run([subcommand, "--config", str(path), "--out", str(out),
                                      "--seed", str(seed)]))
            except Exception:
                codes.append(traceback.format_exc(limit=-3))
        result = PassResult(time.perf_counter() - wall0, time.process_time() - cpu0)
    if tracer is not None:
        aggregates, result.spans = tracer.take_pass()
        result.layers = layer_metrics(aggregates)
    for (subcommand, config, path, out), code in zip(jobs, codes):
        if code != 0:
            reason = f"exit code {code}" if isinstance(code, int) else f"raised\n{code}"
            result.failures.append(f"{subcommand} {json.dumps(config)}: {reason}")
            continue
        try:
            CHECKS[subcommand](config, out, seed)
        except Exception as exc:
            result.failures.append(f"{subcommand} {json.dumps(config)}: check failed: "
                                   f"{type(exc).__name__}: {exc}")
    for failure in result.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return result


def run_passes(cli, jobs, seed: int, seconds: float, min_passes: int,
               tracer: Tracer = None, workload: str = None) -> list:
    """At least `min_passes` passes, then more while the next one, judged by
    the longest so far, still ends within `seconds`.

    Given a workload, its reference batches run for a warm-up second first,
    then after every pass for REFERENCE_SHARE of the pass's wall time.
    """
    results = []
    if workload:
        run_reference(workload, 1.0)
    start = time.perf_counter()
    longest = 0.0
    while len(results) < min_passes or time.perf_counter() + longest < start + seconds:
        began = time.perf_counter()
        result = run_pass(cli, jobs, seed, tracer)
        if workload:
            result.reference = run_reference(workload, REFERENCE_SHARE * result.wall_s)
        results.append(result)
        longest = max(longest, time.perf_counter() - began)
    return results


def measure_setup(workload: str, directory: Path, probes: int = SETUP_PROBES) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    semigroup_lab and written the workload's configs, once per probe.

    The child reports the CLOCK_MONOTONIC instant it was ready, which this
    process compares with the instant before the spawn; interpreter exit is
    not counted.
    """
    probe = Path(__file__).with_name("ready.py")
    times = []
    for i in range(probes):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, str(probe), workload, str(directory / f"setup-{i}")],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "commit": _git_commit(),
        "seed": seed,
    }


def end_to_end(cli, jobs, seed: int, seconds: float, setup_times: list, workload: str):
    """Untraced passes interleaved with reference batches.

    `wall_rel` and `cpu_rel` are the mean wall and CPU time of the passes
    that did not fail over the mean wall and CPU time of a reference batch.
    Means, not medians: the passes and the batches each cover part of the
    run, and only their totals meet the same changes in the machine's
    speed.  The raw pass times stay in the run's record and are printed, not
    reported as metrics: on a shared host they move by tens of percent over
    minutes with other tenants' load.
    """
    passes = run_passes(cli, jobs, seed, seconds, MIN_PASSES, workload=workload)
    timed = [p for p in passes if not p.failures] or passes
    batches = sum(p.reference[0] for p in passes)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_rel": (statistics.fmean(p.wall_s for p in timed)
                     / (sum(p.reference[1] for p in passes) / batches), "ref"),
        "cpu_rel": (statistics.fmean(p.cpu_s for p in timed)
                    / (sum(p.reference[2] for p in passes) / batches), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return passes, metrics


def per_layer(package, jobs, seed: int, seconds: float, spans_path: Path = None):
    """Half the time untraced, half traced; per-layer medians over the traced
    passes, and the tracing overhead as the difference of median pass times."""
    untraced = run_passes(package.cli, jobs, seed, seconds / 2, 2)
    tracer = Tracer()
    with instrument(package, tracer):
        traced = run_passes(package.cli, jobs, seed, seconds / 2, 1, tracer)
    values = median_metrics([p.layers for p in traced])
    values["trace.wall_s"] = statistics.median(p.wall_s for p in traced)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - statistics.median(p.wall_s for p in untraced))
    if spans_path is not None:
        save_spans(spans_path, tracer.names, [p.spans for p in traced])
    return untraced + traced, {name: (value, metric_unit(name))
                               for name, value in values.items()}


def summarize(passes: list, metrics: dict) -> dict:
    failed = sum(1 for p in passes if p.failures)
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        package = import_package()
    except ImportError as exc:
        print(f"cannot import semigroup_lab from this checkout: {exc}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{os.getpid()}"
    record = {"workload": args.workload, "trace": args.trace}
    try:
        jobs = write_configs(WORKLOADS[args.workload], work / "run")
        if args.trace:
            passes, metrics = per_layer(package, jobs, args.seed, args.seconds,
                                        OUT / f"spans-{args.workload}.npz")
        else:
            record["setup_s"] = measure_setup(args.workload, work)
            passes, metrics = end_to_end(package.cli, jobs, args.seed, args.seconds,
                                         record["setup_s"], args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["passes"] = [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "reference": p.reference,
                         "failures": p.failures} for p in passes]
    record["summary"] = summarize(passes, metrics)
    record["environment"] = environment(args.seed)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    summary = record["summary"]
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"{args.workload}: {summary['attempted']} passes, {summary['failed']} failed")
    for name, metric in summary["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name in ("wall_s", "cpu_s"):
            print(f"  median pass {name} = "
                  f"{statistics.median(p[name] for p in record['passes']):.6g} s")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
