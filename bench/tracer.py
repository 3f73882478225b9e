"""Span tracing of semigroup_lab from outside the package.

``instrument`` wraps the public functions of every layer module, the rate
methods, ``StandardGeneratorSpec.__call__``, ``TraceResetGenerator.__call__``,
``TrajectoryStreams.stream``, ``KernelGrid.to_csv`` and the CLI's config
loader and writers.  Modules that import a function by name hold their own
reference to it, so every module attribute bound to the same object is
rebound, and restored on exit.

Each call records a span (name, parent, start, end) in flat arrays.  Self
time is a span's duration minus the time its child spans cover; calls run
on one thread, so children never overlap and that cover is their summed
duration.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "rates", "operators", "generators", "resolvent", "birth",
          "nonstandard", "trajectories", "diffusion")

# (module, attribute path, span name) beyond the public module functions
EXTRA_TARGETS = (
    ("cli", "_load_config", "cli.load_config"),
    ("cli", "_Writer.csv", "cli.write"),
    ("cli", "_Writer.json", "cli.write"),
    ("operators", "expm", "operators.expm"),
    ("generators", "StandardGeneratorSpec.__call__", None),
    ("nonstandard", "TraceResetGenerator.__call__", None),
    ("trajectories", "TrajectoryStreams.stream", None),
    ("diffusion", "KernelGrid.to_csv", None),
)
RATE_METHODS = ("mu", "mu_array", "inverse_tail")
GENERATOR_APPLY = ("generators.StandardGeneratorSpec.__call__",
                   "generators.apply_standard", "generators.apply_no_event",
                   "generators.apply_jump")
QUADRATURE = ("diffusion.apply_semigroup", "diffusion.apply_resolvent",
              "diffusion.trace_loss", "diffusion.kernel_trace",
              "diffusion.diagonal_slope", "diffusion.support_extent",
              "diffusion.erfc")


def _count_superop_bytes(counts, args, kwargs, result):
    dim = kwargs["dim"] if "dim" in kwargs else args[1]
    counts["operators.superop_bytes"] += 16 * dim ** 4


def _count_series_iterations(counts, args, kwargs, result):
    counts["resolvent.series.iterations"] += result.iterations


def _count_arrival_factors(counts, args, kwargs, result):
    counts["birth.arrival.factors"] += result.n_factors


def _count_jumps(counts, args, kwargs, result):
    counts["trajectories.jumps"] += len(result.jump_times)


def _count_grid_points(counts, args, kwargs, result):
    counts["diffusion.grid_points"] += args[0].npoints ** 2


def _count_written(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(result)


def _count_kernel_written(counts, args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    counts["cli.bytes_written"] += os.path.getsize(path)


HOOKS = {
    "operators.superop_matrix": _count_superop_bytes,
    "resolvent.resolvent_series": _count_series_iterations,
    "birth.arrival_laplace": _count_arrival_factors,
    "trajectories.sample_trajectory": _count_jumps,
    "diffusion.apply_semigroup": _count_grid_points,
    "diffusion.apply_resolvent": _count_grid_points,
    "cli.write": _count_written,
    "diffusion.KernelGrid.to_csv": _count_kernel_written,
}

COUNTS = ("operators.superop_bytes", "resolvent.series.iterations",
          "birth.arrival.factors", "trajectories.jumps",
          "diffusion.grid_points", "cli.bytes_written")


class Tracer:
    """In-memory span recorder with per-name call counts and self times.

    Recording happens only inside ``recording()``.  ``take_pass`` returns
    the aggregates since the previous call and moves the recorded spans out.
    """

    def __init__(self):
        self.active = False
        self.names: list = []
        self._ids: dict = {}
        self._layer: list = []
        self._reset()

    def _reset(self):
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.entries = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list = []

    @contextlib.contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._layer.append(name.split(".", 1)[0])
            self.calls.append(0)
            self.entries.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def begin(self, sid: int) -> list:
        stack = self._stack
        index = len(self.span_start)
        if stack:
            parent = stack[-1]
            self.span_parent.append(parent[0])
            if self._layer[parent[1]] != self._layer[sid]:
                self.entries[sid] += 1
        else:
            self.span_parent.append(-1)
            self.entries[sid] += 1
        self.span_name.append(sid)
        self.span_end.append(0.0)
        frame = [index, sid, 0.0, time.perf_counter()]
        self.span_start.append(frame[3])
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        now = time.perf_counter()
        stack = self._stack
        stack.pop()
        index, sid, children, start = frame
        self.span_end[index] = now
        duration = now - start
        self.calls[sid] += 1
        self.self_s[sid] += duration - children
        if stack:
            stack[-1][2] += duration

    def take_pass(self):
        """Return (aggregates, spans) recorded since the last call."""
        if self._stack:
            raise RuntimeError("take_pass inside an open span")
        aggregates = {
            "calls": dict(zip(self.names, self.calls)),
            "entries": dict(zip(self.names, self.entries)),
            "self_s": dict(zip(self.names, self.self_s)),
            "counts": dict(self.counts),
        }
        spans = {"name": self.span_name, "parent": self.span_parent,
                 "start": self.span_start, "end": self.span_end}
        self._reset()
        return aggregates, spans


def _wrap(fn, sid: int, tracer: Tracer, hook):
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.begin(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    traced.__name__ = getattr(fn, "__name__", "traced")
    traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def _targets(package):
    """Yield (owner, attribute, function, span name) for every traced call."""
    modules = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
    for layer, module in modules.items():
        for attr, obj in sorted(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield module, attr, obj, f"{layer}.{attr}"
    rates = modules["rates"]
    for cls_name, cls in sorted(vars(rates).items()):
        if inspect.isclass(cls) and issubclass(cls, rates.RateSequence):
            for method in RATE_METHODS:
                if method in vars(cls):
                    yield cls, method, vars(cls)[method], f"rates.{cls_name}.{method}"
    for layer, path, name in EXTRA_TARGETS:
        owner = modules[layer]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        yield owner, attr, vars(owner)[attr], name or f"{layer}.{path}"


@contextlib.contextmanager
def instrument(package, tracer: Tracer):
    """Wrap every traced call of ``package`` for the duration of the block."""
    prefix = package.__name__
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == prefix or n.startswith(prefix + "."))]
    restore = []
    try:
        for owner, attr, fn, name in list(_targets(package)):
            wrapper = _wrap(fn, tracer.name_id(name), tracer, HOOKS.get(name))
            holders = [owner] if inspect.isclass(owner) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
        yield tracer
    finally:
        for holder, key, value in reversed(restore):
            setattr(holder, key, value)


def _sum(table: dict, names):
    return sum(table.get(name, 0) for name in names)


def _layer_names(table: dict, layer: str, suffix: str = ""):
    return [n for n in table if n.split(".", 1)[0] == layer and n.endswith(suffix)]


def layer_metrics(aggregates: dict) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    calls, entries, own = aggregates["calls"], aggregates["entries"], aggregates["self_s"]
    metrics = {
        "operators.superop_matrix.calls": calls.get("operators.superop_matrix", 0),
        "operators.superop_matrix.self_s": own.get("operators.superop_matrix", 0.0),
        "operators.expm.self_s": own.get("operators.expm", 0.0),
        "operators.trace_norm.calls": calls.get("operators.trace_norm", 0),
        "operators.trace_norm.self_s": own.get("operators.trace_norm", 0.0),
        "generators.apply.calls": _sum(entries, GENERATOR_APPLY),
        "resolvent.direct.self_s": own.get("resolvent.resolvent_direct", 0.0),
        "resolvent.series.self_s": own.get("resolvent.resolvent_series", 0.0),
        "birth.resolvent.calls": calls.get("birth.birth_resolvent", 0),
        "birth.resolvent.self_s": own.get("birth.birth_resolvent", 0.0),
        "birth.arrival.self_s": own.get("birth.arrival_laplace", 0.0),
        "rates.mu.calls": _sum(calls, _layer_names(calls, "rates", ".mu")),
        "rates.mu_array.calls": _sum(calls, _layer_names(calls, "rates", ".mu_array")),
        "rates.inverse_tail.calls": _sum(calls, _layer_names(calls, "rates", ".inverse_tail")),
        "nonstandard.falsifier.self_s": own.get("nonstandard.falsifier_report", 0.0),
        "nonstandard.contraction.self_s": own.get("nonstandard.reset_contraction_report", 0.0),
        "trajectories.stream.self_s": own.get("trajectories.TrajectoryStreams.stream", 0.0),
        "trajectories.sample.self_s": _sum(own, ("trajectories.sample_trajectory",
                                                 "trajectories.sample_trajectories")),
        "trajectories.laplace.self_s": own.get("trajectories.empirical_laplace", 0.0),
        "trajectories.samples": calls.get("trajectories.sample_trajectory", 0),
        "diffusion.quadrature.self_s": _sum(own, QUADRATURE),
        "diffusion.to_csv.self_s": own.get("diffusion.KernelGrid.to_csv", 0.0),
        "cli.load_config.self_s": own.get("cli.load_config", 0.0),
        "cli.write.self_s": own.get("cli.write", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _sum(own, _layer_names(own, layer))
    metrics.update(aggregates["counts"])
    metrics["trace.spans"] = sum(calls.values())
    return metrics


def median_metrics(per_pass: list) -> dict:
    """Median of every time over traced passes.  Counts repeat exactly from
    pass to pass, so their low median is the count itself, kept an integer."""
    return {name: (statistics.median if name.endswith("_s") else statistics.median_low)(
                m[name] for m in per_pass)
            for name in per_pass[0]}


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    return "count"


def save_spans(path, names: list, passes: list) -> None:
    """Write the spans of every traced pass to one .npz: per span its pass,
    name id, parent index (within the pass, -1 at the root), start and end,
    plus the table of names."""
    columns = {key: np.concatenate([np.array(spans[key], dtype=spans[key].typecode)
                                    for spans in passes])
               for key in ("name", "parent", "start", "end")}
    columns["pass"] = np.repeat(np.arange(len(passes)),
                                [len(spans["start"]) for spans in passes])
    np.savez(path, names=np.array(names), **columns)
