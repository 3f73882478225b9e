"""Batch front end: one experiment family per invocation, JSON config in,
deterministic CSV/JSON out.

Every output file starts with the comment line

    # semigroup-lab v<version> subcommand=<name> seed=<seed>

(JSON consumers should skip leading '#' lines).  Floats are written with 17
significant digits so identical configs and seeds produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .birth import arrival_laplace, birth_generator, birth_resolvent, \
    conservativity_defect, no_event_resolvent
from .diffusion import KernelGrid, QuadratureError, apply_resolvent, \
    apply_semigroup, diagonal_slope, kernel_trace, trace_loss
from .generators import apply_jump
from .nonstandard import falsifier_report, reset_contraction_report
from .operators import MatrixExponentialError, matrix_unit, trace_norm
from .rates import RateRangeError, RateSpecError, parse_rate_spec
from .resolvent import SeriesDivergenceError, resolvent_direct, resolvent_series
from .trajectories import BiasCheckError, TrajectoryStreams, \
    empirical_laplace, sample_trajectories, shift_arrival_density

_NUMERICAL_FAILURES = (SeriesDivergenceError, BiasCheckError, QuadratureError,
                       RateRangeError, MatrixExponentialError)


class ConfigError(ValueError):
    pass


# per-subcommand schema: key -> (type check, required)
_NUMBER = ("number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool))
_INT = ("integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_STR = ("string", lambda v: isinstance(v, str))
_LAMBDAS = ("number or list of numbers",
            lambda v: _NUMBER[1](v) or (isinstance(v, list) and v
                                        and all(_NUMBER[1](x) for x in v)))

SCHEMAS = {
    "birth": {"rates": (_STR, True), "lambda": (_LAMBDAS, True), "N": (_INT, True),
              "n_start": (_INT, False), "tail_tol": (_NUMBER, False)},
    "minimal": {"rates": (_STR, True), "lambda": (_NUMBER, True),
                "N": (_INT, True), "tol": (_NUMBER, True)},
    "trajectory": {"rates": (_STR, True), "lambda": (_LAMBDAS, True),
                   "samples": (_INT, True), "horizon": (_NUMBER, True),
                   "max_jumps": (_INT, True), "n_start": (_INT, False)},
    "nonstandard": {"rates": (_STR, True), "N": (_INT, True),
                    "lambda": (_NUMBER, True), "t": (_NUMBER, True)},
    "diffusion": {"X": (_NUMBER, True), "h": (_NUMBER, True),
                  "t": (_NUMBER, True), "lambda": (_NUMBER, True),
                  "kernel": (_STR, False)},
    "shift-demo": {"X": (_NUMBER, True), "h": (_NUMBER, True),
                   "psi": (_STR, True)},
}

_COLUMNS = {
    "birth": "arrival.csv: lambda, product_value, bracket_width, defect_truncated",
    "minimal": "trace_trajectory.csv: iteration, lambda_trace; "
               "minimal.json: iterations, converged, trace_trajectory_monotone, match_direct",
    "trajectory": "trajectory.csv: lambda, empirical, standard_error, "
                  "product_value, abs_error, three_se",
    "nonstandard": "nonstandard.json: p11, interior_max_deviation, "
                   "reset_difference_trace_norm, base_defect, reset_residual",
    "diffusion": "summary.csv: t, lambda, trace_before, trace_after, "
                 "loss_integral, identity_gap, diagonal_slope, loss_over_t; "
                 "plus evolved.csv / resolvent.csv kernel matrices",
    "shift-demo": "shift_density.csv: t, density, cumulative",
}


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _load_config(path: str, subcommand: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    schema = SCHEMAS[subcommand]
    for key in config:
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r} for '{subcommand}'")
    for key, ((type_name, check), required) in schema.items():
        if key not in config:
            if required:
                raise ConfigError(f"missing config key {key!r} for '{subcommand}'")
            continue
        if not check(config[key]):
            raise ConfigError(f"config key {key!r} must be a {type_name}")
    return config


def _parse_rates(text: str):
    try:
        return parse_rate_spec(text)
    except RateSpecError as exc:
        raise ConfigError(f"bad rate spec: {exc}") from exc


def _lambdas(value) -> list:
    return [float(v) for v in (value if isinstance(value, list) else [value])]


class _Writer:
    def __init__(self, out_dir: Path, subcommand: str, seed: int):
        self.out_dir = out_dir
        self.header = f"# semigroup-lab v{__version__} subcommand={subcommand} seed={seed}"

    def csv(self, name: str, columns, rows) -> Path:
        path = self.out_dir / name
        with open(path, "w", newline="") as fh:
            fh.write(self.header + "\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self.out_dir / name
        body = json.dumps(payload, indent=2, sort_keys=True)
        with open(path, "w", newline="") as fh:
            fh.write(self.header + "\n")
            fh.write(body + "\n")
        return path


def _run_birth(config: dict, writer: _Writer, seed: int) -> None:
    rates = _parse_rates(config["rates"])
    dim = config["N"]
    n_start = config.get("n_start", 0)
    tail_tol = config.get("tail_tol", 1e-12)
    if dim < 2:
        raise ConfigError("N must be at least 2")
    if not 0 <= n_start < dim:
        raise ConfigError("n_start must lie in [0, N)")
    rows = []
    for lam in _lambdas(config["lambda"]):
        bracket = arrival_laplace(rates, lam, n_start=n_start, tail_tol=tail_tol)
        defect = conservativity_defect(rates, lam, matrix_unit(n_start, n_start, dim))
        rows.append((lam, bracket.value, bracket.width, defect))
    writer.csv("arrival.csv",
               ("lambda", "product_value", "bracket_width", "defect_truncated"),
               rows)


def _run_minimal(config: dict, writer: _Writer, seed: int) -> None:
    rates = _parse_rates(config["rates"])
    dim, lam, tol = config["N"], float(config["lambda"]), float(config["tol"])
    if dim < 2:
        raise ConfigError("N must be at least 2")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real

    spec = birth_generator(rates, dim)
    series = resolvent_series(lambda x: no_event_resolvent(rates, lam, x),
                              lambda x: apply_jump(spec, x), lam, rho, tol=tol)
    direct = resolvent_direct(spec, lam, rho)
    match = trace_norm(series.value - direct)
    traj = series.trace_trajectory
    monotone = all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))
    writer.csv("trace_trajectory.csv", ("iteration", "lambda_trace"),
               list(enumerate(traj)))
    writer.json("minimal.json", {
        "iterations": series.iterations,
        "converged": series.converged,
        "trace_trajectory_monotone": monotone,
        "match_direct": match,
    })


def _run_trajectory(config: dict, writer: _Writer, seed: int) -> None:
    rates = _parse_rates(config["rates"])
    n_start = config.get("n_start", 0)
    streams = TrajectoryStreams(master_seed=seed)
    samples = sample_trajectories(rates, n_start, float(config["horizon"]),
                                  config["max_jumps"], streams,
                                  config["samples"])
    rows = []
    for lam in _lambdas(config["lambda"]):
        mean, se = empirical_laplace(samples, lam, rates)
        bracket = arrival_laplace(rates, lam, n_start=n_start)
        err = abs(mean - bracket.value)
        rows.append((lam, mean, se, bracket.value, err, 3.0 * se))
    writer.csv("trajectory.csv",
               ("lambda", "empirical", "standard_error", "product_value",
                "abs_error", "three_se"), rows)


def _run_nonstandard(config: dict, writer: _Writer, seed: int) -> None:
    rates = _parse_rates(config["rates"])
    dim, lam, t = config["N"], float(config["lambda"]), float(config["t"])
    if dim < 2:
        raise ConfigError("N must be at least 2")
    report = falsifier_report(rates, dim, lam=lam, t=t, seed=seed)
    contraction = reset_contraction_report(
        lambda l, x: birth_resolvent(rates, l, x),
        matrix_unit(0, 0, dim), lam)
    writer.json("nonstandard.json", {
        "p11": contraction.p11,
        "interior_max_deviation": report.interior_max_deviation,
        "reset_difference_trace_norm": report.reset_difference_trace_norm,
        "base_defect": report.base_defect,
        "reset_residual": report.reset_residual,
    })


def _build_kernel(spec_text: str, X: float, h: float) -> KernelGrid:
    parts = spec_text.split(":")
    if parts[0] == "bump" and len(parts) == 3:
        center, width = float(parts[1]), float(parts[2])
        if width <= 0:
            raise ConfigError("bump width must be positive")
        profile = lambda x: math.exp(-0.5 * ((x - center) / width) ** 2)
        return KernelGrid.from_profile(profile, X, h)
    if parts[0] == "csv" and len(parts) >= 2:
        kernel = KernelGrid.from_csv(":".join(parts[1:]))
        if abs(kernel.X - X) > 1e-12 or abs(kernel.h - h) > 1e-12:
            raise ConfigError("kernel CSV grid does not match the configured X, h")
        return kernel
    raise ConfigError(f"unknown kernel spec {spec_text!r} "
                      "(use 'bump:<center>:<width>' or 'csv:<path>')")


def _run_diffusion(config: dict, writer: _Writer, seed: int) -> None:
    X, h = float(config["X"]), float(config["h"])
    t, lam = float(config["t"]), float(config["lambda"])
    kernel = _build_kernel(config.get("kernel", "bump:2:0.4"), X, h)
    evolved = apply_semigroup(kernel, t)
    resolved = apply_resolvent(kernel, lam)
    before, after = kernel_trace(kernel), kernel_trace(evolved)
    loss = trace_loss(kernel, t)
    slope = diagonal_slope(resolved)
    writer.csv("summary.csv",
               ("t", "lambda", "trace_before", "trace_after", "loss_integral",
                "identity_gap", "diagonal_slope", "loss_over_t"),
               [(t, lam, before, after, loss, abs(after - (before - loss)),
                 slope, trace_loss(resolved, t) / t)])
    evolved.to_csv(writer.out_dir / "evolved.csv", header=writer.header)
    resolved.to_csv(writer.out_dir / "resolvent.csv", header=writer.header)


def _build_profile(spec_text: str, x: np.ndarray) -> np.ndarray:
    parts = spec_text.split(":")
    if parts[0] == "gauss" and len(parts) == 3:
        center, width = float(parts[1]), float(parts[2])
        if width <= 0:
            raise ConfigError("gauss width must be positive")
        return np.exp(-0.5 * ((x - center) / width) ** 2)
    if parts[0] == "box" and len(parts) == 3:
        a, b = float(parts[1]), float(parts[2])
        if not a < b:
            raise ConfigError("box needs a < b")
        return ((x >= a) & (x <= b)).astype(float)
    raise ConfigError(f"unknown psi spec {spec_text!r} "
                      "(use 'gauss:<center>:<width>' or 'box:<a>:<b>')")


def _run_shift_demo(config: dict, writer: _Writer, seed: int) -> None:
    X, h = float(config["X"]), float(config["h"])
    if h <= 0 or X <= 0 or round(X / h) < 2:
        raise ConfigError("need X > 0 and h > 0 with at least two grid steps")
    x = h * np.arange(round(X / h) + 1)
    psi = _build_profile(config["psi"], x)
    table = shift_arrival_density(psi, h)
    writer.csv("shift_density.csv", ("t", "density", "cumulative"),
               list(zip(table.times, table.density, table.cumulative)))


_RUNNERS = {
    "birth": _run_birth,
    "minimal": _run_minimal,
    "trajectory": _run_trajectory,
    "nonstandard": _run_nonstandard,
    "diffusion": _run_diffusion,
    "shift-demo": _run_shift_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semigroup-lab",
        description="Finite-truncation experiments for dynamical semigroups "
                    "with unbounded generators.")
    parser.add_argument("--version", action="version",
                        version=f"semigroup-lab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, description=f"Outputs: {_COLUMNS[name]}")
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config, args.subcommand)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        writer = _Writer(out_dir, args.subcommand, args.seed)
        _RUNNERS[args.subcommand](config, writer, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
