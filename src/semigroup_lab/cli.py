"""Batch front end: one experiment family per invocation, JSON config in,
deterministic CSV/JSON out.

Every output file starts with the comment line

    # semigroup-lab v<version> subcommand=<name> seed=<seed>

(JSON consumers should skip leading '#' lines).  Real CSV floats are
written with 17 significant digits (%.17g), complex kernel cells as
'%.17g%+.17gj' without parentheses (KernelGrid.from_csv also reads the
Python `repr` cells that earlier versions wrote), and JSON floats in
Python's shortest round-trip form.  Identical configs and seeds produce
byte-identical files: from elementwise routes (birth, trajectory,
shift-demo) for the same numpy build, from GEMM or LAPACK routes
(diffusion's three files, minimal's two, nonstandard) on the same OpenBLAS
core.  On another core the latter agree within stated bounds: under
Prescott against SkylakeX, the diffusion kernels moved by at most 2.2e-15 of
their peak and its summary by 2.2e-16 of trace_before, minimal's trace
trajectory by 2.1e-16 relative and its match_direct 1.11e-17 -> 7.66e-18,
and nonstandard (N=30) not at all.
Subcommands raise numpy overflow, invalid and divide errors (exit 3).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, g17
from .birth import arrival_laplace, arrival_partial_product, birth_generator, \
    no_event_resolvent
from .diffusion import KernelGrid, QuadratureError, _grid_intervals, \
    apply_resolvent, apply_semigroup, diagonal_slope, kernel_trace, trace_loss
from .generators import apply_jump
from .nonstandard import FalsifierError, falsifier_report
from .operators import MatrixExponentialError, NonFiniteError, trace_norm
from .rates import ExplicitRates, RateRangeError, RateSpecError, parse_rate_spec
from .resolvent import SeriesDivergenceError, resolvent_direct, resolvent_series
from .trajectories import BiasCheckError, TrajectoryStreams, \
    empirical_laplace, iter_trajectories, shift_arrival_density

_NUMERICAL_FAILURES = (SeriesDivergenceError, BiasCheckError, QuadratureError,
                       RateRangeError, MatrixExponentialError, NonFiniteError,
                       FalsifierError, FloatingPointError)


class ConfigError(ValueError):
    pass


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


# per-subcommand schema: key -> (type check, required, range check or None);
# a range check applies to every number of a list
_NUMBER = ("a finite number", lambda v: isinstance(v, (int, float))
           and not isinstance(v, bool) and _finite(v))
_INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_STR = ("a string", lambda v: isinstance(v, str))
# each lambda takes two arrival products of about 2**12 rates each (birth
# poly:1:3 at N = 2**26: 0.24-0.39 s for one lambda and 0.25-0.45 s for
# sixteen, mostly start-up, on a 2-core host); a list is bounded like N
_LAMBDAS = ("a finite number or a list of at most 16 finite numbers",
            lambda v: _NUMBER[1](v) or (isinstance(v, list) and 0 < len(v) <= 16
                                        and all(_NUMBER[1](x) for x in v)))
_POSITIVE = ("positive", lambda v: v > 0)
_NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
_AT_LEAST_1 = ("at least 1", lambda v: v >= 1)
# each trajectory is reduced to its end time (8 B) as it is drawn, so memory
# grows with samples alone.  At 10**6 samples, geom:2 took 4.5-5.2 s with no
# jump in the horizon (1e-9) and 7.9-8.9 s with 10**8 jumps (max_jumps 100,
# horizon 50), each with a 60 MB resident and a 176 MB address-space peak,
# on a 2-core host
_SAMPLES = ("at least 1 and at most 10**6", lambda v: 1 <= v <= 10 ** 6)
# a trajectory's levels, n_start plus at most 10**8 jumps, are int64 indices
_LEVEL = ("at least 0 and below 2**62", lambda v: 0 <= v < 2 ** 62)
# birth reads the top rate and about 2**12 per arrival product, the last
# ones for falling rates, so neither its time nor its peak grows with N
# (N = 2**26: 30 MB resident peak and 0.19-0.35 s for one lambda on
# poly:1:3, 0.20-0.25 s on geom:0.99999 at lambda = 1e-295, on a 2-core host)
_DIMENSION = ("at least 2 and at most 2**26", lambda v: 2 <= v <= 2 ** 26)
# at N=107 nonstandard ran in 0.53-1.00 s wall and minimal in 0.60-0.91 s,
# mostly start-up, with a 71 MB resident peak: nonstandard exponentiates one
# N x N block (0.02-0.04 s) and applies the band generator to its 100 trials
# (0.05 s); minimal's direct solve on a dense rho covers all 2N-1 blocks,
# O(N**4) (0.04 s)
_DENSE_DIMENSION = ("at least 2 and at most 107, for a run of a few seconds",
                    lambda v: 2 <= v <= 107)

SCHEMAS = {
    "birth": {"rates": (_STR, True, None), "lambda": (_LAMBDAS, True, _POSITIVE),
              "N": (_INT, True, _DIMENSION), "n_start": (_INT, False, None),
              "tail_tol": (_NUMBER, False, _POSITIVE)},
    "minimal": {"rates": (_STR, True, None), "lambda": (_NUMBER, True, _POSITIVE),
                "N": (_INT, True, _DENSE_DIMENSION), "tol": (_NUMBER, True, _POSITIVE)},
    "trajectory": {"rates": (_STR, True, None),
                   "lambda": (_LAMBDAS, True, _NONNEGATIVE),
                   "samples": (_INT, True, _SAMPLES),
                   "horizon": (_NUMBER, True, _POSITIVE),
                   "max_jumps": (_INT, True, _AT_LEAST_1),
                   "n_start": (_INT, False, _LEVEL)},
    "nonstandard": {"rates": (_STR, True, None), "N": (_INT, True, _DENSE_DIMENSION),
                    "lambda": (_NUMBER, True, _POSITIVE),
                    "t": (_NUMBER, True, _NONNEGATIVE)},
    "diffusion": {"X": (_NUMBER, True, _POSITIVE), "h": (_NUMBER, True, _POSITIVE),
                  "t": (_NUMBER, True, _POSITIVE),
                  "lambda": (_NUMBER, True, _POSITIVE),
                  "kernel": (_STR, False, None)},
    "shift-demo": {"X": (_NUMBER, True, _POSITIVE), "h": (_NUMBER, True, _POSITIVE),
                   "psi": (_STR, True, None)},
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


def _load_config(path: str, subcommand: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    for key, ((type_name, check), required, bound) in schema.items():
        if key not in config:
            if required:
                raise ConfigError(f"missing config key {key!r} for '{subcommand}'")
            continue
        value = config[key]
        if not check(value):
            raise ConfigError(f"config key {key!r} must be {type_name}")
        if bound is not None and not all(
                map(bound[1], value if isinstance(value, list) else [value])):
            raise ConfigError(f"{key} must be {bound[0]}")
    return config


def _parse_rates(text: str, levels: int = 0):
    """The rate sequence of a spec; a `list:` needs a rate for each of `levels`."""
    try:
        rates = parse_rate_spec(text)
    except RateSpecError as exc:
        raise ConfigError(f"bad rate spec: {exc}") from exc
    if isinstance(rates, ExplicitRates) and len(rates.values) < levels:
        raise ConfigError(f"rate list of length {len(rates.values)} is shorter "
                          f"than N = {levels}")
    return rates


def _lambdas(value) -> list:
    return [float(v) for v in (value if isinstance(value, list) else [value])]


class _Writer:
    def __init__(self, out_dir: Path, subcommand: str, seed: int):
        self.out_dir = out_dir
        self.header = f"# semigroup-lab v{__version__} subcommand={subcommand} seed={seed}"
        self.written: list = []

    @contextlib.contextmanager
    def _target(self, name: str):
        """The path of an output file, remembered for `discard` unless it
        cannot be opened; an OSError while writing it is a config error."""
        path = self.out_dir / name
        self.written.append(path)
        try:
            yield path
        except OSError as exc:
            if exc.filename is not None:  # open failed: the file holds nothing of this run
                self.written.remove(path)
            raise ConfigError(f"cannot write output: {exc}") from None

    def csv(self, name: str, columns, rows) -> Path:
        """Every cell %.17g, through g17 (an int cell prints as its float
        does); a non-finite cell raises before writing."""
        values = np.asarray(rows, dtype=float).reshape(len(rows), len(columns))
        if not np.isfinite(values).all():
            raise NonFiniteError(f"refusing to write non-finite values to {name}")
        with self._target(name) as path, open(path, "wb") as fh:
            fh.write(f"{self.header}\n{','.join(columns)}\n".encode())
            fh.writelines(g17.csv_blocks(values))
        return path

    def json(self, name: str, payload: dict) -> Path:
        try:
            body = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError as exc:
            raise NonFiniteError(f"refusing to write {name}: {exc}") from None
        with self._target(name) as path, open(path, "w", newline="") as fh:
            fh.write(self.header + "\n")
            fh.write(body + "\n")
        return path

    def kernel(self, name: str, grid: KernelGrid) -> None:
        with self._target(name) as path:
            grid.to_csv(path, header=self.header)

    def discard(self) -> None:
        """Remove the files this run has written or begun to write."""
        for path in self.written:
            with contextlib.suppress(OSError):
                path.unlink()


def _run_birth(config: dict, writer: _Writer, seed: int) -> None:
    dim = config["N"]
    rates = _parse_rates(config["rates"], dim)
    n_start = config.get("n_start", 0)
    tail_tol = config.get("tail_tol", 1e-12)
    if not 0 <= n_start < dim:
        raise ConfigError("n_start must lie in [0, N)")
    bad = rates.first_nonfinite(dim)
    if bad is not None:
        rates.finite_mu_array(bad, 1)  # refuses mu_bad
    # a list of exactly N rates is multiplied whole by arrival_laplace, a
    # product over the same factors as the truncated chain's defect
    whole_list = isinstance(rates, ExplicitRates) and len(rates.values) == dim
    rows = []
    for lam in _lambdas(config["lambda"]):
        bracket = arrival_laplace(rates, lam, n_start=n_start, tail_tol=tail_tol)
        defect = (bracket.value if whole_list else
                  arrival_partial_product(rates, lam, n_start, dim - n_start))
        rows.append((lam, bracket.value, bracket.width, defect))
    writer.csv("arrival.csv",
               ("lambda", "product_value", "bracket_width", "defect_truncated"),
               rows)


def _run_minimal(config: dict, writer: _Writer, seed: int) -> None:
    rates = _parse_rates(config["rates"], config["N"])
    dim, lam, tol = config["N"], float(config["lambda"]), float(config["tol"])
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
    if config["samples"] * config["max_jumps"] > 10 ** 8:  # about 9 s of jumps
        raise ConfigError("samples * max_jumps must be at most 10**8")
    streams = TrajectoryStreams(master_seed=seed)
    samples = iter_trajectories(rates, n_start, float(config["horizon"]),
                                config["max_jumps"], streams, config["samples"])
    lambdas = _lambdas(config["lambda"])
    rows = []
    for lam, (mean, se) in zip(lambdas, empirical_laplace(samples, lambdas, rates)):
        bracket = arrival_laplace(rates, lam, n_start=n_start)
        err = abs(mean - bracket.value)
        rows.append((lam, mean, se, bracket.value, err, 3.0 * se))
    writer.csv("trajectory.csv",
               ("lambda", "empirical", "standard_error", "product_value",
                "abs_error", "three_se"), rows)


def _run_nonstandard(config: dict, writer: _Writer, seed: int) -> None:
    rates = _parse_rates(config["rates"], config["N"])
    dim, lam, t = config["N"], float(config["lambda"]), float(config["t"])
    report = falsifier_report(rates, dim, lam=lam, t=t, seed=seed)
    if not report.consistent():
        raise FalsifierError(f"the falsifier report fails its own checks: {report}")
    writer.json("nonstandard.json", {
        "p11": report.base_defect,  # the defect of the reset state |0><0|
        "interior_max_deviation": report.interior_max_deviation,
        "reset_difference_trace_norm": report.reset_difference_trace_norm,
        "base_defect": report.base_defect,
        "reset_residual": report.reset_residual,
    })


def _spec_numbers(spec_text: str, fields) -> list:
    try:
        values = [float(v) for v in fields]
    except ValueError:
        raise ConfigError(f"spec {spec_text!r} needs numeric parameters") from None
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"spec {spec_text!r} needs finite parameters")
    return values


# grid budgets for a peak of about 2 GiB.  At its peak diffusion holds the
# kernel, the evolved kernel, the image profile, the resolvent's result, one
# band array and the product of one grid-width block of that array's float64
# view (see _apply_image_kernel).  In float64 (M+1)**2 arrays, with the
# resident and address-space peaks (VmHWM, VmPeak) at 4729 points on a 2-core
# host, that is
# - 5 for a bitwise-symmetric kernel such as bump, which maps one band array
#   before its result is allocated: 924 and 1051 MiB;
# - 6 for a real csv: kernel that is not, which maps two, and so takes two
#   matrix products per quadrature: 1095 and 1222 MiB;
# - 10 for CI's hermitian (1 + 0.5j x) bump(x) csv: kernel, whose grids and
#   band array take two each: 1775 and 1904 MiB.
# A csv: kernel loads within it, at about 25 bytes per cell (33 if complex).
# The kernel writer runs after the quadrature, with the three grids live: its
# traced working set is 55 MB at 4729 points for bump, mostly the text of the
# mirrored cells it keeps (about a quarter of the cells), and 22 MB for the
# hermitian kernel, whose symmetry check holds one bool per cell.  shift-demo
# takes about 340 bytes per point
_DIFFUSION_POINTS = 4729
_SHIFT_POINTS = 2 ** 22


def _grid(X: float, h: float, max_points: int) -> np.ndarray:
    """The points k * h for k up to X / h, refused before rounding unless
    there are at most max_points of them, and then unless X is an exact
    multiple of h."""
    if not X / h <= max_points - 1:  # also an overflow to inf
        raise ConfigError(f"X / h = {X / h:g} must be at most {max_points - 1}, "
                          f"for a grid of at most {max_points} points")
    try:
        m = _grid_intervals(X, h)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from None
    return h * np.arange(m + 1)


def _gaussian(spec_text: str, fields, x: np.ndarray) -> np.ndarray:
    """exp(-((x - center) / width)**2 / 2) for the spec fields center, width."""
    center, width = _spec_numbers(spec_text, fields)
    if width <= 0:
        raise ConfigError(f"{spec_text.split(':')[0]} width must be positive")
    # far from a narrow center the square overflows to inf and the profile is 0
    with np.errstate(over="ignore"):
        return np.exp(-0.5 * ((x - center) / width) ** 2)


def _build_kernel(spec_text: str, X: float, h: float, x: np.ndarray) -> KernelGrid:
    parts = spec_text.split(":")
    if parts[0] == "bump" and len(parts) == 3:
        p = _gaussian(spec_text, parts[1:], x)
        if not p.any():
            raise ConfigError(f"kernel {spec_text!r} is zero at every grid point")
        return KernelGrid(X, h, np.outer(p, p))
    if parts[0] == "csv" and len(parts) >= 2:
        try:
            return KernelGrid.from_csv(":".join(parts[1:]), X, h)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad kernel CSV: {exc}") from None
    raise ConfigError(f"unknown kernel spec {spec_text!r} "
                      "(use 'bump:<center>:<width>' or 'csv:<path>')")


def _run_diffusion(config: dict, writer: _Writer, seed: int) -> None:
    X, h = float(config["X"]), float(config["h"])
    t, lam = float(config["t"]), float(config["lambda"])
    x = _grid(X, h, _DIFFUSION_POINTS)
    kernel = _build_kernel(config.get("kernel", "bump:2:0.4"), X, h, x)
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
    writer.kernel("evolved.csv", evolved)
    writer.kernel("resolvent.csv", resolved)


def _build_profile(spec_text: str, x: np.ndarray) -> np.ndarray:
    parts = spec_text.split(":")
    if parts[0] == "gauss" and len(parts) == 3:
        return _gaussian(spec_text, parts[1:], x)
    if parts[0] == "box" and len(parts) == 3:
        a, b = _spec_numbers(spec_text, parts[1:])
        if not a < b:
            raise ConfigError("box needs a < b")
        return ((x >= a) & (x <= b)).astype(float)
    raise ConfigError(f"unknown psi spec {spec_text!r} "
                      "(use 'gauss:<center>:<width>' or 'box:<a>:<b>')")


def _run_shift_demo(config: dict, writer: _Writer, seed: int) -> None:
    X, h = float(config["X"]), float(config["h"])
    x = _grid(X, h, _SHIFT_POINTS)
    if x.size < 3:
        raise ConfigError("need at least two grid steps")
    psi = _build_profile(config["psi"], x)
    if not psi.any():
        raise ConfigError(f"psi {config['psi']!r} is zero at every grid point")
    table = shift_arrival_density(psi, h)
    writer.csv("shift_density.csv", ("t", "density", "cumulative"),
               np.column_stack((table.times, table.density, table.cumulative)))


_RUNNERS = {
    "birth": _run_birth,
    "minimal": _run_minimal,
    "trajectory": _run_trajectory,
    "nonstandard": _run_nonstandard,
    "diffusion": _run_diffusion,
    "shift-demo": _run_shift_demo,
}


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


@functools.cache  # one parser per process: each run() parses with it
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
        p.add_argument("--seed", type=_seed, default=0, help="master seed (u64)")
    return parser


def run(argv=None) -> int:
    """Exit status 0, 2 (config error) or 3 (numerical failure).  On any
    nonzero exit, an escaping exception included, the files this run wrote
    are removed."""
    args = build_parser().parse_args(argv)
    writer = _Writer(Path(args.out), args.subcommand, args.seed)
    status = 1  # an exception that escapes
    try:
        config = _load_config(args.config, args.subcommand)
        try:
            writer.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from None
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _RUNNERS[args.subcommand](config, writer, args.seed)
        status = 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = 2
    except _NUMERICAL_FAILURES as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        status = 3
    finally:
        if status:
            writer.discard()
    return status


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
