"""Workload definitions and the independent oracle checks for every CLI
output the benchmark produces.

A workload is a fixed list of (subcommand, config) pairs; one pass runs each
pair once through ``semigroup_lab.cli.run``.  Problem sizes are fixed; the
benchmark seed reaches the program only as ``--seed``, which drives the
random rho of ``minimal``, the falsifier trials of ``nonstandard`` and the
sample streams of ``trajectory``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import solve_banded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Why each workload exists: every later optimisation needs one workload that
# exercises its mechanism and one that bypasses it.
WORKLOADS = {
    # Dense oracles: scipy expm on the 900x900 superoperator, superoperator
    # assembly through ~3k generator calls, the N=40 dense solve, and ~22
    # small closed-form resolvent calls.
    "dense-oracle": [
        ("nonstandard", {"rates": "poly:1:2", "N": 30, "lambda": 1, "t": 1}),
        ("minimal", {"rates": "poly:1:2", "lambda": 1, "N": 40, "tol": 1e-10}),
    ],
    # Closed-form band routes: the bulk O(N^3) birth_resolvent shift loop and
    # the scalar arrival-product loop (~7e5 rates.mu calls); almost no dense
    # linear algebra.
    "band-closed-form": [
        ("birth", {"rates": "geom:1.01", "lambda": [0.25, 0.5, 1, 2], "N": 600}),
        ("birth", {"rates": "poly:1:3", "lambda": 1, "N": 200}),
    ],
    # The only workload dominated by trajectory sampling: one stream and one
    # Generator per trajectory.
    "monte-carlo": [
        ("trajectory", {"rates": "geom:2", "lambda": [0.5, 1, 2],
                        "samples": 50000, "horizon": 50, "max_jumps": 60}),
    ],
    # Write-heavy: ~16 MB of kernel CSV per pass, so the cli writer and
    # KernelGrid.to_csv dominate; quadrature is a few percent.
    "kernel-io": [
        ("diffusion", {"X": 12, "h": 0.02, "t": 0.5, "lambda": 1}),
        ("shift-demo", {"X": 8, "h": 0.001, "psi": "gauss:2:0.4"}),
    ],
}


class CheckFailed(AssertionError):
    """An output disagrees with its independent oracle."""


def import_package():
    """Import semigroup_lab and its CLI from this checkout's src/, never from
    elsewhere."""
    if not (SRC / "semigroup_lab" / "__init__.py").is_file():
        raise ImportError(f"no semigroup_lab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import semigroup_lab
    import semigroup_lab.cli

    if Path(semigroup_lab.__file__).resolve().parent != SRC / "semigroup_lab":
        raise ImportError(f"semigroup_lab imported from {semigroup_lab.__file__}, "
                          f"not from {SRC}")
    return semigroup_lab


def write_configs(configs, directory: Path):
    """Write each config as JSON; returns [(subcommand, config, path, out_dir)]."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, (subcommand, config) in enumerate(configs):
        path = directory / f"{i}-{subcommand}.json"
        path.write_text(json.dumps(config))
        jobs.append((subcommand, config, path, directory / f"out-{i}"))
    return jobs


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _rows(path: Path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    return [dict(zip(header, (float(v) for v in row))) for row in reader]


def _json(path: Path) -> dict:
    text = "".join(line for line in path.read_text().splitlines(True)
                   if not line.startswith("#"))
    return json.loads(text)


def _rate_values(spec: str, count: int):
    """Rates mu_0..mu_{count-1} from the spec text, computed here rather than
    by semigroup_lab.rates."""
    kind, *params = spec.split(":")
    n = np.arange(count, dtype=float)
    if kind == "poly":
        return float(params[0]) * (n + 1.0) ** float(params[1])
    if kind == "geom":
        return float(params[0]) ** n
    raise ValueError(f"no independent rate route for {spec!r}")


def _classical_defect(spec: str, lam: float, dim: int, n_start: int) -> float:
    """1 - lam * sum(r) with (lam - Q) r = e_{n_start} for the truncated
    classical birth chain Q, solved as a lower bidiagonal band system."""
    mu = _rate_values(spec, dim)
    bands = np.zeros((2, dim))
    bands[0] = lam + mu
    bands[1, :-1] = -mu[:-1]
    e = np.zeros(dim)
    e[n_start] = 1.0
    return 1.0 - lam * float(solve_banded((1, 0), bands, e).sum())


def check_birth(config: dict, out: Path, seed: int) -> None:
    rows = _rows(out / "arrival.csv")
    lambdas = config["lambda"] if isinstance(config["lambda"], list) else [config["lambda"]]
    _expect(len(rows) == len(lambdas), "arrival.csv has one row per lambda")
    for row, lam in zip(rows, lambdas):
        _expect(all(math.isfinite(v) for v in row.values()),
                f"non-finite field in arrival.csv row {row}")
        expected = _classical_defect(config["rates"], float(lam), config["N"],
                                     config.get("n_start", 0))
        _expect(abs(row["defect_truncated"] - expected) <= 1e-10 * max(1.0, abs(expected)),
                f"defect_truncated {row['defect_truncated']!r} != classical "
                f"band solve {expected!r} at lambda={lam}")


def check_minimal(config: dict, out: Path, seed: int) -> None:
    report = _json(out / "minimal.json")
    _expect(report["converged"] is True, "minimal series did not converge")
    _expect(report["trace_trajectory_monotone"] is True,
            "minimal trace trajectory is not monotone")
    _expect(report["match_direct"] <= 1e-10,
            f"series vs dense solve differ by {report['match_direct']!r}")


def check_nonstandard(config: dict, out: Path, seed: int) -> None:
    from semigroup_lab.nonstandard import FalsifierReport

    report = _json(out / "nonstandard.json")
    falsifier = FalsifierReport(
        interior_max_deviation=report["interior_max_deviation"],
        reset_difference_trace_norm=report["reset_difference_trace_norm"],
        base_defect=report["base_defect"],
        reset_residual=report["reset_residual"])
    _expect(falsifier.consistent(), f"falsifier report inconsistent: {report}")
    _expect(abs(report["p11"]) < 1.0, f"|p11| = {abs(report['p11'])!r} >= 1")


def check_trajectory(config: dict, out: Path, seed: int) -> None:
    rows = _rows(out / "trajectory.csv")
    _expect(len(rows) == len(config["lambda"]), "trajectory.csv has one row per lambda")
    for row in rows:
        err = abs(row["empirical"] - row["product_value"])
        _expect(row["standard_error"] > 0 and err <= 5.0 * row["standard_error"],
                f"Monte Carlo {row['empirical']!r} vs product "
                f"{row['product_value']!r}: error {err!r} exceeds 5 SE "
                f"({row['standard_error']!r})")


def check_diffusion(config: dict, out: Path, seed: int) -> None:
    from semigroup_lab.diffusion import KernelGrid, kernel_trace

    (row,) = _rows(out / "summary.csv")
    _expect(row["identity_gap"] <= 1e-4 * row["trace_before"],
            f"identity gap {row['identity_gap']!r} exceeds 1e-4 * trace_before")
    evolved = KernelGrid.from_csv(out / "evolved.csv")
    points = round(config["X"] / config["h"]) + 1
    _expect(evolved.X == float(config["X"]) and evolved.h == float(config["h"])
            and evolved.values.shape == (points, points),
            "evolved.csv grid does not match the config")
    _expect(kernel_trace(evolved) == row["trace_after"],
            "evolved.csv does not reload to the written trace_after")


def check_shift_demo(config: dict, out: Path, seed: int) -> None:
    rows = _rows(out / "shift_density.csv")
    cumulative = np.array([r["cumulative"] for r in rows])
    kind, center, width = config["psi"].split(":")
    _expect(kind == "gauss", "only gauss profiles have an oracle here")
    x = config["h"] * np.arange(round(config["X"] / config["h"]) + 1)
    norm_sq = float(np.trapezoid(np.exp(-((x - float(center)) / float(width)) ** 2),
                                 dx=config["h"]))
    _expect(len(rows) == x.size, "shift_density.csv has one row per grid point")
    _expect(bool(np.all(np.diff(cumulative) >= 0)), "cumulative decreases")
    _expect(cumulative[-1] <= norm_sq * (1 + 1e-12),
            f"cumulative {cumulative[-1]!r} exceeds int |psi|^2 = {norm_sq!r}")


CHECKS = {
    "birth": check_birth,
    "minimal": check_minimal,
    "nonstandard": check_nonstandard,
    "trajectory": check_trajectory,
    "diffusion": check_diffusion,
    "shift-demo": check_shift_demo,
}
