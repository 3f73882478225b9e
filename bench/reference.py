"""Reference batches: one fixed batch of work per workload, of the same
kind as the work that dominates the workload, written here and independent
of semigroup_lab.

On a shared host the speed a process gets changes by tens of percent over
minutes, with other tenants' load, so raw pass times from runs a few minutes
apart do not repeat.  Reference batches run after every pass, for about
half as long as the pass, so over a run they meet the same changes in the
machine's speed as the passes do; the mean pass time divided by the mean
batch time is the pass in units of the reference batch, which a change to
the program moves and the machine's load largely does not.

A batch does the same work on every call, whatever the seed.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
from scipy.linalg import expm, solve

_rng = np.random.default_rng(20170706)
# dense-oracle: scipy expm of a dense matrix large enough that BLAS-3
# dominates, as in the 900x900 superoperator expm, then a dense solve.
_DENSE = _rng.standard_normal((600, 600)) / 20.0
# band-closed-form: a shift-and-multiply recurrence over complex matrices,
# and a scalar product loop over rates from a method call, in about the
# 70:30 split of the workload's pass.
_BAND = _rng.standard_normal((400, 400)) + 0j
_BAND_W = 1.0 / (2.0 + np.add.outer(np.arange(400.0), np.arange(400.0)))
# kernel-io: the real parts of a 600x600 complex grid, as large as the
# diffusion kernel, formatted to 17 significant digits through csv.writer;
# each batch formats the next 60 rows.
_GRID = _rng.standard_normal((600, 600)) + 0j
_GRID_ROWS = 60
_grid_cursor = 0


def _dense() -> None:
    m = expm(_DENSE)
    solve(m + np.eye(m.shape[0]), _DENSE[:, 0])


class _Poly:
    def mu(self, n: int) -> float:
        return (n + 1.0) ** 3


_POLY = _Poly()


def _band() -> None:
    out = _BAND.copy()
    shifted = _BAND
    for k in range(1, _BAND.shape[0]):
        shifted = shifted[:-1, :-1] * _BAND_W[k - 1:-1, k - 1:-1]
        out[k:, k:] += shifted
    p = 1.0
    for j in range(140000):
        p *= 1.0 / (1.0 + 1.0 / _POLY.mu(j))


# monte-carlo: one SeedSequence-seeded Generator per trajectory and a few
# exponential holding times each, kept until the batch ends as the workload
# keeps its samples.
def _monte_carlo() -> None:
    kept = []
    for i in range(1200):
        rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(i,)))
        u = 1.0 - rng.random(20)
        holds = -np.log(u) / (2.0 ** np.arange(20.0))
        kept.append(np.array(np.cumsum(holds).tolist()))


def _kernel_io() -> None:
    global _grid_cursor
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in _GRID[_grid_cursor:_grid_cursor + _GRID_ROWS]:
        writer.writerow([f"{float(np.real(v)):.17g}" for v in row])
    _grid_cursor = (_grid_cursor + _GRID_ROWS) % _GRID.shape[0]


REFERENCES = {
    "dense-oracle": _dense,
    "band-closed-form": _band,
    "monte-carlo": _monte_carlo,
    "kernel-io": _kernel_io,
}


def run_reference(workload: str, seconds: float) -> tuple:
    """Run the workload's reference batch back to back until `seconds` have
    gone by, at least once; returns (batches, wall seconds, process CPU
    seconds)."""
    batch = REFERENCES[workload]
    batches = 0
    wall0, cpu0 = time.perf_counter(), time.process_time()
    while batches == 0 or time.perf_counter() - wall0 < seconds:
        batch()
        batches += 1
    return batches, time.perf_counter() - wall0, time.process_time() - cpu0
