"""Offset-diagonal (band) layout and the one recurrence solved along it.

Column d of a band array holds the d-th offset diagonal, zero-padded.
"""

from __future__ import annotations

import numpy as np


def to_bands(values: np.ndarray) -> tuple:
    """(low, up): column d holds values[k+d, k] (low) or values[k, k+d] (up)."""
    n = values.shape[0]
    low, up = np.zeros_like(values), np.zeros_like(values)
    for d in range(n):
        low[:n - d, d] = np.diagonal(values, offset=-d)
        up[:n - d, d] = np.diagonal(values, offset=d)
    return low, up


def from_bands(low: np.ndarray, up: np.ndarray) -> np.ndarray:
    """Inverse of to_bands: out[j+d, j] = low[j, d], out[j, j+d] = up[j, d]."""
    n = low.shape[0]
    out = np.zeros((n, n), dtype=np.result_type(low, up))
    flat = out.reshape(-1)
    for d in range(n):
        flat[d:(n - d) * (n + 1):n + 1] = up[:n - d, d]
        flat[d * n::n + 1] = low[:n - d, d]
    return out


def band_solve(rhs, weight, denom) -> np.ndarray:
    """x[0] = rhs[0] / denom[0], x[i] = (rhs[i] + weight[i] x[i-1]) / denom[i]
    along axis 0.  The arguments broadcast, so one sweep solves a single band
    or every column of a band stack; weight[0] is never read."""
    rhs, weight, denom = np.broadcast_arrays(rhs, weight, denom)
    x = np.empty(rhs.shape, dtype=np.result_type(rhs, weight, denom))
    x[:1] = rhs[:1] / denom[:1]
    for i in range(1, len(x)):
        x[i] = (rhs[i] + weight[i] * x[i - 1]) / denom[i]
    return x
