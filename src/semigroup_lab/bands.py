"""Offset-diagonal (band) layout, the band map, and the one recurrence solved
along a band.

Column d of a band array holds the d-th offset diagonal, zero-padded below:
`upper_bands(values)[k, d] = values[k, k + d]`, and the lower bands are the
upper bands of the transpose, so column 0 of both is the main diagonal.

`map_bands(values, fn)` splits a square matrix into its lower and upper band
arrays, maps each by fn and rebuilds the matrix with `from_bands`; fn must
act on each band array as a whole and return one of the same shape.  A
matrix equal to its transpose bit for bit has equal band arrays, so it builds
and maps only the lower ones, and the result is symmetric by construction.

`band_solve` is the lower-bidiagonal forward sweep behind the birth
resolvent: one row of every band at a time.
"""

from __future__ import annotations

import numpy as np


def bitwise_symmetric(values: np.ndarray) -> bool:
    """values equals its transpose bit for bit, so -0.0 and 0.0 differ; a
    complex matrix is compared part by part, in any memory order."""
    parts = (values.real, values.imag) if np.iscomplexobj(values) else (values,)
    return all(np.array_equal(bits, bits.T)
               for bits in (part.view(np.int64) for part in parts))


def upper_bands(values: np.ndarray) -> np.ndarray:
    """Band array whose column d holds values[k, k+d]; its padding is zero."""
    n = values.shape[0]
    bands = np.zeros(values.shape, dtype=values.dtype)
    for d in range(n):
        bands[:n - d, d] = np.diagonal(values, offset=d)
    return bands


def from_bands(low: np.ndarray, up: np.ndarray) -> np.ndarray:
    """out[j+d, j] = low[j, d], out[j, j+d] = up[j, d]; no padding row is read."""
    n = low.shape[0]
    out = np.zeros((n, n), dtype=np.result_type(low, up))
    flat = out.reshape(-1)
    for d in range(n):
        flat[d:(n - d) * (n + 1):n + 1] = up[:n - d, d]
        flat[d * n::n + 1] = low[:n - d, d]
    return out


def map_bands(values: np.ndarray, fn) -> np.ndarray:
    """from_bands(fn(lower bands), fn(upper bands)) of a square matrix, with
    one fn call when the matrix is bitwise symmetric."""
    lower = fn(upper_bands(values.T))
    upper = lower if bitwise_symmetric(values) else fn(upper_bands(values))
    return from_bands(lower, upper)


def band_solve(rhs, weight, denom) -> np.ndarray:
    """x[0] = rhs[0] / denom[0], x[i] = (rhs[i] + weight[i] x[i-1]) / denom[i]
    along axis 0.  The arguments broadcast, so one sweep solves a single band
    or every column of a band array; weight[0] is never read."""
    rhs, weight, denom = np.broadcast_arrays(rhs, weight, denom)
    x = np.empty(rhs.shape, dtype=np.result_type(rhs, weight, denom))
    x[:1] = rhs[:1] / denom[:1]
    for i in range(1, len(x)):
        x[i] = (rhs[i] + weight[i] * x[i - 1]) / denom[i]
    return x
