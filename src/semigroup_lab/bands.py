"""Offset-diagonal (band) layout, the band map, and the one recurrence solved
along a band.

Column d of a band array holds the d-th offset diagonal, zero-padded below:
`upper_bands(values)[k, d] = values[k, k + d]`, and the lower bands are the
upper bands of the transpose, so column 0 of both is the main diagonal.

`map_bands(values, fn)` maps a square matrix's lower band array by fn and
writes the result into the output matrix, then does the same for the upper
band array, so one band array is held beside the result; fn must act on each
band array as a whole and return one of the same shape and dtype, and may
overwrite the array it is given.  A matrix equal to its transpose bit for
bit has equal band arrays, so it builds and maps only the lower ones, and
the result is symmetric by construction.

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


def _put(out: np.ndarray, bands: np.ndarray, upper: bool) -> None:
    """out[j, j+d] = bands[j, d] for d >= 1 if upper, else out[j+d, j] =
    bands[j, d] for d >= 0; no padding row is read."""
    n = out.shape[0]
    flat = out.reshape(-1)
    for d in range(1 if upper else 0, n):
        start = d if upper else d * n
        flat[start:start + (n - d) * (n + 1):n + 1] = bands[:n - d, d]


def from_bands(low: np.ndarray, up: np.ndarray) -> np.ndarray:
    """out[j+d, j] = low[j, d], out[j, j+d] = up[j, d] off the diagonal; the
    diagonal comes from low."""
    out = np.zeros(low.shape, dtype=np.result_type(low, up))
    _put(out, up, upper=True)
    _put(out, low, upper=False)
    return out


def map_bands(values: np.ndarray, fn) -> np.ndarray:
    """from_bands(fn(lower bands), fn(upper bands)) of a square matrix, with
    one fn call when the matrix is bitwise symmetric.  Each mapped band array
    is written out before the next is built."""
    symmetric = bitwise_symmetric(values)
    bands = fn(upper_bands(values.T))
    out = np.zeros(values.shape, dtype=bands.dtype)
    _put(out, bands, upper=False)
    if not symmetric:
        del bands
        bands = fn(upper_bands(values))
    _put(out, bands, upper=True)
    return out


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
