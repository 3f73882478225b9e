"""Dense complex-matrix substrate for truncated trace-class operators.

Operators on the first N basis levels are plain complex ndarrays of shape
(N, N), entry (n, m) = <n|rho|m>.  Everything here is a pure function; all
heavy lifting is delegated to LAPACK via numpy/scipy.

A linear map on operators has a sparse (CSR) dim^2 x dim^2 matrix
(`superop_matrix`), built by one of two routes.  A map that knows its own
matrix supplies it through a `superop_matrix(dim)` method:
`StandardGeneratorSpec` (the GKLS closed form), `BirthBandGenerator` (the
birth spec's) and `TraceResetGenerator` (its base's matrix minus a rank-one
trace row).  Every other callable is applied
to each matrix unit E_ij, dim^2 calls; that dense column loop is the
reference route for the structured one.

Matrix functions of that matrix (exponential, inverse, powers) act on each
weakly connected component of its nonzero pattern alone; the birth and reset
generators split into 2*dim - 1 offset-diagonal blocks.  The dense oracles
share one block loop, `_blockwise_apply`, which evaluates f(m[b, b]) @ v[b]
with only m[b, b] made dense, straight from the matrix's CSR triplets, and
only for the blocks b that the vector occupies: a reset to |0><0| touches the
diagonal block alone.  scipy.sparse and scipy.linalg are imported where they
are used, to keep them off the package's import time.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

class MatrixExponentialError(RuntimeError):
    """Raised when the reference exponential produces non-finite values."""


class NonFiniteError(ValueError):
    """A value that must be finite (an operator entry, a kernel value, a
    number to be written) is NaN or infinite."""


def as_operator(a) -> np.ndarray:
    """Validate and coerce a matrix to a square, finite complex ndarray."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return as_operator_stack(a)


def as_operator_stack(a) -> np.ndarray:
    """Validate and coerce a stack of matrices, shape (..., N, N), to a
    finite complex ndarray; a single matrix is a stack with no leading axes."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFiniteError("operator entries must be finite")
    return a


def is_selfadjoint(a: np.ndarray) -> bool:
    """True when max |a[n,m] - conj(a[m,n])| <= 1e-12 * max(1, maxabs(a))."""
    a = as_operator(a)
    dev = np.abs(a - a.conj().T).max()
    return bool(dev <= 1e-12 * max(1.0, np.abs(a).max()))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values (nuclear norm)."""
    a = as_operator(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def is_positive_semidefinite(a: np.ndarray, tol: float = 0.0) -> bool:
    """True when the minimal eigenvalue is >= -tol * max(1, trace_norm(a)).

    The input must be self-adjoint (as judged by is_selfadjoint);
    non-self-adjoint matrices are rejected rather than symmetrized silently.
    """
    a = as_operator(a)
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if not is_selfadjoint(a):
        raise ValueError("is_positive_semidefinite requires a self-adjoint matrix")
    eig = np.linalg.eigvalsh(a)
    return float(eig.min()) >= -tol * max(1.0, float(np.abs(eig).sum()))


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call."""
    import scipy.linalg

    return scipy.linalg.expm(a)


def rank_one(phi, psi) -> np.ndarray:
    """|phi><psi| as a matrix: entry (n, m) = phi[n] * conj(psi[m]).

    Stacks of vectors, shape (..., N), give the stack (..., N, N) of their
    rank-one matrices, each with np.outer's products."""
    phi = np.asarray(phi, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if phi.ndim < 1 or phi.shape != psi.shape:
        raise ValueError("rank_one requires two vectors of equal length")
    return phi[..., :, None] * psi.conj()[..., None, :]


def matrix_unit(i: int, j: int, dim: int) -> np.ndarray:
    """Matrix unit E_ij on a dim-level truncation."""
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def superop_matrix(superop: Callable[[np.ndarray], np.ndarray], dim: int):
    """Sparse (CSR) dim^2 x dim^2 matrix of a linear map.

    Vectorization is row-major: E_ij maps to column i*dim + j.  A map with a
    `superop_matrix(dim)` method (`StandardGeneratorSpec`, `BirthBandGenerator`,
    `TraceResetGenerator`) builds the matrix itself without calling the map;
    any other callable is applied to every matrix unit, column by column.
    """
    return _matrix_of(superop, dim)


def _matrix_of(superop: Callable[[np.ndarray], np.ndarray], dim: int):
    """superop_matrix for maps whose own matrix starts from the matrix of
    another map, so that one assembly stays one superop_matrix call."""
    from scipy.sparse import csr_array

    own = getattr(superop, "superop_matrix", None)
    return own(dim) if own is not None else csr_array(_column_loop(superop, dim))


def _column_loop(superop: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    m = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            out = np.asarray(superop(matrix_unit(i, j, dim)), dtype=complex)
            if out.shape != (dim, dim):
                raise ValueError(
                    f"superoperator output has shape {out.shape}, expected {(dim, dim)}"
                )
            m[:, i * dim + j] = out.ravel()
    return m


def _blockwise_apply(superop: Callable[[np.ndarray], np.ndarray], rho: np.ndarray,
                     fn: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """f(M) rho for M = superop_matrix(superop, dim) and a matrix function f
    (exponential, inverse, power) given as fn(block, x) = f(block) @ x.

    The weakly connected components of M's nonzero pattern are its blocks:
    no nonzero entry links two of them, so M is block diagonal after one
    permutation, and so is f(M) (Higham 2008, Thm 1.13).  fn runs, on the
    dense block, only for the blocks that rho occupies; f(M) maps every
    other block of rho, which is zero, to zero.  A block is summed from the
    CSR entries of its component into zeros, in storage order, as `toarray`
    sums them: duplicates add up, and a stored zero changes nothing.
    """
    from scipy.sparse.csgraph import connected_components

    dim = rho.shape[0]
    m = superop_matrix(superop, dim)
    v = rho.ravel()
    count, labels = connected_components(m != 0, connection="weak")
    order = np.argsort(labels, kind="stable")  # each block's indices, ascending
    sizes = np.bincount(labels, minlength=count)
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    position = np.empty_like(order)  # of each index within its block
    position[order] = np.arange(order.size) - bounds[labels[order]]
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    stored = np.flatnonzero(m.data != 0)
    entry_labels = labels[rows[stored]]
    entries = stored[np.argsort(entry_labels, kind="stable")]
    entry_bounds = np.concatenate(([0], np.cumsum(np.bincount(entry_labels, minlength=count))))
    out = np.zeros_like(v)
    for k in np.unique(labels[v != 0]):
        e = entries[entry_bounds[k]:entry_bounds[k + 1]]
        block = np.zeros((sizes[k], sizes[k]), dtype=m.dtype)
        np.add.at(block, (position[rows[e]], position[m.indices[e]]), m.data[e])
        b = order[bounds[k]:bounds[k + 1]]
        out[b] = fn(block, v[b])
    return out.reshape(dim, dim)


def choi_matrix(superop: Callable[[np.ndarray], np.ndarray], dim: int) -> np.ndarray:
    """Block matrix with (i, j) block superop(E_ij); PSD iff the map is CP.
    A reshuffle of superop_matrix: (a*dim + b, i*dim + j) -> (i*dim + a, j*dim + b)."""
    m = superop_matrix(superop, dim).toarray().reshape(dim, dim, dim, dim)
    return m.transpose(2, 0, 3, 1).reshape(dim * dim, dim * dim)


def matrix_exponential_apply(
    gen: Callable[[np.ndarray], np.ndarray],
    t: float,
    rho: np.ndarray,
) -> np.ndarray:
    """Reference exp(t*gen) applied to rho.

    Uses Pade scaling-and-squaring on each block of the superoperator
    matrix that rho occupies (see _blockwise_apply); the squaring count grows only
    logarithmically with the generator norm, so stiff generators stay
    affordable.
    """
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    rho = as_operator(rho)
    if t == 0:
        return rho.copy()
    out = _blockwise_apply(gen, rho, lambda a, x: expm(t * a) @ x)
    if not np.isfinite(out).all():
        raise MatrixExponentialError("matrix exponential did not converge to finite values")
    return out
