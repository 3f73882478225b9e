"""Resolvent calculus: direct solves, the minimal-solution series, and the
Euler reconstruction of the semigroup from its resolvent.

The direct resolvent solves (lambda - G) X = rho on the dim^2 x dim^2 matrix
of the superoperator, one dense solve per block of its nonzero pattern that
rho occupies (`operators._blockwise_apply`); the Euler reconstruction takes
the n-th power of those blocks of lambda R_lambda the same way.  The series builds the perturbed
resolvent

    R_lambda = sum_n R0 (P R0)^n

whose partial sums are exactly the monotone iterates of the minimal-solution
construction; for positive inputs their traces increase to the limit and
never exceed tr(rho).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operators import _blockwise_apply, as_operator, is_positive_semidefinite, \
    is_selfadjoint, trace_norm

_MAX_ITER = 10 ** 6


class SeriesDivergenceError(RuntimeError):
    """The resolvent series increments stopped decreasing and exceed their
    initial size; a fixed point of P R0 would make the series diverge."""


@dataclass
class ResolventSeriesResult:
    value: np.ndarray
    iterations: int
    trace_trajectory: list
    converged: bool


def resolvent_direct(gen: Callable[[np.ndarray], np.ndarray], lam: float,
                     rho: np.ndarray) -> np.ndarray:
    """Solve (lambda - gen) X = rho by a dense linear solve per block of the
    superoperator matrix; lambda is checked before the matrix is assembled."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    return _blockwise_apply(gen, as_operator(rho),
                            lambda a, v: np.linalg.solve(lam * np.eye(v.size) - a, v))


def _trace(a: np.ndarray) -> float:
    return float(np.real(np.trace(a)))


def resolvent_series(r0: Callable[[np.ndarray], np.ndarray],
                     perturbation: Callable[[np.ndarray], np.ndarray],
                     lam: float, rho: np.ndarray,
                     tol: float = 1e-10) -> ResolventSeriesResult:
    """Sum the perturbed-resolvent series sum_n R0 (P R0)^n applied to rho.

    `r0` is the unperturbed resolvent at the given lambda and `perturbation`
    the completely positive perturbation.  For a positive input the
    normalization condition tr(P(R0 rho)) <= tr(rho) is verified up front,
    and every term, a CP map of rho, is positive, so its trace is its trace
    norm: increments and the accumulated value are then measured by their
    traces, otherwise by trace_norm (an SVD per term).
    Stops when the increment is below `tol` both absolutely and relative to
    the accumulated value, or unconverged after _MAX_ITER terms.
    A growing increment that fails to decrease over 100 consecutive steps
    raises SeriesDivergenceError instead of truncating silently.
    """
    if not (lam > 0 and tol > 0):
        raise ValueError("lambda and tol must be positive")
    rho = as_operator(rho)
    term = r0(rho)
    w = perturbation(term)
    positive = is_selfadjoint(rho) and is_positive_semidefinite(rho, tol=1e-12)
    if positive:
        witness = np.real(np.trace(w))
        budget = np.real(np.trace(rho))
        if witness > budget + 1e-10 * max(1.0, budget):
            raise ValueError(
                "perturbation is not dominated by the no-event loss: "
                f"tr P(R0 rho) = {witness:.6e} > tr rho = {budget:.6e}"
            )
    measure = _trace if positive else trace_norm
    value = term.copy()
    trajectory = [lam * _trace(value)]
    first_increment = None
    trailing_min = np.inf
    stalled = 0
    converged = False
    n = 0
    for n in range(1, _MAX_ITER + 1):
        term = r0(w)
        value += term
        trajectory.append(lam * _trace(value))
        inc = measure(term)
        if first_increment is None:
            first_increment = inc
        if inc < trailing_min:
            trailing_min = inc
            stalled = 0
        else:
            stalled += 1
        if inc <= tol and inc <= tol * max(measure(value), 1e-300):
            converged = True
            break
        if stalled >= 100 and inc > first_increment:
            raise SeriesDivergenceError(
                f"series increment {inc:.3e} has not decreased for {stalled} "
                f"iterations and exceeds its initial value {first_increment:.3e}"
            )
        w = perturbation(term)
    return ResolventSeriesResult(value=value, iterations=n,
                                 trace_trajectory=trajectory,
                                 converged=converged)


def euler_semigroup(resolvent: Callable[[float, np.ndarray], np.ndarray],
                    t: float, n: int, rho: np.ndarray) -> np.ndarray:
    """Reconstruct exp(tG) rho as ((n/t) R_{n/t})^n rho, the n-th power
    taken by binary powering of each block of the resolvent's superoperator
    matrix that rho occupies."""
    if not t > 0:
        raise ValueError("t must be positive")
    if n < 1:
        raise ValueError("n must be at least 1")
    lam = n / t
    return _blockwise_apply(lambda x: resolvent(lam, x), as_operator(rho),
                            lambda a, v: np.linalg.matrix_power(lam * a, n) @ v)
