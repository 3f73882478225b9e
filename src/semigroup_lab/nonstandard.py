"""A second completely positive perturbation that resets lost normalization.

Given a (generally trace-losing) generator g, the modified generator

    g_hat(rho) = g(rho) - tr(g rho) * rho_hat

re-injects the instantaneous normalization loss into the state rho_hat.  It
coincides with g wherever g is trace free (all interior finite-rank
elements), differs exactly by rho_hat on elements with unit flux, and
generates a conservative semigroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .birth import BirthBandGenerator, band_domain_element, conservativity_defect
from .operators import _matrix_of, as_operator, as_operator_stack, \
    is_positive_semidefinite, matrix_exponential_apply, matrix_unit, rank_one, \
    trace_norm
from .rates import RateSequence

_TRIALS = 100
# at most this many operator cells (128 KiB of complex128) per stacked
# generator call in falsifier_report; a stack of all 100 trials at dim = 107
# holds 18 MB per temporary and ran slower than one trial per call
_CHUNK_CELLS = 2 ** 13


@dataclass(frozen=True)
class TraceResetGenerator:
    """g_hat = g - tr(g .) rho_hat for a base generator map g.

    A stack of operators, shape (..., N, N), is passed to the base whole, so
    it maps slice by slice when the base takes stacks (BirthBandGenerator
    does), each slice bit for bit its own call."""

    base: Callable[[np.ndarray], np.ndarray]
    reset_state: np.ndarray

    def __post_init__(self):
        state = as_operator(self.reset_state)
        if abs(np.trace(state) - 1.0) > 1e-12:
            raise ValueError("reset state must have unit trace")
        if not is_positive_semidefinite(state, tol=1e-12):
            raise ValueError("reset state must be positive semidefinite")
        object.__setattr__(self, "reset_state", state)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        rho = as_operator_stack(rho)
        if rho.shape[-2:] != self.reset_state.shape:
            raise ValueError("operator dimension does not match the reset state")
        out = self.base(rho)
        return out - np.trace(out, axis1=-2, axis2=-1)[..., None, None] * self.reset_state

    def superop_matrix(self, dim: int):
        """Sparse matrix of the base map minus vec(rho_hat) times its trace row.

        The trace row, the sum of the rows a*(dim+1) of the base matrix, maps
        vec(rho) to tr g(rho).  The base matrix comes from the base's own
        method when it has one, else from the column loop.
        """
        from scipy.sparse import csr_array

        if dim != self.reset_state.shape[0]:
            raise ValueError("operator dimension does not match the reset state")
        m = _matrix_of(self.base, dim)
        trace_row = csr_array(m[::dim + 1].sum(axis=0).reshape(1, -1))
        return m - csr_array(self.reset_state.reshape(-1, 1)) @ trace_row


class FalsifierError(RuntimeError):
    """A falsifier report that fails FalsifierReport.consistent()."""


@dataclass(frozen=True)
class FalsifierReport:
    """Numerical ingredients of the non-standardness argument."""

    interior_max_deviation: float
    reset_difference_trace_norm: float
    base_defect: float
    reset_residual: float

    def consistent(self) -> bool:
        return (self.interior_max_deviation <= 1e-12
                and abs(self.reset_difference_trace_norm - 1.0) <= 1e-10
                and self.base_defect > 0
                and self.reset_residual <= 1e-9)


def conservativity_residual(gen: Callable[[np.ndarray], np.ndarray],
                            rho: np.ndarray, t: float) -> float:
    """|1 - tr exp(t gen) rho| for a unit-trace positive rho."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    rho = as_operator(rho)
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    if t == 0:
        return 0.0
    evolved = matrix_exponential_apply(gen, t, rho)
    return float(abs(1.0 - np.real(np.trace(evolved))))


def _trial_vectors(dim: int, seed: int) -> np.ndarray:
    """The falsifier's interior trial vectors, shape (100, 2, dim): trial k's
    phi and psi, each with its last entry zeroed and then divided by its norm.

    One standard_normal((100, 4, dim)) draw is the stream of 400 draws of
    dim values each, in the order phi.real, phi.imag, psi.real, psi.imag per
    trial.  The norm is np.linalg.norm's of a complex vector, sqrt(re.re +
    im.im) with both dots BLAS's, here through vecdot for the whole stack."""
    draws = np.random.default_rng(seed).standard_normal((_TRIALS, 4, dim))
    vectors = draws[:, 0::2] + 1j * draws[:, 1::2]
    vectors[..., -1] = 0.0
    re, im = vectors.real, vectors.imag
    vectors /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[..., None]
    return vectors


def falsifier_report(rates: RateSequence, dim: int, lam: float = 1.0,
                     t: float = 1.0, seed: int = 0) -> FalsifierReport:
    """Collect the three numerical ingredients of non-standardness for the
    birth instance, with the reset state |0><0|.

    (i)  g_hat equals g on 100 random interior finite-rank elements;
    (ii) g_hat differs from g by exactly the reset state on the diagonal
         band element, whose flux is one;
    (iii) the base semigroup loses normalization (positive defect) while the
         reset semigroup preserves it.  The defect of the reset state is the
         scalar p11: P R_lambda has rank one, and its powers act on the reset
         state as p11^k.

    g is the birth generator in band form, O(dim^2) per operator.  The trials
    are drawn at once and go through g and g_hat in stacks of at most 2**13
    cells: 9 trials a call at dim = 30, one at dim = 107.  On a 2-core host
    (i) took a median of 5.6 ms at dim = 30 and 52 ms at dim = 107; the dense
    StandardGeneratorSpec calls the tests compare it with took medians of
    0.21-0.37 s at dim = 107.  (iii)'s reset residual exponentiates the
    one dim x dim block of the superoperator matrix that |0><0| occupies
    (0.02-0.04 s at dim = 107).
    """
    base = BirthBandGenerator(rates, dim)
    gen_hat = TraceResetGenerator(base=base, reset_state=matrix_unit(0, 0, dim))

    vectors = _trial_vectors(dim, seed)
    interior_dev = 0.0
    step = max(1, _CHUNK_CELLS // dim ** 2)
    for k in range(0, _TRIALS, step):
        rho = rank_one(vectors[k:k + step, 0], vectors[k:k + step, 1])
        interior_dev = max(interior_dev,
                           float(np.abs(gen_hat(rho) - base(rho)).max()))

    sigma = band_domain_element(rates, 0, dim)
    reset_diff = trace_norm(gen_hat(sigma) - base(sigma))

    state = gen_hat.reset_state
    defect = conservativity_defect(rates, lam, state)
    residual = conservativity_residual(gen_hat, state, t)
    return FalsifierReport(interior_max_deviation=interior_dev,
                           reset_difference_trace_norm=reset_diff,
                           base_defect=defect,
                           reset_residual=residual)
