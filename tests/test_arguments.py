import math

import numpy as np
import pytest

from semigroup_lab import (
    KernelGrid,
    TrajectoryStreams,
    apply_resolvent,
    apply_semigroup,
    arrival_laplace,
    arrival_partial_product,
    birth_generator,
    birth_resolvent,
    conservativity_defect,
    conservativity_residual,
    empirical_laplace,
    euler_semigroup,
    event_count_estimator,
    geometric_band_decay,
    is_positive_semidefinite,
    matrix_exponential_apply,
    matrix_unit,
    n_event_laplace_term,
    no_event_resolvent,
    resolvent_direct,
    resolvent_series,
    sample_trajectories,
    shift_arrival_density,
    trace_loss,
)
from semigroup_lab.rates import GeometricRates

GEO = GeometricRates(2.0)
NAN = math.nan
RHO = matrix_unit(0, 0, 4)
SPEC = birth_generator(GEO, 4)
KERNEL = KernelGrid(X=4.0, h=0.5, values=np.zeros((9, 9)))
SAMPLES = sample_trajectories(GEO, 0, 50.0, 60, TrajectoryStreams(1), 20)


def identity_resolvent(lam, x):
    return x / lam


# NaN fails every sign check, so it raises ValueError instead of passing
@pytest.mark.parametrize("call", [
    lambda: arrival_laplace(GEO, NAN),
    lambda: arrival_laplace(GEO, 1.0, tail_tol=NAN),
    lambda: arrival_partial_product(GEO, NAN, 0, 10),
    lambda: birth_resolvent(GEO, NAN, RHO),
    lambda: geometric_band_decay(GEO, 1, NAN, np.diagonal(RHO, 1), [1]),
    lambda: no_event_resolvent(GEO, NAN, RHO),
    lambda: conservativity_defect(GEO, NAN, RHO),
    lambda: empirical_laplace(SAMPLES, [NAN], GEO),
    lambda: event_count_estimator(SAMPLES, NAN, 1),
    lambda: n_event_laplace_term(GEO, NAN, 1, RHO),
    lambda: shift_arrival_density(np.ones(5), NAN),
    lambda: sample_trajectories(GEO, 0, NAN, 60, TrajectoryStreams(1), 1),
    lambda: resolvent_direct(SPEC, NAN, RHO),
    lambda: resolvent_series(lambda x: x, lambda x: 0 * x, NAN, RHO),
    lambda: resolvent_series(lambda x: x, lambda x: 0 * x, 1.0, RHO, tol=NAN),
    lambda: euler_semigroup(identity_resolvent, NAN, 4, RHO),
    lambda: KernelGrid(X=NAN, h=0.5, values=np.zeros((9, 9))),
    lambda: matrix_exponential_apply(SPEC, NAN, RHO),
    lambda: is_positive_semidefinite(RHO, tol=NAN),
    lambda: conservativity_residual(SPEC, RHO, NAN),
    lambda: apply_semigroup(KERNEL, NAN),
    lambda: apply_resolvent(KERNEL, NAN),
    lambda: trace_loss(KERNEL, NAN),
])
def test_nan_argument_is_refused(call):
    with pytest.raises(ValueError):
        call()
