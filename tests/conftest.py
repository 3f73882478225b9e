import os

# the dense oracles' BLAS on one thread: on a 2-core host, two threads slowed
# them about 10x while another process was busy; the variable is read when
# numpy loads, and the CLI tests' subprocesses inherit it
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest
from hypothesis import settings

from semigroup_lab import StandardGeneratorSpec, TraceResetGenerator, \
    birth_generator, matrix_unit
from semigroup_lab.rates import PolynomialRates

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")


def random_operator(dim, rng, interior=False):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if interior:
        a[-1, :] = 0.0
        a[:, -1] = 0.0
    return a


def random_psd(dim, rng, unit_trace=True):
    a = random_operator(dim, rng)
    rho = a @ a.conj().T
    if unit_trace:
        rho /= np.trace(rho).real
    return rho


def random_vector(dim, rng, interior=False, normalize=True):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if interior:
        v[-1] = 0.0
    if normalize:
        v /= np.linalg.norm(v)
    return v


def signed_zero_stack(dim, rng):
    """A (4, dim, dim) stack: a random operator, an interior one, an interior
    rank-one one, and one whose parts are zeros of both signs in about a
    third of the cells each."""
    signed = random_operator(dim, rng)
    for part in (signed.real, signed.imag):
        draw = rng.random((dim, dim))
        part[draw < 1 / 3] = -0.0
        part[draw > 2 / 3] = 0.0
    phi = random_vector(dim, rng, interior=True)
    psi = random_vector(dim, rng, interior=True)
    return np.stack([random_operator(dim, rng), random_operator(dim, rng, interior=True),
                     np.outer(phi, psi.conj()), signed])


def bits(a):
    """The real and imaginary parts' bit patterns, so -0.0 differs from 0.0."""
    return np.stack([a.real, a.imag]).view(np.int64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def block_maps(dim, rng):
    """Generators with a known block count of their superoperator matrix:
    the birth generator and its trace reset into |0><0| (2*dim - 1
    offset-diagonal blocks each), and a random dense standard generator
    (one block)."""
    birth = birth_generator(PolynomialRates(1.0, 2.0), dim)
    reset = TraceResetGenerator(base=birth, reset_state=matrix_unit(0, 0, dim))
    jump = random_operator(dim, rng)
    h = random_operator(dim, rng)
    dense = StandardGeneratorSpec(K=0.5j * (h + h.conj().T) - 0.5 * jump.conj().T @ jump,
                                  jumps=(jump,))
    return {"birth": (birth, 2 * dim - 1), "reset": (reset, 2 * dim - 1),
            "dense": (dense, 1)}
