import tracemalloc

import numpy as np
import pytest

from semigroup_lab import (
    BirthBandGenerator,
    FalsifierReport,
    TraceResetGenerator,
    band_domain_element,
    birth_generator,
    birth_resolvent,
    conservativity_defect,
    conservativity_residual,
    falsifier_report,
    is_positive_semidefinite,
    matrix_exponential_apply,
    matrix_unit,
    no_event_resolvent,
    rank_one,
    resolvent_direct,
    resolvent_series,
    trace_norm,
)
from semigroup_lab.generators import apply_jump
from semigroup_lab.nonstandard import _trial_vectors
from semigroup_lab.operators import NonFiniteError
from semigroup_lab.rates import ConstantRates, ExplicitRates, GeometricRates, \
    PolynomialRates, parse_rate_spec

from conftest import random_operator, random_psd, random_vector, signed_zero_stack

POLY = PolynomialRates(1.0, 2.0)
GEO = GeometricRates(2.0)


def reset_generator(rates, dim):
    spec = birth_generator(rates, dim)
    return TraceResetGenerator(base=spec, reset_state=matrix_unit(0, 0, dim))


def birth_reset_resolvent_series(rates, dim, lam, rho, reset_state, tol=1e-10):
    """Resolvent series of the reset generator, built on the closed-form
    birth resolvent as the unperturbed part: the reset-series oracle."""
    spec = birth_generator(rates, dim)

    def perturbation(x):
        return -np.trace(spec(x)) * reset_state

    return resolvent_series(lambda x: birth_resolvent(rates, lam, x),
                            perturbation, lam, rho, tol=tol)


class TestTraceResetGenerator:
    def test_reset_state_validation(self):
        base = birth_generator(POLY, 4)
        with pytest.raises(ValueError, match="unit trace"):
            TraceResetGenerator(base=base, reset_state=2.0 * matrix_unit(0, 0, 4))
        with pytest.raises(ValueError, match="positive"):
            TraceResetGenerator(base=base, reset_state=np.diag([2.0, -1.0, 0, 0]))

    def test_trace_free_for_all_inputs(self, rng):
        gen = reset_generator(POLY, 8)
        for _ in range(10):
            rho = random_operator(8, rng)
            assert abs(np.trace(gen(rho))) <= 1e-12 * max(1.0, np.abs(rho).max())

    def test_matches_base_on_interior_elements(self, rng):
        dim = 12
        spec = birth_generator(POLY, dim)
        gen = TraceResetGenerator(base=spec, reset_state=matrix_unit(0, 0, dim))
        for _ in range(10):
            rho = rank_one(random_vector(dim, rng, interior=True),
                           random_vector(dim, rng, interior=True))
            assert np.abs(gen(rho) - spec(rho)).max() <= 1e-12

    def test_band_element_shifted_by_reset_state(self):
        # the diagonal band element carries unit flux, so the reset term
        # contributes exactly the reset state
        dim = 20
        spec = birth_generator(POLY, dim)
        gen = TraceResetGenerator(base=spec, reset_state=matrix_unit(0, 0, dim))
        sigma = band_domain_element(POLY, 0, dim)
        diff = gen(sigma) - spec(sigma)
        assert trace_norm(diff - matrix_unit(0, 0, dim)) <= 1e-10
        assert trace_norm(diff) == pytest.approx(1.0, abs=1e-10)

    def test_general_reset_state(self, rng):
        dim = 6
        state = random_psd(dim, rng)
        gen = TraceResetGenerator(base=birth_generator(POLY, dim), reset_state=state)
        rho = random_operator(dim, rng)
        assert abs(np.trace(gen(rho))) <= 1e-12 * max(1.0, np.abs(rho).max())


class TestStackedResetGenerator:
    """g_hat on a (k, N, N) stack with the band generator as its base: each
    slice is its own 2-D call byte for byte, and a 2-D call is
    base(rho) - trace(base(rho)) * rho_hat as it always was."""

    RATES = ["poly:1:2", "geom:2", "const:1",
             "list:" + ",".join(str(0.5 + 0.75 * k) for k in range(107))]

    @pytest.mark.parametrize("spec", RATES)
    @pytest.mark.parametrize("dim", [2, 30, 107])
    def test_stack_is_its_slices_byte_for_byte(self, spec, dim):
        rng = np.random.default_rng(dim)
        base = BirthBandGenerator(parse_rate_spec(spec), dim)
        for state in (matrix_unit(0, 0, dim), random_psd(dim, rng)):
            gen = TraceResetGenerator(base=base, reset_state=state)
            stack = signed_zero_stack(dim, rng)
            out = gen(stack)
            assert out.shape == stack.shape
            for rho, slice_out in zip(stack, out):
                matrix_out = base(rho)
                expected = matrix_out - np.trace(matrix_out) * gen.reset_state
                assert slice_out.tobytes() == gen(rho).tobytes() == expected.tobytes()
            assert gen(stack.reshape(2, 2, dim, dim)).tobytes() == out.tobytes()

    def test_stack_validation(self):
        gen = TraceResetGenerator(base=BirthBandGenerator(POLY, 5),
                                  reset_state=matrix_unit(0, 0, 5))
        stack = signed_zero_stack(5, np.random.default_rng(0))
        for k in range(len(stack)):
            broken = stack.copy()
            broken[k, 4, 0] = complex(0.0, np.nan)
            with pytest.raises(NonFiniteError):
                gen(broken)
        with pytest.raises(ValueError, match="square"):
            gen(np.zeros((3, 5, 4)))
        with pytest.raises(ValueError, match="does not match"):
            gen(np.zeros((3, 4, 4)))


class TestConservativity:
    def test_zero_time(self):
        gen = reset_generator(POLY, 5)
        assert conservativity_residual(gen, matrix_unit(0, 0, 5), 0.0) == 0.0

    def test_reset_semigroup_preserves_trace(self):
        # at N = 80 a dense superoperator matrix would take 655 MB
        gen = reset_generator(POLY, 80)
        assert conservativity_residual(gen, matrix_unit(0, 0, 80), 1.0) <= 1e-9

    def test_base_alone_loses_trace(self):
        dim = 20
        spec = birth_generator(GEO, dim)
        residual = conservativity_residual(spec, matrix_unit(0, 0, dim), 1.0)
        assert residual > 0.1
        assert conservativity_defect(GEO, 1.0, matrix_unit(0, 0, dim)) > 0.1

    def test_positivity_of_reset_evolution(self, rng):
        dim = 10
        gen = reset_generator(POLY, dim)
        for _ in range(5):
            rho = random_psd(dim, rng)
            evolved = matrix_exponential_apply(gen, 5.0, rho)
            evolved = 0.5 * (evolved + evolved.conj().T)
            assert np.linalg.eigvalsh(evolved).min() >= -1e-8
            assert np.trace(evolved).real == pytest.approx(1.0, abs=1e-10)


class TestContractionReport:
    def test_p11_strictly_inside_unit_disc(self):
        # p11, the defect of the reset state, makes the reset perturbation
        # composed with the base resolvent a strict contraction
        p11 = conservativity_defect(GEO, 1.0, matrix_unit(0, 0, 30))
        assert 0.0 < p11 < 1.0

    def test_domain_budget_comparable(self, rng):
        # the reset series should converge within twice the iteration budget
        # of the base minimal-solution series
        dim, lam = 30, 1.0
        rho = random_psd(dim, rng)
        spec = birth_generator(GEO, dim)
        base = resolvent_series(lambda x: no_event_resolvent(GEO, lam, x),
                                lambda x: apply_jump(spec, x), lam, rho)
        reset = birth_reset_resolvent_series(GEO, dim, lam, rho,
                                             matrix_unit(0, 0, dim))
        assert base.converged and reset.converged
        assert reset.iterations <= 2 * base.iterations

    def test_reset_series_matches_dense_solve(self, rng):
        dim, lam = 12, 1.0
        rho = random_psd(dim, rng)
        gen = reset_generator(GEO, dim)
        series = birth_reset_resolvent_series(GEO, dim, lam, rho,
                                              matrix_unit(0, 0, dim))
        direct = resolvent_direct(gen, lam, rho)
        assert trace_norm(series.value - direct) <= 1e-8

    def test_reset_resolvent_is_cp(self, rng):
        from semigroup_lab import choi_matrix

        dim, lam = 6, 1.0

        def series_map(rho):
            return birth_reset_resolvent_series(GEO, dim, lam, rho,
                                                matrix_unit(0, 0, dim)).value

        assert is_positive_semidefinite(choi_matrix(series_map, dim), tol=1e-10)


class TestFalsifier:
    @staticmethod
    def loop_trials(dim, seed):
        """The 100 trials' (phi, psi) drawn and normalized one trial at a time."""
        rng = np.random.default_rng(seed)
        for _ in range(100):
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi[-1] = psi[-1] = 0.0
            yield phi / np.linalg.norm(phi), psi / np.linalg.norm(psi)

    @classmethod
    def dense_report(cls, rates, dim, lam, t, seed):
        """falsifier_report with the dense StandardGeneratorSpec as g and a
        loop of one generator call per trial."""
        spec = birth_generator(rates, dim)
        gen_hat = TraceResetGenerator(base=spec, reset_state=matrix_unit(0, 0, dim))
        interior_dev = 0.0
        for phi, psi in cls.loop_trials(dim, seed):
            rho = rank_one(phi, psi)
            interior_dev = max(interior_dev, float(np.abs(gen_hat(rho) - spec(rho)).max()))
        sigma = band_domain_element(rates, 0, dim)
        state = gen_hat.reset_state
        return FalsifierReport(
            interior_max_deviation=interior_dev,
            reset_difference_trace_norm=trace_norm(gen_hat(sigma) - spec(sigma)),
            base_defect=conservativity_defect(rates, lam, state),
            reset_residual=conservativity_residual(gen_hat, state, t))

    @pytest.mark.parametrize("rates, dim", [
        (POLY, 2), (POLY, 30), (POLY, 107), (GEO, 30), (GeometricRates(1.01), 107),
        (ConstantRates(1.0), 30), (ExplicitRates((0.5, 2.0, 3.25)), 3)])
    def test_band_route_equals_the_dense_route(self, rates, dim):
        for seed in (0, 3, 11, 106):
            assert falsifier_report(rates, dim, lam=1.0, t=1.0, seed=seed) == \
                self.dense_report(rates, dim, 1.0, 1.0, seed)

    @pytest.mark.parametrize("dim", [2, 3, 6, 30, 107])
    def test_trial_vectors_are_the_loops_byte_for_byte(self, dim):
        for seed in (0, 106):
            vectors = _trial_vectors(dim, seed)
            assert vectors.shape == (100, 2, dim)
            for pair, (phi, psi) in zip(vectors, self.loop_trials(dim, seed)):
                assert pair.tobytes() == np.stack([phi, psi]).tobytes()

    def test_trials_are_applied_in_small_stacks(self):
        """The trials run through the generators in stacks of at most 2**13
        cells.  The traced peak of the whole report measured 4.3 MB (5.2 MB
        with stacks of 2**16 cells); the bound leaves almost 2x that.  One
        stack of all 100 trials at N=107 holds 18.3 MB per temporary, and
        the report's peak was then over 70 MB.  A first call imports scipy's
        sparse and linalg modules, which the trace would count too."""
        falsifier_report(POLY, 107, lam=1.0, t=1.0, seed=1)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            report = falsifier_report(POLY, 107, lam=1.0, t=1.0, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert report.consistent()
        assert peak <= 8 * 10 ** 6

    def test_report_consistent_polynomial(self):
        report = falsifier_report(POLY, 30, lam=1.0, t=1.0, seed=5)
        assert report.interior_max_deviation <= 1e-12
        assert report.reset_difference_trace_norm == pytest.approx(1.0, abs=1e-10)
        assert report.base_defect > 0.1
        assert report.reset_residual <= 1e-9
        assert report.consistent()

    def test_report_consistent_when_the_loss_is_tiny(self):
        # geom:1.01 at N=50, lambda=100 loses 1.04e-95 of the normalization;
        # 1 - lambda tr R cancelled that to 0 and read as conservative
        report = falsifier_report(GeometricRates(1.01), 50, lam=100.0, t=1.0)
        assert 0.0 < report.base_defect < 1e-94
        assert report.consistent()

    def test_report_consistent_geometric(self):
        # roundoff in the flux trace scales with the top rate, so the
        # interior agreement is judged relative to mu_max here
        report = falsifier_report(GEO, 20, lam=1.0, t=1.0, seed=3)
        assert report.interior_max_deviation <= 1e-12 * GEO.mu(19)
        assert report.reset_difference_trace_norm == pytest.approx(1.0, abs=1e-10)
        assert report.base_defect > 0.1
        assert report.reset_residual <= 1e-9
