import tracemalloc

import numpy as np
import pytest

import semigroup_lab.operators
import semigroup_lab.resolvent
from semigroup_lab import (
    SeriesDivergenceError,
    apply_jump,
    apply_standard,
    birth_generator,
    birth_resolvent,
    choi_matrix,
    euler_semigroup,
    is_positive_semidefinite,
    matrix_exponential_apply,
    matrix_unit,
    no_event_resolvent,
    resolvent_direct,
    resolvent_series,
    superop_matrix,
    trace_norm,
)
from semigroup_lab.rates import PolynomialRates, parse_rate_spec

from conftest import block_maps, random_operator, random_psd

RATES = PolynomialRates(1.0, 2.0)


class TestResolventDirect:
    def test_zero_generator(self, rng):
        rho = random_operator(4, rng)
        out = resolvent_direct(lambda x: np.zeros_like(x), 2.0, rho)
        assert np.allclose(out, rho / 2.0, atol=1e-14)

    def test_resolvent_identity(self, rng):
        spec = birth_generator(RATES, 6)
        rho = random_operator(6, rng)
        lam, nu = 1.0, 3.0
        lhs = resolvent_direct(spec, lam, rho) - resolvent_direct(spec, nu, rho)
        rhs = (nu - lam) * resolvent_direct(spec, lam, resolvent_direct(spec, nu, rho))
        assert trace_norm(lhs - rhs) <= 1e-10

    def test_large_lambda_limit(self, rng):
        spec = birth_generator(RATES, 5)
        rho = random_psd(5, rng)
        devs = [trace_norm(lam * resolvent_direct(spec, lam, rho) - rho)
                for lam in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_requires_positive_lambda(self, rng):
        with pytest.raises(ValueError):
            resolvent_direct(lambda x: x, 0.0, random_operator(3, rng))

    @pytest.mark.parametrize("lam", [np.nan, 0.0])
    def test_lambda_checked_before_assembly(self, monkeypatch, lam):
        # a bad lambda must be refused before the superoperator matrix is built
        def refuse(*args):
            pytest.fail("the superoperator matrix was assembled")

        monkeypatch.setattr(semigroup_lab.operators, "superop_matrix", refuse)
        with pytest.raises(ValueError, match="lambda"):
            resolvent_direct(birth_generator(RATES, 40), lam, matrix_unit(0, 0, 40))


class TestResolventSeries:
    def test_zero_perturbation(self, rng):
        rho = random_psd(4, rng)
        r0 = lambda x: no_event_resolvent(RATES, 1.0, x)
        result = resolvent_series(r0, lambda x: np.zeros_like(x), 1.0, rho)
        assert result.converged
        assert result.iterations == 1
        assert np.allclose(result.value, r0(rho), atol=1e-13)

    def test_normalization_witness(self, rng):
        # tr P(R0 rho) <= tr rho for PSD rho: the series precondition holds
        spec = birth_generator(RATES, 8)
        rho = random_psd(8, rng)
        witness = np.trace(apply_jump(spec, no_event_resolvent(RATES, 1.0, rho))).real
        assert witness <= np.trace(rho).real + 1e-12

    def test_matches_direct_dense_solve(self, rng):
        dim = 30
        spec = birth_generator(RATES, dim)
        rho = random_psd(dim, rng)
        result = resolvent_series(lambda x: no_event_resolvent(RATES, 1.0, x),
                                  lambda x: apply_jump(spec, x), 1.0, rho,
                                  tol=1e-10)
        direct = resolvent_direct(spec, 1.0, rho)
        assert result.converged
        assert trace_norm(result.value - direct) <= 1e-8

    def test_trace_trajectory_monotone_bounded(self, rng):
        spec = birth_generator(RATES, 12)
        rho = random_psd(12, rng)
        result = resolvent_series(lambda x: no_event_resolvent(RATES, 1.0, x),
                                  lambda x: apply_jump(spec, x), 1.0, rho)
        traj = result.trace_trajectory
        assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))
        assert max(traj) <= np.trace(rho).real + 1e-10

    def test_iterates_are_cp(self, rng):
        dim = 6
        spec = birth_generator(RATES, dim)

        def series_map(rho):
            return resolvent_series(lambda x: no_event_resolvent(RATES, 1.0, x),
                                    lambda x: apply_jump(spec, x), 1.0, rho).value

        choi = choi_matrix(series_map, dim)
        assert is_positive_semidefinite(choi, tol=1e-10)

    def test_rejects_trace_increasing_perturbation(self, rng):
        rho = random_psd(4, rng)
        r0 = lambda x: no_event_resolvent(RATES, 1.0, x)
        with pytest.raises(ValueError, match="not dominated"):
            resolvent_series(r0, lambda x: 100.0 * x, 1.0, rho)

    def test_divergence_detected(self, monkeypatch, rng):
        # a non-positive input skips the witness check; a doubling map then
        # grows the increments without bound and must be reported
        monkeypatch.setattr(semigroup_lab.resolvent, "_MAX_ITER", 10 ** 4)
        rho = random_operator(3, rng)
        with pytest.raises(SeriesDivergenceError):
            resolvent_series(lambda x: x, lambda x: 2.0 * x, 1.0, rho)

    @pytest.mark.parametrize("make_rho", [random_psd, random_operator])
    def test_one_r0_and_one_perturbation_per_term(self, rng, make_rho):
        spec = birth_generator(RATES, 8)
        calls = {"r0": 0, "p": 0}

        def r0(x):
            calls["r0"] += 1
            return no_event_resolvent(RATES, 1.0, x)

        def perturbation(x):
            calls["p"] += 1
            return apply_jump(spec, x)

        result = resolvent_series(r0, perturbation, 1.0, make_rho(8, rng))
        assert result.converged and result.iterations > 1
        assert calls == {"r0": result.iterations + 1, "p": result.iterations}

    def test_series_resolvent_identity(self, rng):
        spec = birth_generator(RATES, 10)
        rho = random_psd(10, rng)

        def series_resolvent(lam, x):
            return resolvent_series(lambda y: no_event_resolvent(RATES, lam, y),
                                    lambda y: apply_jump(spec, y), lam, x).value

        lam, nu = 0.7, 2.0
        lhs = series_resolvent(lam, rho) - series_resolvent(nu, rho)
        rhs = (nu - lam) * series_resolvent(lam, series_resolvent(nu, rho))
        assert trace_norm(lhs - rhs) <= 1e-8


def svd_series(r0, perturbation, lam, rho, tol):
    """The series' loop with every increment and value measured by an SVD
    trace norm: (value, iterations, trace trajectory, converged)."""
    term = r0(rho)
    value = term.copy()
    trajectory = [lam * float(np.real(np.trace(value)))]
    for n in range(1, 10 ** 6 + 1):
        term = r0(perturbation(term))
        value += term
        trajectory.append(lam * float(np.real(np.trace(value))))
        inc = trace_norm(term)
        if inc <= tol and inc <= tol * max(trace_norm(value), 1e-300):
            return value, n, trajectory, True
    return value, n, trajectory, False


def minimal_rho(dim, seed):
    """The random state of the `minimal` subcommand."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


class TestTraceIncrements:
    """On a positive input every term is positive, and the series measures
    it by its trace; it stops where the SVD trace norms would stop."""

    @pytest.mark.parametrize("spec", ["poly:1:2", "geom:2", "poly:1:1.5"])
    @pytest.mark.parametrize("dim", [8, 40, 107])
    def test_same_terms_and_bits_as_svd_increments(self, spec, dim):
        rates = parse_rate_spec(spec)
        gen = birth_generator(rates, dim)
        r0 = lambda x: no_event_resolvent(rates, 1.0, x)
        jump = lambda x: apply_jump(gen, x)
        for seed in range(6):
            rho = minimal_rho(dim, seed)
            result = resolvent_series(r0, jump, 1.0, rho, tol=1e-10)
            value, iterations, trajectory, converged = svd_series(r0, jump, 1.0, rho, 1e-10)
            assert (result.iterations, result.converged) == (iterations, converged)
            assert result.trace_trajectory == trajectory
            assert np.array_equal(result.value, value)

    @pytest.mark.parametrize("make_rho, svds", [(random_psd, False), (random_operator, True)])
    def test_trace_norm_only_off_positive_inputs(self, rng, monkeypatch, make_rho, svds):
        calls = 0

        def counting(a):
            nonlocal calls
            calls += 1
            return trace_norm(a)

        monkeypatch.setattr(semigroup_lab.resolvent, "trace_norm", counting)
        spec = birth_generator(RATES, 8)
        result = resolvent_series(lambda x: no_event_resolvent(RATES, 1.0, x),
                                  lambda x: apply_jump(spec, x), 1.0, make_rho(8, rng))
        assert result.converged
        # one per term, and one for the value at least at the last term
        assert (calls > result.iterations) if svds else (calls == 0)


class TestBlockwiseSolves:
    # oracle: one dense solve / power of the full superoperator matrix
    @pytest.mark.parametrize("name", ["birth", "reset", "dense"])
    def test_direct_routes_match_full_solve(self, rng, name):
        gen, _ = block_maps(5, rng)[name]
        rho = random_operator(5, rng)
        full = lambda lam: np.linalg.solve(
            lam * np.eye(25) - superop_matrix(gen, 5).toarray(), rho.ravel()).reshape(5, 5)
        for lam in (0.5, 2.0):
            ref = full(lam)
            out = resolvent_direct(gen, lam, rho)
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["birth", "reset", "dense"])
    def test_euler_power_matches_full_matrix_power(self, rng, name):
        dim, n, t = 3, 16, 0.4
        gen, _ = block_maps(dim, rng)[name]
        rho = random_operator(dim, rng)
        resolvent = lambda lam, x: resolvent_direct(gen, lam, x)
        lam = n / t
        b = lam * superop_matrix(lambda x: resolvent(lam, x), dim).toarray()
        ref = (np.linalg.matrix_power(b, n) @ rho.ravel()).reshape(dim, dim)
        out = euler_semigroup(resolvent, t, n, rho)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


class TestDenseOracleMemory:
    """The superoperator matrix is sparse, and each block is made dense only
    inside the block loop: expm and the solve hold no dense N**2 x N**2
    array, only arrays of one block's size.  Euler's column loop stays a
    dense reference route of one complex (N, N, N, N) array."""

    @pytest.mark.parametrize("name", ["expm", "solve", "euler"])
    def test_peak_is_one_superoperator(self, rng, name):
        dim = 20 if name == "euler" else 30  # Euler's column loop is slow
        maps = block_maps(dim, rng)
        rho = random_psd(dim, rng)
        oracle, bound = {
            "expm": (lambda: matrix_exponential_apply(maps["reset"][0], 1.0, rho),
                     16 * dim ** 3),
            "solve": (lambda: resolvent_direct(maps["birth"][0], 1.0, rho),
                      16 * dim ** 3),
            "euler": (lambda: euler_semigroup(
                lambda lam, x: birth_resolvent(RATES, lam, x), 1.0, 16, rho),
                1.25 * 16 * dim ** 4),
        }[name]
        oracle()  # lazy imports are not the oracle's memory
        tracemalloc.start()
        try:
            oracle()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestEulerFormula:
    def test_zero_generator_identity(self, rng):
        rho = random_operator(4, rng)
        out = euler_semigroup(lambda lam, x: x / lam, 1.0, 7, rho)
        assert np.allclose(out, rho, atol=1e-12)

    def test_error_decreases_with_n(self, rng):
        spec = birth_generator(RATES, 5)
        rho = random_psd(5, rng)
        ref = matrix_exponential_apply(spec, 0.3, rho)
        resolvent = lambda lam, x: birth_resolvent(RATES, lam, x)
        errors = [trace_norm(euler_semigroup(resolvent, 0.3, 2 ** p, rho) - ref)
                  for p in range(6, 15)]
        assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_small_t_continuity(self, rng):
        spec = birth_generator(RATES, 5)
        rho = random_psd(5, rng)
        resolvent = lambda lam, x: resolvent_direct(spec, lam, x)
        devs = [trace_norm(euler_semigroup(resolvent, t, 8, rho) - rho)
                for t in (0.1, 0.01, 0.001)]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_validates_arguments(self, rng):
        rho = random_operator(3, rng)
        with pytest.raises(ValueError):
            euler_semigroup(lambda lam, x: x / lam, 0.0, 4, rho)
        with pytest.raises(ValueError):
            euler_semigroup(lambda lam, x: x / lam, 1.0, 0, rho)


class TestDomainElement:
    # R_lam rho' lies in the generator domain, with G(R_lam rho') =
    # lam R_lam rho' - rho'
    def test_generator_action_identity(self, rng):
        spec = birth_generator(RATES, 8)
        rho_prime = random_operator(8, rng, interior=True)
        element = birth_resolvent(RATES, 2.0, rho_prime)
        action = 2.0 * element - rho_prime
        assert trace_norm(apply_standard(spec, element) - action) <= 1e-10

    def test_series_route_consistent(self, rng):
        spec = birth_generator(RATES, 10)
        rho_prime = random_psd(10, rng)

        def series_resolvent(lam, x):
            return resolvent_series(lambda y: no_event_resolvent(RATES, lam, y),
                                    lambda y: apply_jump(spec, y), lam, x,
                                    tol=1e-12).value

        element = series_resolvent(1.0, rho_prime)
        action = element - rho_prime
        assert trace_norm(apply_standard(spec, element) - action) <= 1e-8
