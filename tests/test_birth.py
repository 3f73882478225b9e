import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semigroup_lab.birth
from semigroup_lab import (
    BirthBandGenerator,
    am_gm_gap,
    apply_standard,
    arrival_laplace,
    arrival_partial_product,
    band_domain_element,
    band_functional,
    birth_generator,
    birth_resolvent,
    conservativity_defect,
    domain_band,
    geometric_band_decay,
    leading_column_report,
    matrix_unit,
    moderate_growth_report,
    no_event_resolvent,
    resolvent_direct,
)
from semigroup_lab.operators import NonFiniteError
from semigroup_lab.rates import (
    ConstantRates,
    ExplicitRates,
    GeometricRates,
    PolynomialRates,
    RateRangeError,
    parse_rate_spec,
)

from conftest import bits, random_operator, random_psd, signed_zero_stack

POLY = PolynomialRates(1.0, 2.0)
LINEAR = PolynomialRates(1.0, 1.0)
GEO = GeometricRates(2.0)


def rates_from(rates, start, chunk=256):
    """mu_start, mu_{start+1}, ... as Python floats, equal to rates.mu(j)."""
    while True:
        yield from rates.mu_array(start, chunk).tolist()
        start += chunk


def sequential_arrival(rates, lam, n_start=0, tail_tol=1e-12, max_factors=10 ** 7):
    """Reference: the factor-by-factor loop over a convergent rate family,
    checking the partial product and then the tail bound after each factor;
    returns (value, width, n_factors)."""
    product = 1.0
    j = n_start
    mu = rates_from(rates, n_start)
    while j - n_start < max_factors:
        product /= 1.0 + lam / next(mu)
        j += 1
        if product <= tail_tol:
            return product, product, j - n_start
        tail = lam * rates.inverse_tail(j)
        if tail < tail_tol:
            return product, -product * math.expm1(-tail), j - n_start
    raise RuntimeError(f"no certified bracket after {max_factors} factors")


def log_product(rates, lam, n_start, count):
    """Oracle over the same double rates: exp(-fsum(log1p(lambda/mu_j))), an
    exactly summed logarithm rounded once."""
    ratios = (lam / rates.mu_array(n_start, count)).tolist()
    return math.exp(-math.fsum(map(math.log1p, ratios)))


def assert_log_rounding(value, expected):
    """value within (4 + L) 2^-52 relative of expected, L = -log(expected):
    the rounding of a logarithm of size L and of one exp."""
    assert abs(value - expected) <= (4 - math.log(expected)) * 2.0 ** -52 * expected


def compared_partial(rates, lam, k):
    """The partial product the route compares with its floor at factor k
    (from level 0): exp of minus the running sum of the logs."""
    logs = np.log1p(lam / rates.mu_array(0, k))
    return float(np.exp(-np.cumsum(logs))[-1])


def arrival_triple(rates, lam, **kwargs):
    bracket = arrival_laplace(rates, lam, **kwargs)
    return bracket.value, bracket.width, bracket.n_factors


# (rates, lambdas, n_start, tail_tol): the benchmark's configs and both exits,
# the tail bound (geom:2, poly) and the small partial product (geom:1.01)
ARRIVAL_GRID = [
    (GeometricRates(1.01), (0.25, 0.5, 1.0, 2.0), 0, 1e-12),
    (PolynomialRates(1.0, 3.0), (1.0,), 0, 1e-12),
    (PolynomialRates(1.0, 3.0), (0.5, 2.0), 5, 1e-9),
    (PolynomialRates(1.0, 4.0), (1.0,), 0, 1e-12),
    (PolynomialRates(2.0, 2.0), (1e6,), 0, 1e-3),
    (GEO, (0.5, 1.0, 2.0), 0, 1e-12),
    (GEO, (1.0,), 3, 1e-12),
    (GeometricRates(3.0), (0.01, 100.0), 7, 1e-12),
]


class TestBirthGenerator:
    def test_smallest_case(self):
        spec = birth_generator(ExplicitRates((1.0, 3.0)), 2)
        assert np.allclose(spec.K, np.diag([-0.5, -1.5]))
        assert np.allclose(spec.jumps[0], matrix_unit(1, 0, 2))

    def test_entrywise_action_on_units(self):
        spec = birth_generator(POLY, 6)
        for n, m in [(0, 0), (2, 4), (1, 1)]:
            out = apply_standard(spec, matrix_unit(n, m, 6))
            expected = -0.5 * (POLY.mu(n) + POLY.mu(m)) * matrix_unit(n, m, 6) \
                + math.sqrt(POLY.mu(n) * POLY.mu(m)) * matrix_unit(n + 1, m + 1, 6)
            assert np.allclose(out, expected, atol=1e-13)

    def test_diagonal_restriction_is_classical(self, rng):
        dim = 8
        spec = birth_generator(POLY, dim)
        p = rng.random(dim)
        rho = np.diag(p).astype(complex)
        quantum = np.diagonal(apply_standard(spec, rho)).real
        mu = POLY.mu_array(0, dim)
        classical = -mu * p
        classical[1:] += mu[:-1] * p[:-1]
        assert np.allclose(quantum, classical, atol=1e-13)

    def test_sharp_extension_matches_truncated_generator(self, rng):
        # the entrywise formula of the birth generator, valid for arbitrary
        # matrices, against the GKLS route on the truncation
        spec = birth_generator(POLY, 9)
        a = random_operator(9, rng)
        mu = POLY.mu_array(0, 9)
        root = np.sqrt(mu[:-1])
        entrywise = -0.5 * (mu[:, None] + mu[None, :]) * a
        entrywise[1:, 1:] += np.outer(root, root) * a[:-1, :-1]
        assert np.allclose(entrywise, apply_standard(spec, a), atol=1e-12)

    def test_minimal_dim(self):
        with pytest.raises(ValueError):
            birth_generator(POLY, 1)


class TestBirthBandGenerator:
    """The band action against the dense GKLS route birth_generator(rates, N),
    bit for bit.  The one difference is the sign of two zeros: on an interior
    rho (last row and column zero) the real parts of cells (0, N-1) and
    (N-1, 0) are -0.0 + -0.0 = -0.0 in the band route, while the dense
    route's matrix products add +0.0 terms there (+0.0 on OpenBLAS)."""

    RATES = ["poly:1:2", "geom:2", "const:1.5",
             "list:" + ",".join(str(0.5 + 0.75 * k) for k in range(107))]

    @pytest.mark.parametrize("spec", RATES)
    @pytest.mark.parametrize("dim", [2, 30, 107])
    @pytest.mark.parametrize("interior", [False, True])
    def test_bitwise_equal_to_the_dense_route(self, spec, dim, interior):
        rates = parse_rate_spec(spec)
        band, dense = BirthBandGenerator(rates, dim), birth_generator(rates, dim)
        rng = np.random.default_rng(dim)
        for _ in range(3):
            rho = random_operator(dim, rng, interior=interior)
            out, ref = band(rho), dense(rho)
            if interior:
                corners = ([0, dim - 1], [dim - 1, 0])
                assert np.array_equal(ref[corners], np.zeros(2))
                assert np.signbit(out.real[corners]).all()
                out.real[corners] = ref.real[corners]
            assert np.array_equal(bits(out), bits(ref))

    def test_matrix_is_the_dense_generators(self):
        band = BirthBandGenerator(POLY, 7)
        assert np.array_equal(band.superop_matrix(7).toarray(),
                              birth_generator(POLY, 7).superop_matrix(7).toarray())
        with pytest.raises(ValueError, match="does not match"):
            band.superop_matrix(6)

    def test_validates_its_arguments(self):
        with pytest.raises(ValueError, match="two levels"):
            BirthBandGenerator(POLY, 1)
        with pytest.raises(ValueError, match="does not match"):
            BirthBandGenerator(POLY, 4)(np.eye(3))

    @staticmethod
    def matrix_action(rates, dim, rho):
        """The band action as it was for 2-D operators alone."""
        mu = rates.mu_array(0, dim)
        half, s = -0.5 * mu, np.sqrt(mu[:-1])
        out = half[:, None] * rho + rho * half[None, :]
        out[1:, 1:] += (s[:, None] * rho[:-1, :-1]) * s[None, :]
        return out

    @pytest.mark.parametrize("spec", RATES)
    @pytest.mark.parametrize("dim", [2, 30, 107])
    def test_stack_is_its_slices_byte_for_byte(self, spec, dim):
        rates = parse_rate_spec(spec)
        band = BirthBandGenerator(rates, dim)
        stack = signed_zero_stack(dim, np.random.default_rng(dim))
        out = band(stack)
        assert out.shape == stack.shape
        for rho, slice_out in zip(stack, out):
            assert slice_out.tobytes() == band(rho).tobytes() == \
                self.matrix_action(rates, dim, rho).tobytes()
        deeper = stack.reshape(2, 2, dim, dim)
        assert band(deeper).tobytes() == out.tobytes()
        assert band(stack[:0]).shape == (0, dim, dim)

    def test_stack_validation(self):
        band = BirthBandGenerator(POLY, 5)
        stack = signed_zero_stack(5, np.random.default_rng(0))
        for k in range(len(stack)):
            for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
                broken = stack.copy()
                broken[k, 2, 3] = bad
                with pytest.raises(NonFiniteError):
                    band(broken)
        with pytest.raises(ValueError, match="square"):
            band(np.zeros((4, 5, 4)))
        with pytest.raises(ValueError, match="square"):
            band(np.zeros(5))
        with pytest.raises(ValueError, match="does not match"):
            band(np.zeros((4, 6, 6)))


class TestClassicalBirth:
    # the classical birth chain is the diagonal of the quantum generator on
    # diagonal states; the top level loses its outflow
    @staticmethod
    def classical(p):
        p = np.asarray(p, dtype=float)
        return np.diagonal(birth_generator(POLY, p.size)(np.diag(p))).real

    def test_delta_zero(self):
        out = self.classical([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, [-POLY.mu(0), POLY.mu(0), 0.0, 0.0])

    def test_telescoping_total(self, rng):
        p = rng.random(6)
        out = self.classical(p)
        assert out.sum() == pytest.approx(-POLY.mu(5) * p[5], rel=1e-12)
        p[-1] = 0.0
        assert self.classical(p).sum() == pytest.approx(0.0, abs=1e-13)

    def test_zero_input(self):
        assert np.array_equal(self.classical(np.zeros(4)), np.zeros(4))


class TestClosedFormResolvent:
    def test_matrix_unit_leading_entry(self):
        dim = 8
        out = birth_resolvent(POLY, 1.0, matrix_unit(2, 5, dim))
        expected = 1.0 / (1.0 + 0.5 * (POLY.mu(2) + POLY.mu(5)))
        assert out[2, 5] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("rates", [LINEAR, GEO])
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_matches_dense_solve(self, rates, lam, rng):
        dim = 20
        spec = birth_generator(rates, dim)
        rho = random_operator(dim, rng)
        closed = birth_resolvent(rates, lam, rho)
        direct = resolvent_direct(spec, lam, rho)
        assert np.abs(closed - direct).max() <= 1e-10

    def test_matches_dense_solve_at_larger_dim(self, rng):
        # a dense superoperator matrix would take 16 * 100**4 bytes (1.6 GB);
        # the sparse one makes only each offset-diagonal block dense
        dim = 100
        rho = random_operator(dim, rng)
        closed = birth_resolvent(LINEAR, 1.0, rho)
        direct = resolvent_direct(birth_generator(LINEAR, dim), 1.0, rho)
        assert np.abs(closed - direct).max() <= 1e-10

    def test_dominant_lambda_limit(self):
        values = [lam * birth_resolvent(POLY, lam, matrix_unit(0, 0, 4))[0, 0].real
                  for lam in (1e2, 1e4, 1e6)]
        assert abs(values[-1] - 1.0) < 1e-5
        assert all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(values, values[1:]))

    def test_band_route_matches_matrix(self, rng):
        # the decay table solves one band of rho; its values must be those of
        # the full closed-form matrix
        dim, q = 12, 1
        rho = random_operator(dim, rng)
        full = birth_resolvent(GEO, 1.0, rho)
        n_values = [0, 5, 10]
        table = geometric_band_decay(GEO, q, 1.0, np.diagonal(rho, q), n_values)
        expected = [abs(0.5 * (GEO.mu(n) + GEO.mu(n + q)) * full[n, n + q])
                    for n in n_values]
        assert np.allclose(table.f_values, expected, rtol=1e-12, atol=0)

    def test_sharp_identity_on_resolvent_range(self, rng):
        # G(R rho') = lam R rho' - rho' entrywise on interior indices
        dim = 15
        rho_prime = random_operator(dim, rng, interior=True)
        lam = 2.0
        element = birth_resolvent(POLY, lam, rho_prime)
        action = birth_generator(POLY, dim)(element)
        expected = lam * element - rho_prime
        assert np.abs((action - expected)[:dim - 1, :dim - 1]).max() <= 1e-10

    def test_resolvent_map_is_completely_positive(self):
        from semigroup_lab import choi_matrix, is_positive_semidefinite

        choi = choi_matrix(lambda rho: birth_resolvent(POLY, 1.0, rho), 6)
        assert is_positive_semidefinite(choi, tol=1e-10)

    def test_band_element_reconstruction(self):
        # the band element solves (lam - G) sigma = lam sigma - G# sigma, so
        # feeding that source through the resolvent must reproduce it
        dim, lam, q = 25, 1.0, 1
        sigma = band_domain_element(POLY, q, dim)
        source = lam * sigma - birth_generator(POLY, dim)(sigma)
        recovered = birth_resolvent(POLY, lam, source)
        assert np.abs((recovered - sigma)[:dim - 1, :dim - 1]).max() <= 1e-12


class TestArrivalProduct:
    def test_lambda_zero(self):
        assert arrival_laplace(POLY, 0.0).value == 1.0

    def test_telescoping_linear_rates(self):
        for count in (5, 50, 500):
            p = arrival_partial_product(LINEAR, 1.0, 0, count)
            assert p == pytest.approx(1.0 / (count + 1), abs=1e-12)

    def test_geometric_bracket(self):
        bracket = arrival_laplace(GEO, 1.0, tail_tol=1e-12)
        assert bracket.value > 0.2
        assert bracket.width <= 1e-10
        assert 0.0 < bracket.value - bracket.width <= bracket.value

    def test_conservative_product_exactly_zero(self):
        # divergent sum of inverse rates certifies a vanishing product
        bracket = arrival_laplace(LINEAR, 1.0, tail_tol=1e-9)
        assert bracket.value == 0.0
        assert bracket.width == 0.0

    def test_constant_rates_product_vanishes(self):
        bracket = arrival_laplace(ConstantRates(2.0), 1.0, tail_tol=1e-9)
        assert bracket.value == 0.0

    def test_explicit_list_flagged(self):
        rates = ExplicitRates(tuple(2.0 ** n for n in range(40)))
        bracket = arrival_laplace(rates, 1.0, tail_tol=0.5)
        # the whole list is multiplied, and its bracket reaches down to 0
        assert bracket.n_factors == 40
        assert bracket.width == bracket.value
        assert bracket.value == arrival_partial_product(rates, 1.0, 0, 40)

    def test_explicit_list_too_short(self):
        with pytest.raises(RateRangeError, match="too short"):
            arrival_laplace(ExplicitRates((1.0, 2.0, 4.0)), 1.0, tail_tol=1e-10)

    @pytest.mark.parametrize("rates, lams, n_start, tail_tol", ARRIVAL_GRID)
    def test_matches_sequential_loop(self, monkeypatch, rates, lams, n_start, tail_tol):
        # the factor-by-factor loop fixes the exit and its factor count; the
        # value is the log-sum product of those factors, to its rounding at
        # either exit
        default = semigroup_lab.birth._MAX_FACTORS
        for lam in lams:
            reference, reference_width, k = sequential_arrival(rates, lam, n_start,
                                                               tail_tol)
            expected = log_product(rates, lam, n_start, k)
            # the default factor budget, and one that ends exactly at, or one
            # short of, the exit
            for budget in (default, k):
                monkeypatch.setattr(semigroup_lab.birth, "_MAX_FACTORS", budget)
                value, width, n_factors = arrival_triple(
                    rates, lam, n_start=n_start, tail_tol=tail_tol)
                assert n_factors == k
                if reference_width == reference:  # the floor exit
                    assert width == value <= tail_tol
                else:
                    tail = rates.inverse_tail(n_start + k)
                    assert width == -value * math.expm1(-lam * tail)
                assert_log_rounding(value, expected)
            monkeypatch.setattr(semigroup_lab.birth, "_MAX_FACTORS", k - 1)
            with pytest.raises(RuntimeError, match="no certified bracket"):
                arrival_triple(rates, lam, n_start=n_start, tail_tol=tail_tol)

    def test_grid_reaches_both_exits(self):
        value, width, _ = sequential_arrival(GEO, 1.0)
        assert 0.0 < width < value
        # the benchmark's other tail-bound exits, whose widths the mpmath test checks
        for rates, lam in [(GEO, 0.5), (GEO, 2.0), (GeometricRates(1.01), 0.25),
                           (PolynomialRates(1.0, 3.0), 1.0)]:
            value, width, _ = arrival_triple(rates, lam)
            assert 0.0 < width < value
        value, width, _ = sequential_arrival(GeometricRates(1.01), 1.0)
        assert width == value

    @pytest.mark.parametrize("rates, lams, n_start, tail_tol", ARRIVAL_GRID)
    def test_certified_width_matches_mpmath(self, rates, lams, n_start, tail_tol):
        # the width value * (1 - exp(-lambda T)) of a tail-bound exit, T the
        # inverse tail after the last factor, to 50 digits; as value - lower
        # it was off by 2.0e-5 relative at geom:2, lambda = 0.5
        mpmath = pytest.importorskip("mpmath")
        for lam in lams:
            bracket = arrival_laplace(rates, lam, n_start=n_start, tail_tol=tail_tol)
            if bracket.width == bracket.value:  # the floor exit
                continue
            tail = rates.inverse_tail(n_start + bracket.n_factors)
            with mpmath.workdps(50):
                expected = bracket.value * -mpmath.expm1(-mpmath.mpf(lam) * tail)
                assert abs(bracket.width - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("rates, lams, n_start, tail_tol", ARRIVAL_GRID)
    def test_floor_exit_matches_mpmath(self, rates, lams, n_start, tail_tol):
        # the product of the factors a floor exit multiplied, over the same
        # double rates, to 40 digits.  Read off the running sum, geom:1.01 at
        # lambda = 1 (48 factors) was 1.27e-14 off, against a bound of 7.1e-15
        mpmath = pytest.importorskip("mpmath")
        for lam in lams:
            bracket = arrival_laplace(rates, lam, n_start=n_start, tail_tol=tail_tol)
            if bracket.width != bracket.value:  # the tail-bound exit
                continue
            with mpmath.workdps(40):
                expected = float(mpmath.fprod(
                    1 / (1 + mpmath.mpf(lam) / mpmath.mpf(mu))
                    for mu in rates.mu_array(n_start, bracket.n_factors).tolist()))
            assert_log_rounding(bracket.value, expected)

    def test_floor_exit_is_not_compared_again(self):
        # geom:1.01 at lambda = 1/2 ends on the floor at factor 102 when
        # tail_tol is the partial product compared there, yet the product of
        # those factors, rounded once, lies above it: the bracket still
        # reaches down to 0 and stops at 102
        rates = GeometricRates(1.01)
        _, _, k = sequential_arrival(rates, 0.5)
        compared = compared_partial(rates, 0.5, k)
        value, width, n_factors = arrival_triple(rates, 0.5, tail_tol=compared)
        assert (n_factors, width) == (k, value)
        assert value > compared
        assert_log_rounding(value, log_product(rates, 0.5, 0, k))

    @pytest.mark.parametrize("count", [1780, 1817, 1830, 1835, 1837, 1838, 3000])
    def test_subnormal_product_is_the_nearest_double(self, count):
        # (2/3)^count leaves the normal range at count 1750; dividing on by
        # 1.5 stuck at the smallest subnormal, 5e-324, where the product is
        # 2.2e-324 (count 1838) or 5.3e-529 (count 3000) and rounds to 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            expected = float((mpmath.mpf(2) / 3) ** count)
        assert arrival_partial_product(ConstantRates(2.0), 1.0, 0, count) == expected
        assert (expected == 0.0) == (count >= 1838)

    def test_long_list_is_one_log_sum(self):
        # 10^5 rates j + 1, multiplied whole, against the exactly summed logs:
        # the fsum of 2^16-factor block sums was 1.23 times the bound off at
        # lambda = 10
        rates = ExplicitRates(tuple(1.0 + np.arange(10.0 ** 5)))
        for lam in (3.0, 10.0):
            assert_log_rounding(arrival_partial_product(rates, lam, 0, 10 ** 5),
                                log_product(rates, lam, 0, 10 ** 5))

    @pytest.mark.parametrize("rates", [GEO, GeometricRates(1.01)])
    def test_exit_tests_at_equality(self, rates):
        # a partial product equal to tail_tol ends the product; a tail bound
        # equal to it does not.  The exits are the factor-by-factor loop's
        _, _, k = sequential_arrival(rates, 1.0)
        compared = compared_partial(rates, 1.0, k)
        for tail_tol in (compared, rates.inverse_tail(k)):
            value, width, n_factors = arrival_triple(rates, 1.0, tail_tol=tail_tol)
            reference, reference_width, reference_k = sequential_arrival(
                rates, 1.0, tail_tol=tail_tol)
            assert n_factors == reference_k
            assert (width == value) == (reference_width == reference)
        if rates.a == 1.01:  # it ends on the floor at k, with the product of
            # its factors rounded once
            value, width, n_factors = arrival_triple(rates, 1.0, tail_tol=compared)
            assert (width, n_factors) == (value, k)
            assert_log_rounding(value, log_product(rates, 1.0, 0, k))

    def test_uncertified_product_raises(self, monkeypatch):
        rates = PolynomialRates(2.0, 2.5)
        monkeypatch.setattr(semigroup_lab.birth, "_MAX_FACTORS", 1000)
        with pytest.raises(RuntimeError, match="after 1000 factors"):
            arrival_laplace(rates, 1.0)
        with pytest.raises(RuntimeError, match="after 1000 factors"):
            sequential_arrival(rates, 1.0, max_factors=1000)

    @pytest.mark.parametrize("n_start", [1, 3])
    def test_provable_failure_multiplies_no_factor(self, monkeypatch, n_start):
        # every partial product of poly:1:2.5 from n_start >= 1 is at least
        # exp(-inverse_tail(n_start)) >= exp(-2/3) > tail_tol, and no count
        # within _MAX_FACTORS certifies the tail: the give-up reads no rate
        def no_rates(self, start, count):
            raise AssertionError("the product loop read rates")

        monkeypatch.setattr(PolynomialRates, "mu_array", no_rates)
        with pytest.raises(RuntimeError, match="no certified bracket after 10000000"):
            arrival_laplace(PolynomialRates(1.0, 2.5), 1.0, n_start=n_start)

    def test_negative_start_rejected(self):
        with pytest.raises(RateRangeError):
            arrival_partial_product(ExplicitRates((1.0, 2.0, 4.0)), 1.0, -1, 2)

    @pytest.mark.parametrize("rates", [PolynomialRates(1.0, 2.0), GeometricRates(2.0),
                                       ConstantRates(0.7), ExplicitRates((1.0, 2.0, 4.0))])
    def test_negative_count_rejected(self, rates):
        with pytest.raises(RateRangeError, match="count"):
            arrival_partial_product(rates, 1.0, 0, -3)
        assert arrival_partial_product(rates, 1.0, 0, 0) == 1.0

    def test_n_start_shifts_product(self):
        shifted = arrival_laplace(GEO, 1.0, n_start=3)
        direct = np.prod([1.0 / (1.0 + 1.0 / GEO.mu(j)) for j in range(3, 60)])
        assert shifted.value == pytest.approx(direct, rel=1e-10)


def loop_product(rates, lam, n_start, count, floor):
    """The log1p sum over every factor, as the arrival product takes a head
    or a list: (product, factors, stopped at floor), the first partial
    product <= floor found on the running sum."""
    with np.errstate(over="ignore"):
        logs = np.log1p(lam / rates.mu_array(n_start, count))
    small = np.flatnonzero(np.exp(-np.cumsum(logs)) <= floor)
    if small.size:
        k = int(small[0]) + 1
        return math.exp(-math.fsum(logs[:k].tolist())), k, True
    return math.exp(-float(logs.sum())), count, False


@functools.lru_cache(maxsize=None)
def head_log_sum(rates, lam, start):
    """The log sum over the double rates of a head from level start, to 40
    digits."""
    import mpmath

    with mpmath.workdps(40), np.errstate(over="ignore"):
        mu = rates.mu_array(start, semigroup_lab.birth._HEAD).tolist()
        return mpmath.fsum(mpmath.log1p(mpmath.mpf(lam) / mpmath.mpf(m)) for m in mu)


def head_start(rates, n_start, count):
    """Where the head of 2^12 factors starts: at the largest ratios, so at
    the end of the product for falling rates."""
    if isinstance(rates, GeometricRates) and rates.a < 1:
        return n_start + count - semigroup_lab.birth._HEAD
    return n_start


def split_log_sum(mpmath, rates, lam, n_start, count):
    """The log sum of a product past its head, to 40 digits: the head over
    its double rates and the rest over the exact ones."""
    head, start = semigroup_lab.birth._HEAD, head_start(rates, n_start, count)
    rest = n_start if start > n_start else n_start + head
    return head_log_sum(rates, lam, start) + exact_tail(mpmath, rates, lam, rest,
                                                        count - head)


def counted_reads(monkeypatch, *families):
    """The (start, count) of every mu_array read of these rate classes."""
    reads = []
    for family in families:
        def counted(self, start, count, mu_array=family.mu_array):
            reads.append((start, count))
            return mu_array(self, start, count)

        monkeypatch.setattr(family, "mu_array", counted)
    return reads


def assert_reads_the_head(reads, start):
    """The reads of one product: its head of 2^12 rates from start, and
    at most 64 more."""
    head = semigroup_lab.birth._HEAD
    assert (start, head) in reads
    assert sum(count for _, count in reads) <= head + 64


def series_log_sum(mpmath, term):
    """sum_k (-1)^(k+1) term(k) / k, to 40 digits, for terms falling by 4 or more."""
    total, k = mpmath.mpf(0), 1
    while True:
        step = (-1) ** (k + 1) * term(k) / k
        total += step
        if abs(step) <= mpmath.mpf(10) ** -42 * abs(total):
            return total
        k += 1


def exact_tail(mpmath, rates, lam, start, count):
    """sum_{j=start}^{start+count-1} log1p(lam/mu_j) over the exact rates: Hurwitz
    zeta differences for poly, geometric sums for geom, count log1p for const."""
    lam = mpmath.mpf(lam)
    if isinstance(rates, ConstantRates):
        return count * mpmath.log1p(lam / mpmath.mpf(rates.c))
    if isinstance(rates, GeometricRates):
        g = mpmath.mpf(rates.a)
        return series_log_sum(mpmath, lambda k: (lam / g ** start) ** k
                              * (1 - g ** (-k * count)) / (1 - g ** -k))
    x, p, a, b = lam / mpmath.mpf(rates.c), mpmath.mpf(rates.p), start + 1, start + count

    def power_sum(k):  # sum_{m=a}^b m^(-pk)
        if p * k == 1:
            return mpmath.digamma(b + 1) - mpmath.digamma(a)
        return mpmath.zeta(p * k, a) - mpmath.zeta(p * k, b + 1)

    return series_log_sum(mpmath, lambda k: x ** k * power_sum(k))


TAIL_COUNTS = (2 ** 12 + 1, 10 ** 5, 707107, 2 ** 24, 2 ** 26)
# (rates, lambda, n_start): each ratio past the head is at most 1/4, and no
# product underflows
TAIL_CASES = [
    *((PolynomialRates(c, p), lam, n_start) for p in (1.0, 1.1, 2.0, 2.5, 3.0)
      for c, lam, n_start in ((1.0, 1.0, 0), (2.5, 7.0, 0), (0.3, 0.01, 1000))),
    (GeometricRates(1.001), 0.01, 0), (GeometricRates(1.001), 0.1, 3000),
    (GeometricRates(1.01), 1.0, 0), (GeometricRates(1.01), 5.0, 1000),
    (GeometricRates(2.0), 0.5, 0), (GeometricRates(2.0), 100.0, 5),
    (GeometricRates(1 - 1e-8), 1e-6, 0),  # falling rates, ratios below 1/4 to level 2^26
    (ConstantRates(1.0), 1e-6, 0), (ConstantRates(0.5), 2e-6, 7),
]


@st.composite
def monotone_products(draw):
    """(rates, lambda, n_start, count, floor) of a poly, rising or falling
    geom, or const product of up to 2^26 factors from a level up to 10^9;
    lambda log-uniform in [1e-320, 1e300], or set so that the tail's largest
    ratio is 1/4, where the head underflows, just below expm1(745.2 / 2^12) =
    0.1995, the largest a tail can meet, or well below it.  Falling rates
    stay above 1e-300: one that underflows to 0 is refused before any
    product."""
    kind = draw(st.sampled_from(["poly", "geom", "falling", "const"]))
    n_start, count = draw(st.integers(0, 10 ** 9)), draw(st.integers(0, 2 ** 26))
    if kind == "poly":
        rates = PolynomialRates(10.0 ** draw(st.floats(-3, 3)), draw(st.floats(0.1, 40)))
    elif kind == "geom":
        rates = GeometricRates(1 + 10.0 ** draw(st.floats(-9, 0)))
    elif kind == "falling":
        rates = GeometricRates(1 - 10.0 ** draw(st.floats(-9, -1)))
        last = int(math.log(1e-300) / math.log(rates.a))
        n_start %= last + 1
        count = min(count, last - n_start + 1)
    else:
        rates = ConstantRates(10.0 ** draw(st.floats(-3, 3)))
    lam = 10.0 ** draw(st.floats(-320, 300))
    ratio = draw(st.sampled_from([None, 0.25, 0.1995, 0.19, 0.1, 1e-3, 1e-9]))
    if ratio is not None:  # at the tail's largest ratio, unless its rate overflows
        head = semigroup_lab.birth._HEAD
        level = n_start + (count - head - 1 if kind == "falling" else head)
        with np.errstate(over="ignore"):
            tail_lam = ratio * rates.mu(max(level, n_start))
        if math.isfinite(tail_lam):
            lam = tail_lam
    return rates, lam, n_start, count, draw(st.sampled_from([0.0, 1e-300, 1e-12, 1e-3]))


class TestArrivalTail:
    # beside a head of 2^12 factors, one log1p pass at the largest ratios,
    # the log sum is summed in closed form

    @pytest.mark.parametrize("rates, lam, n_start", TAIL_CASES)
    def test_tail_matches_mpmath(self, monkeypatch, rates, lam, n_start):
        # the head's logs over its double rates and the tail over the exact
        # ones, to 40 digits, against the route within (4 + L) 2^-52
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = [float(mpmath.exp(-split_log_sum(mpmath, rates, lam, n_start, count)))
                        for count in TAIL_COUNTS]
        reads = counted_reads(monkeypatch, type(rates))
        for count, value in zip(TAIL_COUNTS, expected):
            reads.clear()
            assert value > 0.0
            assert_log_rounding(arrival_partial_product(rates, lam, n_start, count), value)
            assert_reads_the_head(reads, head_start(rates, n_start, count))

    @pytest.mark.parametrize("a, n_start", [(0.9, 0), (0.999, 0), (0.99999, 0),
                                            (1 - 1e-8, 0), (0.999, 1000)])
    def test_falling_rates_match_mpmath(self, monkeypatch, a, n_start):
        # the head holds the last 2^12 factors; against its logs over the
        # double rates and the rest over the exact ones, to 40 digits, for
        # lambda up to 1/4 of the last rate, where a long enough head
        # underflows to 0 with its reference
        mpmath = pytest.importorskip("mpmath")
        rates = GeometricRates(a)
        cases = [(count, ratio * rates.mu(n_start + count - 1))
                 for count in (2 ** 12 + 1, 10 ** 5, 2 ** 20, 2 ** 26)
                 if rates.mu(n_start + count - 1) > 1e-300
                 for ratio in (1e-6, 0.01, 0.25)]
        with mpmath.workdps(40):
            expected = [float(mpmath.exp(-split_log_sum(mpmath, rates, lam, n_start, count)))
                        for count, lam in cases]
        reads = counted_reads(monkeypatch, GeometricRates)
        for (count, lam), value in zip(cases, expected):
            reads.clear()
            product = arrival_partial_product(rates, lam, n_start, count)
            if value == 0.0:
                assert product == 0.0
            else:
                assert_log_rounding(product, value)
            assert_reads_the_head(reads, n_start + count - semigroup_lab.birth._HEAD)
        assert sum(value > 0.0 for value in expected) >= 3

    @pytest.mark.parametrize("p", [1.0, 1.1, 2.0, 2.5, 3.0])
    def test_tail_from_a_low_level(self, p):
        # from level 299 the B4 term moves poly:1:1's log sum by 1e-12, far
        # above the rounding bound, and the B6 remainder stays below 1e-16
        mpmath = pytest.importorskip("mpmath")
        rates = PolynomialRates(1.0, p)
        for count in (1, 2, 1000, 10 ** 5, 2 ** 26):
            terms = semigroup_lab.birth._tail_terms(rates, 1.0, 299, count, 1e-16)
            with mpmath.workdps(40):
                expected = float(mpmath.exp(-exact_tail(mpmath, rates, 1.0, 299, count)))
            assert_log_rounding(math.exp(-math.fsum(terms)), expected)
        # from level 9 the B6 remainder exceeds 1e-16: the tail is refused
        with pytest.raises(FloatingPointError, match="from level 9 is certified"):
            semigroup_lab.birth._tail_terms(rates, 1.0, 9, 1000, 1e-16)

    @pytest.mark.parametrize("rates, lam, counts", [
        (PolynomialRates(1.0, 3.0), 1.0, (1, 100, 4095, 4096)),
        (GeometricRates(1.01), 0.5, (4000, 4096)),
        (ConstantRates(2.0), 1e-3, (17, 4096)),
        # falling rates, ratios past 1/4 by the last level
        (GeometricRates(0.9999), 0.2, (100, 4000, 4096)),
        (ExplicitRates(tuple(1.0 + np.arange(5000.0))), 0.5, (4097, 5000)),
    ])
    def test_head_is_the_loop_bit_for_bit(self, monkeypatch, rates, lam, counts):
        # a list, or a count of at most 2^12, is the head: the loop, read once
        expected = [loop_product(rates, lam, 0, count, 0.0)[0] for count in counts]
        reads = counted_reads(monkeypatch, type(rates))
        for count, value in zip(counts, expected):
            reads.clear()
            assert arrival_partial_product(rates, lam, 0, count) == value
            assert sum(n for _, n in reads) == count

    def test_falling_ratios_past_a_quarter_stop_in_the_head(self, monkeypatch):
        # lambda/mu_j > 1/4 up to level 19998: the product underflows within
        # the head of 2^12 factors, and the value is the loop's
        counts = (4097, 10 ** 4, 19999, 10 ** 5, 2 ** 20)
        expected = [loop_product(LINEAR, 5000.0, 0, count, 0.0)[0] for count in counts]
        reads = counted_reads(monkeypatch, PolynomialRates)
        for count, value in zip(counts, expected):
            reads.clear()
            assert arrival_partial_product(LINEAR, 5000.0, 0, count) == value
            assert_reads_the_head(reads, 0)

    @pytest.mark.parametrize("rates, n_start", [
        (LINEAR, 0), (POLY, 300), (PolynomialRates(0.3, 3.0), 10 ** 4),
        (GeometricRates(1.001), 0), (GeometricRates(1.01), 300), (GeometricRates(1.1), 0),
    ])
    @pytest.mark.parametrize("ratio", [0.2501, 1.0, 1e6])
    def test_falling_ratios_past_a_quarter_underflow_in_the_head(self, rates, n_start,
                                                                 ratio):
        # why the head needs no search: ratios that fall to one above 1/4 at
        # level n_start + 2^12 have a head log sum above 2^12 log1p(1/4) = 914,
        # so its product reaches 0, the floor of arrival_partial_product,
        # within the head
        head = semigroup_lab.birth._HEAD
        lam = ratio * rates.mu(n_start + head)
        assert 0.25 < lam / rates.mu(n_start + head) <= 1e6
        _, stop = semigroup_lab.birth._log1p_sums(rates, lam, n_start, head, 0.0)
        assert stop is not None and stop < head

    def test_floor_exit_past_the_head(self):
        # poly:1:1.5 from level 10^4 at lambda = 2000 runs J = 10^7 factors;
        # the whole certified product, 1.5e-17, is below the floor 1e-12, so
        # the bracket is [0, value] at J.  Checked against the head's double
        # rates and the tail over the exact ones, to 40 digits
        mpmath = pytest.importorskip("mpmath")
        rates, head = PolynomialRates(1.0, 1.5), semigroup_lab.birth._HEAD
        bracket = arrival_laplace(rates, 2000.0, n_start=10 ** 4)
        assert bracket.n_factors == 10 ** 7
        assert bracket.width == bracket.value <= 1e-12
        with mpmath.workdps(40):
            log_sum = head_log_sum(rates, 2000.0, 10 ** 4) + exact_tail(
                mpmath, rates, 2000.0, 10 ** 4 + head, 10 ** 7 - head)
            expected = float(mpmath.exp(-log_sum))
        assert_log_rounding(bracket.value, expected)
        # a tail product equal to the floor is a floor exit too
        assert semigroup_lab.birth._arrival_product(
            rates, 2000.0, 10 ** 4, 10 ** 7, bracket.value) == (bracket.value, 10 ** 7, True)

    @pytest.mark.parametrize("call, factors", [
        (lambda: arrival_laplace(PolynomialRates(1.0, 3.0), 1.0).n_factors, 707107),
        (lambda: arrival_laplace(PolynomialRates(1.0, 2.0), 1.0, tail_tol=1e-6).n_factors,
         None),
        (lambda: arrival_partial_product(PolynomialRates(1.0, 2.0), 1.0, 0, 2 ** 26), None),
        # falling ratios above 1/4 to level 19998 underflow within the head
        (lambda: arrival_partial_product(LINEAR, 5000.0, 0, 2 ** 20), None),
        # falling rates: the head holds the last 2^12, with ratios up to 3e-4
        # (the CI's birth run), 0.2 (a tail beside it) or 0.3 (it underflows)
        *((lambda lam=lam: arrival_partial_product(GeometricRates(0.99999), lam, 0, 2 ** 26),
           None) for lam in (1e-295, 0.2 * 0.99999 ** (2 ** 26 - 1),
                             0.3 * 0.99999 ** (2 ** 26 - 1))),
    ])
    def test_reads_about_the_head_of_rates(self, monkeypatch, call, factors):
        reads = counted_reads(monkeypatch, PolynomialRates, GeometricRates)
        result = call()
        assert factors is None or result == factors
        assert sum(count for _, count in reads) <= 2 ** 12 + 64

    def test_uncertified_tail_is_refused(self, monkeypatch):
        # with no tail certified the product is refused, naming the level
        # the tail starts from
        monkeypatch.setattr(semigroup_lab.birth, "_MAX_TERMS", 1)
        for rates, lam, n_start in [(POLY, 1.0, 0), (PolynomialRates(2.5, 1.1), 0.5, 1)]:
            with pytest.raises(FloatingPointError, match=f"from level {n_start + 4096} "):
                semigroup_lab.birth._arrival_product(rates, lam, n_start, 10 ** 5, 0.0)
        # falling rates: the last 2^12 factors, with ratios from 0.015 to 0.022,
        # take the product below the floor before any tail, an exit at count
        value, n_factors, floored = semigroup_lab.birth._arrival_product(
            GeometricRates(0.9999), 1e-6, 0, 10 ** 5, 1e-12)
        assert value <= 1e-12 and (n_factors, floored) == (10 ** 5, True)

    @settings(max_examples=300, derandomize=True)
    @given(monotone_products())
    def test_every_tail_is_certified(self, case):
        # a closed-form tail that is not certified is refused; beside the
        # head, with no ratio above 1/4, none is, in the CLI's errstate
        rates, lam, n_start, count, floor = case
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value, n_factors, floored = semigroup_lab.birth._arrival_product(
                rates, lam, n_start, count, floor)
        assert 0.0 <= value <= 1.0 and 0 <= n_factors <= count
        assert floored or n_factors == count


class TestArrivalClosedForms:
    # the products of exact factors in Gamma functions, to 40 digits, against
    # the route within (4 + L) 2^-52, the rounding of one log sum of size L.
    # Dividing factor by factor drifted by up to 1.5e-11 at N = 2^24
    @staticmethod
    def gamma_ratio(mpmath, numerator, denominator):
        """prod Gamma(numerator) / prod Gamma(denominator), a real number."""
        logs = sum(map(mpmath.loggamma, numerator)) - sum(map(mpmath.loggamma, denominator))
        return mpmath.exp(logs).real

    @pytest.mark.parametrize("dim", [2 ** 20, 2 ** 24])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_linear_defect(self, dim, lam):
        # prod_{m <= N} m / (m + lambda) = Gamma(N+1) Gamma(lambda+1) / Gamma(N+lambda+1)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            n, lam_mp = mpmath.mpf(dim), mpmath.mpf(lam)
            expected = float(self.gamma_ratio(mpmath, (n + 1, lam_mp + 1),
                                              (n + lam_mp + 1,)))
        assert_log_rounding(arrival_partial_product(LINEAR, lam, 0, dim), expected)

    @pytest.mark.parametrize("dim", [2 ** 20, 2 ** 24])
    def test_quadratic_defect(self, dim):
        # prod_{m <= N} m^2 / ((m + i)(m - i)) at lambda = 1
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            n, i = mpmath.mpf(dim), mpmath.mpc(0, 1)
            expected = float(self.gamma_ratio(mpmath, (n + 1, n + 1, 1 + i, 1 - i),
                                              (n + 1 + i, n + 1 - i)))
        assert_log_rounding(arrival_partial_product(POLY, 1.0, 0, dim), expected)

    def test_cubic_bracket_value(self):
        # m^3 + 1 = (m + 1)(m - w)(m - conj(w)) with w = exp(i pi/3), so the
        # product of the bracket's K factors telescopes in m/(m + 1) and the
        # rest is Gamma(K+1)^2 Gamma(1-w) Gamma(1-conj(w)) / Gamma(K+1-w) Gamma(K+1-conj(w)).
        # loggamma takes milliseconds, where mpmath.fprod of the factors takes seconds
        mpmath = pytest.importorskip("mpmath")
        bracket = arrival_laplace(PolynomialRates(1.0, 3.0), 1.0)
        assert bracket.n_factors == 707107
        with mpmath.workdps(40):
            k, w = mpmath.mpf(bracket.n_factors), mpmath.expjpi(mpmath.mpf(1) / 3)
            w_bar = w.conjugate()
            expected = float(self.gamma_ratio(mpmath, (k + 1, k + 1, 1 - w, 1 - w_bar),
                                              (k + 1 - w, k + 1 - w_bar)) / (k + 1))
        assert_log_rounding(bracket.value, expected)


class TestConservativityDefect:
    def test_defect_equals_truncated_product_linear(self):
        # lambda = 1, mu_n = n+1: the truncated defect telescopes to 1/(N+1)
        for dim in (5, 10, 40):
            defect = conservativity_defect(LINEAR, 1.0, matrix_unit(0, 0, dim))
            assert defect == pytest.approx(1.0 / (dim + 1), abs=1e-12)

    def test_defect_decreases_to_zero_conservative(self):
        defects = [conservativity_defect(LINEAR, 1.0, matrix_unit(0, 0, d))
                   for d in (10, 20, 40, 80)]
        assert all(b < a for a, b in zip(defects, defects[1:]))
        assert defects[-1] < 0.02

    def test_defect_converges_to_product_explosive(self):
        limit = arrival_laplace(GEO, 1.0).value
        defect = conservativity_defect(GEO, 1.0, matrix_unit(0, 0, 40))
        assert defect == pytest.approx(limit, abs=1e-11)
        assert defect > 0.1

    def test_constant_rates_defect_decreasing(self):
        rates = ConstantRates(2.0)
        defects = [conservativity_defect(rates, 1.0, matrix_unit(0, 0, d))
                   for d in (5, 10, 20, 40)]
        assert all(b < a for a, b in zip(defects, defects[1:]))

    def test_small_lambda_total_escape(self):
        # explosive rates: as lambda -> 0+ the defect approaches 1
        defect = conservativity_defect(GEO, 1e-6, matrix_unit(0, 0, 60))
        assert defect == pytest.approx(1.0, abs=1e-3)


class TestTruncatedDefectProduct:
    # the defect of the chain truncated at N from level n_start is the
    # product over [n_start, N); the general-rho defect, the top-level flux of
    # the resolvent, is its oracle down to products of 1e-113 (lam = 100)
    @pytest.mark.parametrize("rates", [LINEAR, POLY, GEO, GeometricRates(1.01),
                                       ConstantRates(2.0)])
    @pytest.mark.parametrize("lam", [0.25, 1.0, 4.0, 100.0])
    def test_matches_conservativity_defect(self, rates, lam):
        dim = 60
        for n_start in (0, 7, 59):
            defect = conservativity_defect(rates, lam,
                                           matrix_unit(n_start, n_start, dim))
            product = arrival_partial_product(rates, lam, n_start, dim - n_start)
            assert abs(product - defect) <= 1e-13 * product

    def test_overflowing_ratio_is_a_factor_of_zero(self):
        with np.errstate(over="raise", invalid="raise"):
            assert arrival_partial_product(ConstantRates(1e-300), 1e10, 0, 3) == 0.0


class TestBandFunctionals:
    def test_finite_rank_gives_zero(self):
        rho = matrix_unit(3, 3, 2000)
        est, converged = band_functional(POLY, np.diagonal(rho), 0, 1000)
        assert est == 0.0 and converged

    def test_diagonal_band_unit_flux(self):
        est, converged = band_functional(POLY, domain_band(POLY, 0, 10_001), 0, 10_000)
        assert est == pytest.approx(1.0, abs=1e-12) and converged

    @pytest.mark.parametrize("q", [1, 2])
    def test_offset_band_unit_flux(self, q):
        est, converged = band_functional(POLY, domain_band(POLY, q, 10_001), q, 10_000)
        assert est == pytest.approx(1.0, abs=1e-12) and converged

    @pytest.mark.parametrize("rates", [POLY, GEO])
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_domain_element_is_its_band_on_the_diagonal(self, rates, q):
        dim = 20
        element = band_domain_element(rates, q, dim)
        assert np.array_equal(element, np.diag(domain_band(rates, q, dim - q), q))

    def test_flux_equals_trace_loss_on_domain_elements(self, rng):
        # Phi_0 = -tr(G rho) for resolvent-domain elements
        dim, lam = 40, 1.0
        rho_prime = random_psd(dim, rng)
        rho_prime[-1, :] = 0.0
        rho_prime[:, -1] = 0.0
        element = birth_resolvent(POLY, lam, rho_prime)
        est, _ = band_functional(POLY, np.diagonal(element), 0, dim - 2)
        loss = -np.trace(birth_generator(POLY, dim)(element)[:dim - 1, :dim - 1]).real
        assert abs(est.real - loss) <= 1e-8 * max(1.0, abs(loss))

    def test_band_trace_grows_to_explosion_time(self):
        tau = sum(1.0 / POLY.mu(n) for n in range(100000))
        traces = [np.trace(band_domain_element(POLY, 0, d)).real
                  for d in (10, 100, 1000)]
        assert all(b > a for a, b in zip(traces, traces[1:]))
        assert traces[-1] == pytest.approx(tau, abs=1e-3)
        assert np.allclose(np.diagonal(band_domain_element(POLY, 0, 6)),
                           [1.0 / POLY.mu(n) for n in range(6)])

    def test_probe_out_of_range_rejected(self):
        # probes at and past the end of the band
        for band, q, n_probe in [(np.diagonal(matrix_unit(0, 0, 10)), 0, 50),
                                 (domain_band(POLY, 1, 10), 1, 10),
                                 (domain_band(POLY, 1, 10), 1, 11)]:
            with pytest.raises(RateRangeError):
                band_functional(POLY, band, q, n_probe)

    def test_bad_band_arguments_rejected(self):
        with pytest.raises(ValueError):
            band_functional(POLY, domain_band(POLY, 0, 10), -1, 5)
        with pytest.raises(ValueError):
            band_functional(POLY, matrix_unit(0, 0, 10), 0, 5)


class TestModerateGrowth:
    def test_polynomial_is_moderate(self):
        report = moderate_growth_report(POLY, 3, 2000)
        assert report.moderate
        assert report.c_of_q[1] <= 3.0
        assert report.witness is None
        assert report.uniform_c == max(report.c_of_q.values())

    def test_geometric_not_moderate(self):
        report = moderate_growth_report(GEO, 2, 1000)
        assert not report.moderate
        q, n = report.witness
        assert n * abs(1.0 - GEO.mu(n + q) / GEO.mu(n)) == pytest.approx(
            report.c_of_q[q], rel=1e-9)

    def test_constant_rates_trivially_moderate(self):
        report = moderate_growth_report(ConstantRates(5.0), 3, 500)
        assert report.moderate
        assert all(c == 0.0 for c in report.c_of_q.values())


class TestAmGmGap:
    def test_equal_arguments(self):
        assert am_gm_gap(3.0, 3.0) == 0.0

    def test_direct_value(self):
        assert am_gm_gap(1.0, 4.0) == pytest.approx(0.2, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            am_gm_gap(0.0, 1.0)

    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.floats(min_value=1e-3, max_value=1e3))
    def test_bounded_by_ratio_gap(self, a, b):
        assert am_gm_gap(a, b) <= (1.0 - b / a) ** 2 + 1e-12


class TestGeometricBandDecay:
    def test_gamma_value(self):
        table = geometric_band_decay(GEO, 1, 1.0, [0.0], [10])
        assert table.gamma == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-14)

    def test_ground_state_band_vanishes(self):
        band = np.diagonal(matrix_unit(0, 0, 2), 1)
        table = geometric_band_decay(GEO, 1, 1.0, band, [100, 300])
        assert table.f_values == table.envelope == (0.0, 0.0)

    def test_offdiagonal_source_decays_under_envelope(self):
        band = np.diagonal(matrix_unit(0, 1, 2), 1)
        table = geometric_band_decay(GEO, 1, 1.0, band, [50, 100, 200, 300])
        assert all(f <= e + 1e-15 for f, e in zip(table.f_values, table.envelope))
        assert all(b < a for a, b in zip(table.f_values, table.f_values[1:]))
        assert table.f_values[-1] <= 1e-6

    def test_requires_geometric_rates(self):
        with pytest.raises(TypeError):
            geometric_band_decay(POLY, 1, 1.0, [0.0], [10])

    def test_negative_index_rejected(self):
        with pytest.raises(RateRangeError):
            geometric_band_decay(GEO, 1, 1.0, [0.0], [-1, 10])

    def test_flux_vanishes_on_geometric_domain_elements(self):
        # with exponentially growing rates every resolvent image has
        # vanishing band flux, probed far out on a truncation that holds it
        element = birth_resolvent(GEO, 1.0, matrix_unit(0, 1, 602))
        est, converged = band_functional(GEO, np.diagonal(element, 1), 1, 600)
        assert abs(est) <= 1e-12 and converged


class TestLeadingColumn:
    def test_random_input(self, rng):
        report = leading_column_report(POLY, 1.0, random_operator(20, rng))
        assert report.column == 0
        assert report.max_deviation <= 1e-12

    def test_diagonal_unit(self):
        dim, m = 10, 4
        report = leading_column_report(POLY, 1.0, matrix_unit(m, m, dim))
        assert report.column == m
        assert report.max_deviation <= 1e-14
        column = birth_resolvent(POLY, 1.0, matrix_unit(m, m, dim))[:, m]
        expected = np.zeros(dim, dtype=complex)
        expected[m] = 1.0 / (1.0 + POLY.mu(m))
        assert np.allclose(column, expected, atol=1e-14)

    def test_consistent_with_entry_formula(self, rng):
        dim = 12
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:, 3] = rng.standard_normal(dim)
        report = leading_column_report(POLY, 2.0, rho)
        assert report.column == 3
        assert report.max_deviation <= 1e-13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            leading_column_report(POLY, 1.0, np.zeros((4, 4)))


class TestNoEventResolvent:
    def test_entrywise_formula(self, rng):
        dim = 7
        rho = random_operator(dim, rng)
        out = no_event_resolvent(POLY, 1.5, rho)
        for n, m in [(0, 0), (3, 5)]:
            expected = rho[n, m] / (1.5 + 0.5 * (POLY.mu(n) + POLY.mu(m)))
            assert out[n, m] == pytest.approx(expected, rel=1e-13)
