import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from semigroup_lab import NonFiniteError
from semigroup_lab.rates import (
    ConstantRates,
    ExplicitRates,
    GeometricRates,
    PolynomialRates,
    RateRangeError,
    RateSpecError,
    parse_rate_spec,
)


class TestFamilies:
    def test_polynomial(self):
        r = parse_rate_spec("poly:1:2")
        assert r == PolynomialRates(1.0, 2.0)
        assert r.mu(0) == 1.0
        assert r.mu(3) == 16.0

    def test_geometric(self):
        r = parse_rate_spec("geom:2")
        assert r.mu(2) == 4.0
        assert r.mu(0) == 1.0

    def test_constant(self):
        r = parse_rate_spec("const:3.5")
        assert r.mu(17) == 3.5

    def test_explicit_no_extrapolation(self):
        r = parse_rate_spec("list:1,2,4")
        assert r.mu(2) == 4.0
        with pytest.raises(RateRangeError):
            r.mu(3)
        with pytest.raises(RateRangeError):
            r.mu_array(1, 3)

    def test_mu_array_matches_scalar(self):
        # one mu expression per family: the scalar is the array entry bit for
        # bit, and overflows to inf like it (geom:2 from n = 1024)
        for r, count in ((PolynomialRates(2.0, 1.5), 3),
                         (PolynomialRates(1.0, 3.0), 800_000),
                         (GeometricRates(1.3), 3), (GeometricRates(1.01), 2_000),
                         (GeometricRates(2.0), 1_101), (ConstantRates(0.7), 3),
                         (ExplicitRates((1.0, 2.0, 3.0)), 3)):
            with np.errstate(over="ignore"):
                arr = r.mu_array(0, count)
                assert [r.mu(n) for n in range(count)] == arr.tolist(), r

    @pytest.mark.parametrize("rates, start, count, level", [
        (GeometricRates(2.0), 1000, 64, 1024), (GeometricRates(2.0), 1030, 64, 1030),
        (PolynomialRates(1.0, 400.0), 0, 64, 5),
        (PolynomialRates(1e308, 2.0), 0, 4, 1)])
    def test_finite_mu_array_refuses_the_first_non_finite_rate(self, rates, start, count,
                                                                level):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"rate mu_{level} = inf$"):
                rates.finite_mu_array(start, count)
            finite = rates.finite_mu_array(start, level - start)
        assert np.array_equal(finite, rates.mu_array(start, level - start))

    @pytest.mark.parametrize("make", [
        lambda v: PolynomialRates(v, 2.0), lambda v: PolynomialRates(1.0, v),
        GeometricRates, ConstantRates, lambda v: ExplicitRates((1.0, v))],
        ids=["poly_c", "poly_p", "geom", "const", "list"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_parameter_rejected(self, make, value):
        with pytest.raises(ValueError):
            make(value)

    def test_negative_index_rejected(self):
        with pytest.raises(RateRangeError):
            PolynomialRates(1.0, 1.0).mu(-1)
        with pytest.raises(RateRangeError):
            ExplicitRates((1.0, 2.0, 4.0)).mu_array(-1, 2)

    @pytest.mark.parametrize("rates", [PolynomialRates(1.0, 2.0), GeometricRates(2.0),
                                       ConstantRates(0.7), ExplicitRates((1.0, 2.0, 4.0))])
    def test_negative_count_rejected(self, rates):
        with pytest.raises(RateRangeError, match="count"):
            rates.mu_array(0, -3)
        assert rates.mu_array(1, 0).size == 0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PolynomialRates(0.0, 1.0)
        with pytest.raises(ValueError):
            GeometricRates(-2.0)
        with pytest.raises(ValueError):
            ExplicitRates((1.0, 0.0))
        with pytest.raises(ValueError):
            ExplicitRates(())


class TestInverseTail:
    def test_geometric_exact(self):
        r = GeometricRates(2.0)
        # sum_{j>=s} 2^-j = 2^(1-s)
        assert r.inverse_tail(3) == pytest.approx(2.0 ** -2, rel=1e-12)

    def test_polynomial_upper_bound(self):
        r = PolynomialRates(1.0, 2.0)
        exact_tail = sum(1.0 / r.mu(j) for j in range(5, 100000))
        bound = r.inverse_tail(5)
        assert exact_tail <= bound <= 2.0 * exact_tail

    def test_divergent_cases(self):
        assert PolynomialRates(1.0, 1.0).inverse_tail(0) == math.inf
        assert ConstantRates(2.0).inverse_tail(0) == math.inf
        assert GeometricRates(0.5).inverse_tail(0) == math.inf

    def test_explicit_sums_listed_range(self):
        r = ExplicitRates((1.0, 2.0, 4.0))
        assert r.inverse_tail(1) == pytest.approx(0.75)



class TestFirstNonfinite:
    @pytest.mark.parametrize("rates, levels, first", [
        (GeometricRates(1.01), 10 ** 5, 71333),  # 1.01**71333 overflows
        (GeometricRates(1.01), 71333, None),
        (PolynomialRates(1.0, 200.0), 1000, 34),  # 35**200 overflows
        (GeometricRates(0.5), 5000, None),  # underflow to 0 is finite
        (ConstantRates(3.0), 10 ** 6, None),
        (ExplicitRates((1.0, 2.0, 3.0)), 3, None),
    ])
    def test_matches_reading_every_rate(self, rates, levels, first):
        # the bisection from the top level, against reading every rate
        assert rates.first_nonfinite(levels) == first
        if levels <= 10 ** 5:
            with np.errstate(over="ignore"):
                bad = np.flatnonzero(~np.isfinite(rates.mu_array(0, levels)))
            assert (int(bad[0]) if bad.size else None) == first

    def test_list_shorter_than_levels_raises(self):
        with pytest.raises(RateRangeError):
            ExplicitRates((1.0, 2.0)).first_nonfinite(3)


class TestPowerSums:
    # S_k / k = sum_j (lam/mu_j)^k / k over [start, start + count), in pieces
    # and an error bound, against 40-digit sums of the exact ratios

    @pytest.mark.parametrize("rates, lam, start, count", [
        (PolynomialRates(1.0, 1.0), 1.0, 299, 1000),
        (PolynomialRates(2.5, 1.5), 7.0, 50, 200),
        (PolynomialRates(0.3, 3.0), 0.01, 1000, 5),
        (GeometricRates(1.01), 1.0, 0, 500),
        (GeometricRates(0.99), 1e-3, 10, 300),  # rising ratios
    ])
    def test_against_direct_sums(self, rates, lam, start, count):
        mpmath = pytest.importorskip("mpmath")
        power_sum = rates.power_sums(lam, start, count)
        for k in range(1, 6):
            pieces, bound = power_sum(k)
            with mpmath.workdps(40):
                if isinstance(rates, PolynomialRates):
                    mu = [rates.c * mpmath.mpf(j + 1) ** rates.p for j in range(start, start + count)]
                else:
                    mu = [mpmath.mpf(rates.a) ** j for j in range(start, start + count)]
                exact = float(mpmath.fsum((lam / m) ** k for m in mu) / k)
            assert bound >= 0.0
            assert abs(math.fsum(pieces) - exact) <= bound + 1e-14 * exact


class TestParser:
    def test_error_reports_offset(self):
        with pytest.raises(RateSpecError) as err:
            parse_rate_spec("poly:1:x")
        assert err.value.offset == 7

    @pytest.mark.parametrize("bad", [
        "spam:1", "poly:1", "poly:-1:2", "geom:0", "const:", "list:",
        "list:1,,2", "geom:1e", "poly", "const:nan", "const:inf", "geom:1_0",
        "geom:1e999", "poly:1e999:2", "poly:1:1e999", "list:1,1e999",
    ])
    def test_invalid_inputs_raise(self, bad):
        with pytest.raises(RateSpecError):
            parse_rate_spec(bad)

    def test_exponent_notation(self):
        assert parse_rate_spec("const:1.5e-3").c == 1.5e-3
        assert parse_rate_spec("geom:2E2").a == 200.0

    # each spec's numbers come back unchanged in the family they name
    PARSED = {
        "poly:1:2": PolynomialRates(1.0, 2.0),
        "geom:2": GeometricRates(2.0),
        "const:3.5": ConstantRates(3.5),
        "list:1,2,4": ExplicitRates((1.0, 2.0, 4.0)),
        "poly:2.5e-1:1.5": PolynomialRates(0.25, 1.5),
    }

    @pytest.mark.parametrize("text", list(PARSED))
    def test_round_trip(self, text):
        assert parse_rate_spec(text) == self.PARSED[text]


positive_floats = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


@given(positive_floats, positive_floats)
def test_poly_round_trip_hypothesis(c, p):
    assert parse_rate_spec(f"poly:{c!r}:{p!r}") == PolynomialRates(c, p)


@given(st.lists(positive_floats, min_size=1, max_size=8))
def test_list_round_trip_hypothesis(values):
    parsed = parse_rate_spec("list:" + ",".join(repr(v) for v in values))
    constructed = ExplicitRates(tuple(values))
    assert parsed == constructed
    assert hash(parsed) == hash(constructed)  # the cached hash follows equality
