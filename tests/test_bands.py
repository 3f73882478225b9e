import numpy as np
import pytest
from scipy.linalg import solve_banded

from semigroup_lab import (
    GeometricRates,
    PolynomialRates,
    birth_generator,
    birth_resolvent,
    conservativity_defect,
    geometric_band_decay,
    matrix_unit,
    resolvent_direct,
)
from semigroup_lab.bands import band_solve, from_bands, map_bands, upper_bands

from conftest import random_operator, random_psd


def _bidiagonal_solve(rhs, weight, denom):
    """Reference: denom[i] x[i] - weight[i] x[i-1] = rhs[i] as a banded solve."""
    ab = np.zeros((2, len(denom)), dtype=complex)
    ab[0] = denom
    ab[1, :-1] = -weight[1:]
    return solve_banded((1, 0), ab, rhs)


class TestBandSolve:
    def test_single_band_matches_banded_solve(self, rng):
        n = 40
        rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        weight = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        denom = 2.0 + rng.random(n) + 1j * rng.standard_normal(n)
        x = band_solve(rhs, weight, denom)
        ref = _bidiagonal_solve(rhs, weight, denom)
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_band_stack_matches_column_solves(self, rng):
        n, cols = 30, 7
        rhs = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
        weight = rng.standard_normal((n, cols)) + 1j * rng.standard_normal((n, cols))
        denom = 2.0 + rng.random((n, cols)) + 1j * rng.standard_normal((n, cols))
        x = band_solve(rhs, weight, denom)
        for c in range(cols):
            ref = _bidiagonal_solve(rhs[:, c], weight[:, c], denom[:, c])
            assert np.abs(x[:, c] - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_scalar_coefficients_broadcast(self):
        x = band_solve(np.array([1.0, 0.0, 0.0, 2.0]), 0.5, 1.0)
        assert np.array_equal(x, [1.0, 0.5, 0.25, 2.125])

    def test_empty_band(self):
        assert band_solve(np.zeros(0), 0.5, 1.0).shape == (0,)


class TestBandLayout:
    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_round_trip_is_exact(self, dim, rng):
        a = random_operator(dim, rng)
        assert np.array_equal(from_bands(upper_bands(a.T), upper_bands(a)), a)

    def test_columns_hold_offset_diagonals(self, rng):
        a = rng.standard_normal((5, 5))
        low, up = upper_bands(a.T), upper_bands(a)
        for d in range(5):
            assert np.array_equal(low[:5 - d, d], np.diagonal(a, offset=-d))
            assert np.array_equal(up[:5 - d, d], np.diagonal(a, offset=d))
            assert not low[5 - d:, d].any() and not up[5 - d:, d].any()

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_padding_rows_are_never_read(self, dim, rng):
        # birth_resolvent leaves garbage below each band's last entry
        a = random_operator(dim, rng)
        low, up = upper_bands(a.T), upper_bands(a)
        for d in range(1, dim):
            low[dim - d:, d] = up[dim - d:, d] = 1e300 + 1j
        assert np.array_equal(from_bands(low, up), a)

    def test_main_diagonal_comes_from_the_lower_bands(self, rng):
        a = rng.standard_normal((4, 4))
        low, up = upper_bands(a.T), upper_bands(a)
        up[:, 0] = np.nan
        assert np.array_equal(from_bands(low, up), a)


def _one_ulp_off(a):
    a = a.copy()
    a.real[1, 3] = np.nextafter(a.real[1, 3], np.inf)
    return a


def _symmetric(rng, dim=6):
    a = rng.standard_normal((dim, dim))
    return a + a.T


# name: (matrix, fn calls map_bands makes); a bitwise-symmetric matrix takes one
BAND_MAP_MATRICES = {
    "real symmetric": (_symmetric, 1),
    "complex |0><0|": (lambda rng: matrix_unit(0, 0, 6), 1),
    "complex symmetric, column-major": (
        lambda rng: np.asfortranarray((1.0 + 0.5j) * _symmetric(rng)), 1),
    "real, one ulp off symmetric": (lambda rng: _one_ulp_off(_symmetric(rng)), 2),
    "complex, one ulp off symmetric": (
        lambda rng: _one_ulp_off((1.0 + 0.5j) * _symmetric(rng)), 2),
    "-0.0 mirrored by 0.0": (lambda rng: np.array([[1.0, -0.0], [0.0, 1.0]]), 2),
    "hermitian": (lambda rng: random_psd(6, rng), 2),
}


class TestBandMap:
    @pytest.mark.parametrize("name", BAND_MAP_MATRICES)
    def test_maps_each_distinct_band_array_once(self, name, rng):
        build, calls = BAND_MAP_MATRICES[name]
        a = build(rng)
        seen = []

        def fn(bands):
            seen.append(bands.copy())
            return 2.0 * bands + 1.0

        got = map_bands(a, fn)
        low, up = upper_bands(a.T), upper_bands(a)
        assert len(seen) == calls
        assert np.array_equal(seen[0], low) and np.array_equal(seen[-1], up)
        want = from_bands(2.0 * low + 1.0, 2.0 * up + 1.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", BAND_MAP_MATRICES)
    def test_fn_may_overwrite_its_band_array(self, name, rng):
        a = BAND_MAP_MATRICES[name][0](rng)

        def fn(bands):
            bands *= 2.0
            bands += 1.0
            return bands

        got = map_bands(a, fn)
        want = from_bands(2.0 * upper_bands(a.T) + 1.0, 2.0 * upper_bands(a) + 1.0)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def stacked_birth_resolvent(rates, lam, rho):
    """birth_resolvent as one sweep over the lower and upper band arrays
    stacked along a middle axis: the oracle its bits must match."""
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    mu = rates.mu_array(0, dim)
    level = np.arange(dim)
    mu_n = mu[:, None, None]
    mu_m = mu[np.minimum(level[:, None] + level, dim - 1)][:, None]
    weight = np.roll(np.sqrt(mu_n) * np.sqrt(mu_m), 1, axis=0)
    x = band_solve(np.stack([upper_bands(rho.T), upper_bands(rho)], axis=1),
                   weight, lam + 0.5 * (mu_n + mu_m))
    return from_bands(x[:, 0], x[:, 1])


BIRTH_STATES = {
    "random complex": lambda dim, rng: random_operator(dim, rng),
    "hermitian": lambda dim, rng: random_psd(dim, rng),
    "real symmetric": lambda dim, rng: _symmetric(rng, dim),
    "|0><0|": lambda dim, rng: matrix_unit(0, 0, dim),
}


class TestBirthBandMap:
    @pytest.mark.parametrize("dim", [1, 2, 30])
    @pytest.mark.parametrize("name", BIRTH_STATES)
    def test_bits_match_stacked_sweep(self, name, dim, rng):
        rho = BIRTH_STATES[name](dim, rng)
        for rates, lam in [(PolynomialRates(1.0, 2.0), 0.7), (GeometricRates(1.5), 3.0)]:
            got = birth_resolvent(rates, lam, rho)
            want = stacked_birth_resolvent(rates, lam, rho)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestDiagonalBandRoutes:
    @pytest.mark.parametrize("rates", [PolynomialRates(1.0, 2.0), GeometricRates(1.5)])
    def test_defect_matches_full_resolvent_trace(self, rates, rng):
        # rho has no unit trace: the defect is tr rho - lam tr R rho
        dim, lam = 25, 0.7
        rho = random_operator(dim, rng)
        full = (np.trace(rho) - lam * np.trace(birth_resolvent(rates, lam, rho))).real
        assert conservativity_defect(rates, lam, rho) == pytest.approx(full, abs=1e-12)

    def test_geometric_decay_matches_dense_resolvent(self, rng):
        rates, lam, q, dim = GeometricRates(2.0), 1.0, 2, 20
        rho = random_operator(dim, rng)
        n_values = [0, 3, 9, dim - q - 1]
        table = geometric_band_decay(rates, q, lam, np.diagonal(rho, q), n_values)
        dense = resolvent_direct(birth_generator(rates, dim), lam, rho)
        for n, f in zip(n_values, table.f_values):
            mid = 0.5 * (rates.mu(n) + rates.mu(n + q))
            assert f == pytest.approx(abs(mid * dense[n, n + q]), rel=1e-12)

    def test_geometric_decay_envelope_is_convolution(self):
        rates, q = GeometricRates(2.0), 1
        # the q=1 band of |0><1|, read as zero past its end
        table = geometric_band_decay(rates, q, 1.0, [1.0], [0, 4])
        assert table.envelope == pytest.approx((1.0, table.gamma ** 4), rel=1e-14)
