import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import given
from hypothesis import strategies as st

from semigroup_lab import (
    BirthBandGenerator,
    NonFiniteError,
    StandardGeneratorSpec,
    TraceResetGenerator,
    apply_standard,
    birth_generator,
    birth_resolvent,
    choi_matrix,
    euler_semigroup,
    is_positive_semidefinite,
    is_selfadjoint,
    matrix_exponential_apply,
    matrix_unit,
    rank_one,
    superop_matrix,
    trace_norm,
)
from semigroup_lab import generators, operators
from semigroup_lab.rates import PolynomialRates

from conftest import bits, block_maps, random_operator, random_psd, random_vector


def svd_oracle(a):
    # independent route: singular values as sqrt eigenvalues of A*A
    return float(np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0)).sum())


class TestTraceNorm:
    def test_psd_equals_trace(self, rng):
        rho = random_psd(5, rng)
        assert trace_norm(rho) == pytest.approx(np.trace(rho).real, abs=1e-12)

    def test_rank_one_norm(self, rng):
        phi = random_vector(6, rng, normalize=False)
        psi = random_vector(6, rng, normalize=False)
        expected = np.linalg.norm(phi) * np.linalg.norm(psi)
        assert trace_norm(rank_one(phi, psi)) == pytest.approx(expected, rel=1e-12)

    def test_matches_svd_oracle(self, rng):
        a = random_operator(5, rng)
        assert trace_norm(a) == pytest.approx(svd_oracle(a), abs=1e-12)

    def test_triangle_inequality_and_homogeneity(self, rng):
        for _ in range(20):
            a = random_operator(4, rng)
            b = random_operator(4, rng)
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-12
            s = complex(rng.standard_normal(), rng.standard_normal())
            assert trace_norm(s * a) == pytest.approx(abs(s) * trace_norm(a), abs=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            trace_norm(np.array([[np.nan, 0], [0, 1]]))


class TestPositivity:
    def test_identity(self):
        assert is_positive_semidefinite(np.eye(3), tol=0.0)

    def test_explicit_negative_eigenvalue(self):
        assert not is_positive_semidefinite(np.diag([1.0, -1e-3]), tol=1e-9)

    def test_rejects_non_selfadjoint(self, rng):
        with pytest.raises(ValueError):
            is_positive_semidefinite(random_operator(4, rng))

    def test_selfadjoint_tolerance(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-15
        assert is_selfadjoint(a)
        a[0, 1] = 1e-3
        assert not is_selfadjoint(a)


class TestNoncontiguousInput:
    """A transposed or strided complex view is checked and used as a
    contiguous copy of it is."""

    @pytest.mark.parametrize("view", [np.transpose, lambda a: a[::2, 1::2]],
                             ids=["transposed", "strided"])
    def test_same_result_as_a_contiguous_copy(self, view, rng):
        a = view(random_psd(12, rng))
        copy = np.ascontiguousarray(a)
        assert trace_norm(a) == trace_norm(copy)
        assert is_selfadjoint(a) == is_selfadjoint(copy)
        rates = PolynomialRates(1.0, 2.0)
        assert np.array_equal(birth_resolvent(rates, 0.7, a),
                              birth_resolvent(rates, 0.7, copy))

    @pytest.mark.parametrize("entry", [np.inf, complex(1.0, -np.inf), np.nan])
    def test_transposed_nonfinite_entry_raises(self, entry, rng):
        a = random_operator(4, rng)
        a[1, 2] = entry
        with pytest.raises(NonFiniteError):
            trace_norm(a.T)


class TestRankOne:
    def test_basis_case(self):
        e0 = np.array([1.0, 0.0])
        assert np.array_equal(rank_one(e0, e0), matrix_unit(0, 0, 2))

    def test_trace_identity(self, rng):
        phi = random_vector(5, rng, normalize=False)
        psi = random_vector(5, rng, normalize=False)
        assert np.trace(rank_one(phi, psi)) == pytest.approx(np.vdot(psi, phi), abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_one(np.ones(3), np.ones(4))


class TestChoi:
    def test_identity_channel(self):
        c = choi_matrix(lambda rho: rho, 2)
        expected = sum(
            np.kron(matrix_unit(i, j, 2), matrix_unit(i, j, 2))
            for i in range(2) for j in range(2)
        )
        assert np.array_equal(c, expected)
        evals = np.linalg.eigvalsh(c)
        assert np.sum(evals > 1e-12) == 1  # rank one
        assert evals.min() >= -1e-14

    def test_conjugation_is_cp(self, rng):
        l = random_operator(3, rng)
        c = choi_matrix(lambda rho: l @ rho @ l.conj().T, 3)
        assert is_positive_semidefinite(c, tol=1e-10)

    def test_no_event_part_not_cp(self):
        k = np.diag([-1.0, -2.0])
        c = choi_matrix(lambda rho: k @ rho + rho @ k.conj().T, 2)
        # eigenvalue oracle on the explicit 4x4 matrix
        expected = sum(
            np.kron(matrix_unit(i, j, 2),
                    k @ matrix_unit(i, j, 2) + matrix_unit(i, j, 2) @ k)
            for i in range(2) for j in range(2)
        )
        assert np.allclose(c, expected)
        assert np.linalg.eigvalsh(c).min() < -1e-3
        assert not is_positive_semidefinite(c, tol=1e-10)


class TestMatrixExponential:
    def test_t_zero_identity(self, rng):
        rho = random_operator(4, rng)
        out = matrix_exponential_apply(lambda x: -x, 0.0, rho)
        assert np.array_equal(out, rho)

    def test_diagonal_generator(self, rng):
        # G multiplies each matrix unit by a scalar: decoupled scalar ODEs
        scale = np.array([[-1.0, -2.0], [-3.0, -4.0]])
        rho = random_operator(2, rng)
        out = matrix_exponential_apply(lambda x: scale * x, 0.7, rho)
        assert np.allclose(out, np.exp(0.7 * scale) * rho, atol=1e-12)

    def test_against_euler_formula(self, rng):
        # the resolvent-power reconstruction carries an O(1/n) error with
        # constant ~0.16 here, so n = 2^14 lands near 1e-5; Richardson
        # extrapolation in 1/n certifies that both routes share the limit
        rates = PolynomialRates(1.0, 2.0)
        spec = birth_generator(rates, 5)
        rho = random_psd(5, rng)
        ref = matrix_exponential_apply(spec, 0.3, rho)
        resolvent = lambda lam, x: birth_resolvent(rates, lam, x)
        coarse = euler_semigroup(resolvent, 0.3, 2 ** 13, rho)
        fine = euler_semigroup(resolvent, 0.3, 2 ** 14, rho)
        assert trace_norm(fine - ref) <= 2e-5
        assert trace_norm(2.0 * fine - coarse - ref) <= 1e-7

    def test_semigroup_property(self, rng):
        spec = birth_generator(PolynomialRates(1.0, 2.0), 5)
        rho = random_psd(5, rng)
        once = matrix_exponential_apply(spec, 0.8, rho)
        twice = matrix_exponential_apply(
            spec, 0.5, matrix_exponential_apply(spec, 0.3, rho))
        assert trace_norm(once - twice) <= 1e-9


class TestSuperopMatrix:
    def test_reproduces_action(self, rng):
        spec = birth_generator(PolynomialRates(2.0, 1.0), 4)
        m = superop_matrix(spec, 4)
        rho = random_operator(4, rng)
        assert np.allclose((m @ rho.ravel()).reshape(4, 4),
                           apply_standard(spec, rho), atol=1e-12)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            superop_matrix(lambda rho: np.zeros((3, 3)), 2)


def dissipative_spec(dim, jumps, rng):
    ls = [random_operator(dim, rng) for _ in range(jumps)]
    h = random_operator(dim, rng)
    k = 0.5j * (h + h.conj().T) - 0.5 * sum((l.conj().T @ l for l in ls), 0.1 * np.eye(dim))
    return StandardGeneratorSpec(K=k, jumps=tuple(ls))


def loop_matrix(superop, dim):
    # a plain callable has no matrix method, so this takes the column loop
    return superop_matrix(lambda x: superop(x), dim).toarray()


class TestStructuredSuperopMatrix:
    """The matrices StandardGeneratorSpec and TraceResetGenerator build
    themselves against the column loop over matrix units."""

    @pytest.mark.parametrize("dim", [2, 7, 30])
    def test_birth_and_pure_reset_equal_the_loop(self, rng, dim):
        spec = birth_generator(PolynomialRates(1.0, 2.0), dim)
        psi = random_vector(dim, rng)
        reset = TraceResetGenerator(base=spec, reset_state=rank_one(psi, psi))
        assert np.array_equal(superop_matrix(spec, dim).toarray(), loop_matrix(spec, dim))
        assert np.array_equal(superop_matrix(reset, dim).toarray(), loop_matrix(reset, dim))

    @pytest.mark.parametrize("jumps", [0, 1, 3])
    def test_dissipative_spec_matches_the_loop(self, rng, jumps):
        spec = dissipative_spec(5, jumps, rng)
        ref = loop_matrix(spec, 5)
        assert np.allclose(superop_matrix(spec, 5).toarray(), ref, rtol=1e-14,
                           atol=1e-14 * np.abs(ref).max())

    def test_mixed_reset_on_a_generic_base_matches_the_loop(self, rng):
        spec = dissipative_spec(5, 2, rng)
        reset = TraceResetGenerator(base=lambda x: spec(x), reset_state=random_psd(5, rng))
        ref = loop_matrix(reset, 5)
        assert np.allclose(superop_matrix(reset, 5).toarray(), ref, rtol=1e-14,
                           atol=1e-14 * np.abs(ref).max())

    def test_dim_mismatch_rejected(self):
        spec = birth_generator(PolynomialRates(1.0, 2.0), 4)
        reset = TraceResetGenerator(base=spec, reset_state=matrix_unit(0, 0, 4))
        for superop in (spec, reset):
            with pytest.raises(ValueError, match="does not match"):
                superop_matrix(superop, 3)

    def test_assembly_makes_no_generator_call(self, monkeypatch):
        def refuse(spec, rho):
            raise AssertionError("generator called during assembly")

        spec = birth_generator(PolynomialRates(1.0, 2.0), 6)
        reset = TraceResetGenerator(base=spec, reset_state=matrix_unit(0, 0, 6))
        expected = superop_matrix(reset, 6).toarray()
        monkeypatch.setattr(generators, "apply_standard", refuse)
        with pytest.raises(AssertionError):
            spec(matrix_unit(0, 0, 6))
        superop_matrix(spec, 6)
        assert np.array_equal(superop_matrix(reset, 6).toarray(), expected)


def components(m):
    """Index sets of the weakly connected components of m's nonzero pattern."""
    count, labels = scipy.sparse.csgraph.connected_components(m != 0, connection="weak")
    return [np.flatnonzero(labels == k) for k in range(count)]


class TestSuperopBlocks:
    @pytest.mark.parametrize("name", ["birth", "reset", "dense"])
    def test_block_count(self, rng, name):
        gen, count = block_maps(5, rng)[name]
        blocks = components(superop_matrix(gen, 5))
        assert len(blocks) == count
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(25))

    def test_birth_blocks_are_offset_diagonals(self, rng):
        dim = 5
        gen, _ = block_maps(dim, rng)["birth"]
        found = {tuple(b) for b in components(superop_matrix(gen, dim))}
        rows, cols = np.divmod(np.arange(dim * dim), dim)
        bands = {tuple(np.flatnonzero(cols - rows == q)) for q in range(1 - dim, dim)}
        assert found == bands

    @pytest.mark.parametrize("name", ["birth", "reset", "dense"])
    def test_blockwise_expm_matches_full_matrix(self, rng, name):
        gen, _ = block_maps(5, rng)[name]
        rho = random_operator(5, rng)
        m = superop_matrix(gen, 5).toarray()
        ref = (scipy.linalg.expm(0.7 * m) @ rho.ravel()).reshape(5, 5)
        out = matrix_exponential_apply(gen, 0.7, rho)
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("state, calls", [("reset", 1), ("band", 1), ("dense", 11)])
    def test_expm_runs_only_on_occupied_blocks(self, rng, monkeypatch, state, calls):
        # the reset generator at N=6 has 2N - 1 = 11 offset-diagonal blocks;
        # |0><0| lies in the diagonal one, E_02 in the q = 2 one
        gen, _ = block_maps(6, rng)["reset"]
        rho = {"reset": matrix_unit(0, 0, 6), "band": matrix_unit(0, 2, 6),
               "dense": random_operator(6, rng)}[state]
        count = 0

        def counting_expm(a):
            nonlocal count
            count += 1
            return scipy.linalg.expm(a)

        monkeypatch.setattr(operators, "expm", counting_expm)
        out = matrix_exponential_apply(gen, 0.7, rho)
        ref = (scipy.linalg.expm(0.7 * superop_matrix(gen, 6).toarray())
               @ rho.ravel()).reshape(6, 6)
        assert count == calls
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def sliced_blocks(m, v):
    """(vector block, dense block) for each component that v occupies, cut by
    scipy slicing from the block-diagonally permuted matrix."""
    _, labels = scipy.sparse.csgraph.connected_components(m != 0, connection="weak")
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    m = m[order][:, order]
    return [(v[order[start:end]], m[start:end, start:end].toarray())
            for start, end in ((bounds[k], bounds[k + 1]) for k in np.unique(labels[v != 0]))]


class OwnMatrix:
    """A map known only by its superoperator matrix."""

    def __init__(self, m):
        self.m = m

    def superop_matrix(self, dim):
        return self.m


def permuted_blocks(dim, rng):
    """A random matrix of several blocks, its indices shuffled."""
    sizes = rng.multinomial(dim * dim - 4, np.ones(4) / 4) + 1
    m = scipy.linalg.block_diag(*(random_operator(k, rng) for k in sizes))
    m[rng.random(m.shape) < 0.5] = 0.0
    m[np.diag_indices_from(m)] = 1.0
    p = rng.permutation(dim * dim)
    return scipy.sparse.csr_array(m[p][:, p])


def duplicates_and_signed_zeros():
    """3x3 operators: duplicates whose sum depends on their order, -0.0
    entries, a duplicate pair that cancels, and a stored zero that links no
    two components."""
    entries = [  # (row, column, value) in storage order
        (0, 1, 0.1), (0, 1, 0.2), (0, 1, 0.3), (0, 0, complex(-0.0, -0.0)),
        (1, 1, -0.0), (1, 0, 2.0), (2, 2, 1e16), (2, 2, 1.0), (2, 2, -1e16),
        (3, 4, 0.5j), (3, 4, -0.5j), (4, 3, 1.0), (5, 8, 0.0), (6, 6, -0.0j),
        (7, 7, 1.0), (7, 8, complex(1.0, -0.0)), (8, 7, -1.0)]
    rows, cols, values = zip(*entries)
    indptr = np.searchsorted(rows, np.arange(10))
    m = scipy.sparse.csr_array((np.array(values, dtype=complex), np.array(cols), indptr),
                               shape=(9, 9))
    assert not m.has_canonical_format
    return m


class TestBlockAssembly:
    """_blockwise_apply's blocks, summed from the CSR triplets, against the
    slices of the permuted matrix, bit for bit."""

    def assert_same_blocks(self, superop, rho):
        seen = []
        operators._blockwise_apply(superop, rho, lambda a, x: seen.append((x, a)) or x)
        expected = sliced_blocks(superop_matrix(superop, rho.shape[0]), rho.ravel())
        assert len(seen) == len(expected)
        for (x, a), (y, b) in zip(seen, expected):
            assert np.array_equal(x, y)
            assert a.shape == b.shape and np.array_equal(bits(a), bits(b))

    def test_cli_matrices(self, rng):
        # nonstandard's reset generator at N=30, minimal's birth generator at N=40
        reset = TraceResetGenerator(base=BirthBandGenerator(PolynomialRates(1.0, 2.0), 30),
                                    reset_state=matrix_unit(0, 0, 30))
        for rho in (matrix_unit(0, 0, 30), random_operator(30, rng)):
            self.assert_same_blocks(reset, rho)
        self.assert_same_blocks(birth_generator(PolynomialRates(1.0, 2.0), 40),
                                random_psd(40, rng))

    def test_random_map_of_several_components(self, rng):
        for _ in range(5):
            m = permuted_blocks(5, rng)
            assert len(components(m)) >= 4
            self.assert_same_blocks(OwnMatrix(m), random_operator(5, rng))

    def test_duplicates_and_signed_zeros_sum_as_toarray(self, rng):
        m = duplicates_and_signed_zeros()
        self.assert_same_blocks(OwnMatrix(m), random_operator(3, rng))
        self.assert_same_blocks(OwnMatrix(m), matrix_unit(2, 2, 3))

    def test_column_loop_map(self, rng):
        spec = birth_generator(PolynomialRates(1.0, 2.0), 5)
        self.assert_same_blocks(lambda x: spec(x), random_operator(5, rng))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
def test_trace_norm_scaling_hypothesis(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert trace_norm(2.0 * a) == pytest.approx(2.0 * trace_norm(a), rel=1e-10, abs=1e-12)
    assert trace_norm(a) >= 0.0
