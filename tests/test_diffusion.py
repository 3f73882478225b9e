import csv
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from semigroup_lab import (
    KernelGrid,
    NonFiniteError,
    QuadratureError,
    apply_resolvent,
    apply_semigroup,
    diagonal_slope,
    g17,
    kernel_trace,
    support_extent,
    trace_loss,
)
from semigroup_lab.bands import from_bands, upper_bands


def bump_profile(center=2.0, width=0.4):
    return lambda x: math.exp(-0.5 * ((x - center) / width) ** 2)


def bump_kernel(X=10.0, h=0.01, center=2.0, width=0.4):
    return KernelGrid.from_profile(bump_profile(center, width), X, h)


def spike_loss(point, t=0.25, X=40.0, h=0.25):
    """trace_loss of a kernel whose diagonal is one spike of value
    1 / (trapezoid weight) at the grid point `point`: the erfc factor there.
    With h a power of two and 2 sqrt(t) = 1 every step is exact, so this is
    erfc(point) bit for bit."""
    i = round(point / h)
    values = np.zeros((round(X / h) + 1,) * 2)
    values[i, i] = 2.0 / h if i == 0 else 1.0 / h
    return trace_loss(KernelGrid(X=X, h=h, values=values), t)


class TestErfc:
    """The erfc(xi / 2 sqrt(t)) factor of trace_loss."""

    def test_at_zero(self):
        assert spike_loss(0.0) == 1.0

    def test_reference_value(self):
        # high-precision reference computed from the continued-fraction
        # expansion (mpmath erfc(1))
        assert spike_loss(1.0) == pytest.approx(0.15729920705028513, abs=1e-15)

    def test_moment_integral(self):
        # int_0^inf xi erfc(xi / 2 sqrt(t)) dxi = t; the trapezoid error is
        # -h^2 / 12 times the integrand's slope at 0, which is 1
        t = 0.5
        for h in (0.02, 0.01):
            kernel = KernelGrid.from_profile(math.sqrt, 12.0, h)
            assert trace_loss(kernel, t) - t == pytest.approx(-h ** 2 / 12, rel=1e-3)

    def test_underflow_to_zero(self):
        assert spike_loss(40.0) == 0.0

    def test_accuracy_against_arbitrary_precision_oracle(self):
        import mpmath
        x = 0.25 * np.arange(109)
        ref = np.array([float(mpmath.erfc(v)) for v in x])
        assert np.abs([spike_loss(v) for v in x] - ref).max() <= 1e-10


class TestKernelGrid:
    def test_grid_consistency_enforced(self):
        with pytest.raises(ValueError):
            KernelGrid(X=1.0, h=0.3, values=np.zeros((4, 4)))
        with pytest.raises(ValueError):
            KernelGrid(X=1.0, h=0.5, values=np.zeros((4, 4)))

    @pytest.mark.parametrize("X, h", [(math.inf, 0.5), (1.0, math.inf),
                                      (1e300, 1e-300), (math.nan, 0.5)])
    def test_non_finite_grid_rejected(self, X, h):
        with pytest.raises(ValueError, match="finite"):
            KernelGrid(X=X, h=h, values=np.zeros((1, 1)))

    @pytest.mark.parametrize("build", ["from_profile"])
    @pytest.mark.parametrize("X, h", [(math.inf, 0.5), (1e300, 1e-300), (1.0, 0.0)])
    def test_invalid_grid_rejected_before_evaluation(self, build, X, h):
        def never(*args):
            pytest.fail("the kernel was evaluated on an invalid grid")

        with pytest.raises(ValueError, match="finite"):
            getattr(KernelGrid, build)(never, X, h)

    def test_non_contiguous_complex_values(self):
        values = (np.arange(16.0) + 1j).reshape(4, 4)[:, ::-1]
        assert not values.flags.c_contiguous
        assert KernelGrid(X=1.5, h=0.5, values=values).values[0, 0] == 3 + 1j
        values[1, 2] = complex(0.0, np.inf)
        with pytest.raises(NonFiniteError):
            KernelGrid(X=1.5, h=0.5, values=values)

    def test_csv_round_trip_real(self, tmp_path):
        kernel = bump_kernel(X=2.0, h=0.1)
        path = tmp_path / "kernel.csv"
        kernel.to_csv(path)
        back = KernelGrid.from_csv(path)
        assert back.X == kernel.X and back.h == kernel.h
        assert np.array_equal(back.values, kernel.values)

    def test_csv_round_trip_complex(self, tmp_path):
        grid = KernelGrid.from_profile(lambda x: (1.0 + 0.5j) * math.exp(-x),
                                       1.0, 0.25)
        path = tmp_path / "kernel.csv"
        grid.to_csv(path)
        back = KernelGrid.from_csv(path)
        assert np.allclose(back.values, grid.values, rtol=0, atol=0)

    def test_csv_comments_only_at_line_start(self, tmp_path):
        path = tmp_path / "kernel.csv"
        path.write_text("# header\n\n0.5,0.5\n# between rows\n1,2\n\n3,4j\n")
        assert KernelGrid.from_csv(path).values.tolist() == [[1, 2], [3, 4j]]
        path.write_text("0.5,0.5\n1,2 # note\n3,4\n")
        with pytest.raises(ValueError):
            KernelGrid.from_csv(path)

    def test_support_extent(self):
        values = np.zeros((11, 11))
        values[3, 5] = 1.0
        grid = KernelGrid(X=1.0, h=0.1, values=values)
        assert support_extent(grid) == pytest.approx(0.5)
        assert support_extent(KernelGrid(X=1.0, h=0.1, values=np.zeros((11, 11)))) == 0.0


def csv_fields(path):
    return path.read_text().replace("\n", ",").split(",")


def per_element_csv(grid, path, header=None):
    """The kernel writer as it was before rows were formatted whole: one
    format call per element, rows through csv.writer.  Oracle for to_csv."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(header.rstrip("\n") + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"{grid.X:.17g}", f"{grid.h:.17g}"])
        complex_valued = np.iscomplexobj(grid.values) and np.any(grid.values.imag)
        for row in grid.values:
            if complex_valued:
                writer.writerow(["%.17g%+.17gj" % (v.real, v.imag) for v in row])
            else:
                writer.writerow([f"{float(np.real(v)):.17g}" for v in row])


def repr_csv(grid, path):
    """The complex kernel writer of earlier versions: every cell the Python
    repr of its value, without parentheses ('1j', '-0-1j', '(1e+300+0j)' as
    '1e+300+0j')."""
    with open(path, "w") as fh:
        fh.write(f"{grid.X:.17g},{grid.h:.17g}\n")
        for row in grid.values.tolist():
            fh.write(",".join(repr(v).strip("()") for v in row) + "\n")


EDGE_REALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, -2 / 3,
              1e16, 123456789012345680.0, 1e-5, 1.0, -1.0, 2.5]


EDGE_COMPLEX = [1j, complex(0.0, -1.0), complex(-0.0, -1.0), complex(0.0, -0.0),
                complex(-0.0, 0.0), complex(-0.0, -0.0), complex(1 / 3, 0.1),
                complex(5e-324, -5e-324),
                complex(1.7976931348623157e308, 2.2250738585072014e-308), -2.5 + 0j,
                1e300j, complex(0.1, -0.0), 0j, 2.5 - 1e-5j, complex(-1.0, 1e16), 3j]


def _edge_grid(entries, X=1.5, h=0.5):
    rng = np.random.default_rng(7)
    values = np.resize(np.asarray(entries), (4, 4))
    return KernelGrid(X=X, h=h, values=values[:, rng.permutation(4)])


def _random_grid(dtype):
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-300, 300, (41, 41))
    values = rng.standard_normal((41, 41)) * scale
    if dtype is complex:
        values = values + 1j * rng.standard_normal((41, 41)) * scale[::-1]
    return KernelGrid(X=4.0, h=0.1, values=values)


def _mirrored(values):
    """values with its upper triangle copied below the diagonal, bit for bit."""
    return np.where(np.triu(np.ones(values.shape, dtype=bool)), values, values.T)


def _mirrored_signed_zero():
    """Symmetric but for a signed zero: 0.0 at (1, 2), -0.0 at (2, 1)."""
    values = _mirrored(np.resize(np.asarray(EDGE_REALS), (4, 4)))
    values[1, 2], values[2, 1] = 0.0, -0.0
    return KernelGrid(X=1.5, h=0.5, values=values)


# one value of each layout of a g17 slot: exponent form both ways, fixed form
# below 1 and from 1 to 10, the point moved (10 <= |v| < 1e17), whole numbers,
# signed zeros, and a subnormal and exact ties, which take the fallback
LAYOUT_REALS = [1.2345e20, 1e17, 123456789012345680.0, 3.5e-300, 1e-5, 0.000123,
                0.5, 1 / 3, 1.0, 2.5, 12.5, 123456.789, 99999.999999999985,
                1000.0, 10.0, 1e16, 0.0, -0.0, 5e-324, 1000000000000000.25,
                1 + 2.0 ** -17]


def _layout_grid(n, dtype=float):
    """A bitwise-symmetric grid on n points: a third of its cells drawn from
    LAYOUT_REALS and their negatives, the rest scaled normals."""
    rng = np.random.default_rng(n)
    parts = [rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-30, 30, (n, n))
             for _ in range(2 if dtype is complex else 1)]
    special = np.array(LAYOUT_REALS + [-v for v in LAYOUT_REALS])
    for values in parts:
        pick = rng.random((n, n)) < 1 / 3
        values[pick] = rng.choice(special, pick.sum())
    values = parts[0] + 1j * parts[1] if dtype is complex else parts[0]
    return KernelGrid(X=0.5 * (n - 1), h=0.5, values=_mirrored(values))


WRITER_GRIDS = {
    "real edge values": lambda: _edge_grid(EDGE_REALS),
    "complex signed zeros": lambda: _edge_grid(EDGE_COMPLEX),
    "complex dtype, zero imaginary": lambda: _edge_grid(
        [complex(v, -0.0 if i % 2 else 0.0) for i, v in enumerate(EDGE_REALS)]),
    "integer metadata": lambda: KernelGrid(X=3, h=1, values=np.eye(4)),
    "random real": lambda: _random_grid(float),
    "random complex": lambda: _random_grid(complex),
    "symmetric random real": lambda: KernelGrid(
        X=4.0, h=0.1, values=_mirrored(_random_grid(float).values)),
    "symmetric edge values": lambda: KernelGrid(
        X=2.5, h=0.5, values=_mirrored(np.resize(np.asarray(EDGE_REALS), (6, 6)))),
    "mirrored signed zero": _mirrored_signed_zero,
    "symmetric complex dtype, zero imaginary": lambda: KernelGrid(
        X=2.5, h=0.5, values=_mirrored(np.resize(np.asarray(
            [complex(v, -0.0 if i % 2 else 0.0) for i, v in enumerate(EDGE_REALS)]),
            (6, 6)))),
    "symmetric complex edge values": lambda: KernelGrid(
        X=2.5, h=0.5, values=_mirrored(np.resize(np.asarray(EDGE_COMPLEX), (6, 6)))),
    "symmetric complex, column-major": lambda: KernelGrid(
        X=2.5, h=0.5, values=_mirrored(np.resize(np.asarray(EDGE_COMPLEX), (6, 6))).T),
    "two points": lambda: KernelGrid(X=0.5, h=0.5,
                                     values=[[1 / 3, -0.0], [-0.0, 2.5]]),
}


class TestKernelWriter:
    @pytest.mark.parametrize("header", [None, "# semigroup-lab header",
                                        "# trailing newline\n"])
    @pytest.mark.parametrize("name", WRITER_GRIDS)
    def test_bytes_match_per_element_writer(self, tmp_path, name, header):
        grid = WRITER_GRIDS[name]()
        grid.to_csv(tmp_path / "rows.csv", header=header)
        per_element_csv(grid, tmp_path / "oracle.csv", header=header)
        assert (tmp_path / "rows.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("n, dtype", [(130, float), (257, float), (601, float),
                                          (129, complex)])
    def test_symmetric_grids_of_many_row_blocks(self, tmp_path, monkeypatch, n, dtype):
        """A bitwise-symmetric grid of several blocks of rows, the last one
        short: its mirrored cells cross from block to block byte for byte."""
        formatted = []
        fallback = g17._fallback

        def counting(values, imag):
            formatted.extend(values)
            return fallback(values, imag)

        monkeypatch.setattr(g17, "_fallback", counting)
        grid = _layout_grid(n, dtype)
        grid.to_csv(tmp_path / "rows.csv")
        per_element_csv(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "rows.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes()
        assert {5e-324, 1000000000000000.25, 1 + 2.0 ** -17} <= {abs(v) for v in formatted}

    def test_zero_imaginary_parts_take_the_real_path(self, tmp_path):
        grid = WRITER_GRIDS["complex dtype, zero imaginary"]()
        assert np.iscomplexobj(grid.values)
        grid.to_csv(tmp_path / "kernel.csv")
        fields = csv_fields(tmp_path / "kernel.csv")
        assert "-0" in fields and not any("j" in f for f in fields)

    def test_complex_entries_are_two_g17_fields(self, tmp_path):
        grid = WRITER_GRIDS["complex signed zeros"]()
        grid.to_csv(tmp_path / "kernel.csv")
        fields = csv_fields(tmp_path / "kernel.csv")
        assert {"0+1j", "0-1j", "-0-1j", "0-0j", "-0+0j", "-0-0j",
                "0.10000000000000001-0j"} <= set(fields)
        assert not any("(" in f or ")" in f for f in fields)

    @pytest.mark.parametrize("name", ["complex signed zeros", "random complex"])
    def test_repr_cells_still_load_bitwise(self, tmp_path, name):
        grid = WRITER_GRIDS[name]()
        repr_csv(grid, tmp_path / "kernel.csv")
        grid.to_csv(tmp_path / "today.csv")
        assert (tmp_path / "kernel.csv").read_bytes() != (tmp_path / "today.csv").read_bytes()
        back = KernelGrid.from_csv(tmp_path / "kernel.csv")
        assert back.values.dtype == grid.values.dtype
        assert np.array_equal(bits(back.values), bits(grid.values))

    @pytest.mark.parametrize("name", WRITER_GRIDS)
    def test_csv_round_trip_is_bitwise(self, tmp_path, name):
        """from_csv reads back every bit to_csv wrote, -0.0 and subnormals
        included; a grid written as real loads as real."""
        grid = WRITER_GRIDS[name]()
        grid.to_csv(tmp_path / "kernel.csv")
        back = KernelGrid.from_csv(tmp_path / "kernel.csv")
        written = grid.values if np.any(grid.values.imag) else grid.values.real
        assert (back.X, back.h) == (grid.X, grid.h)
        assert back.values.dtype == written.dtype
        assert np.array_equal(bits(back.values), bits(written))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_csv_load_peak_memory(self, tmp_path, dtype):
        """At most 40 bytes of traced peak memory per cell: a Python object
        per cell takes over 100."""
        rng = np.random.default_rng(5)
        values = rng.standard_normal((201, 201)).astype(dtype)
        if dtype is complex:
            values += 1j * rng.standard_normal((201, 201))
        KernelGrid(X=2.0, h=0.01, values=values).to_csv(tmp_path / "kernel.csv")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            KernelGrid.from_csv(tmp_path / "kernel.csv")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 201 ** 2


def bits(values):
    """The int64 view of a float or complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(values).view(np.int64)


def two_product_contraction(kernel, a, scale, product=np.matmul):
    """The image-kernel contraction with one product per band, as it was
    before a symmetric kernel shared one product: oracle for the semigroup
    and resolvent quadratures, which must match it bit for bit on a real
    kernel.  On a complex one, np.matmul casts the profile to complex."""
    x, n, h = kernel.x, kernel.npoints, kernel.h
    near = a(np.abs(np.subtract.outer(x, x)))
    far = a(np.add.outer(x, x))
    weights = np.full(n, h)
    weights[0] = weights[-1] = 0.5 * h
    profile = np.expm1(near - far) * np.exp(-near) / -scale * weights
    values = kernel.values
    return from_bands(product(profile, upper_bands(values.T)),
                      product(profile, upper_bands(values)))


def real_products(profile, bands):
    """profile @ bands for complex bands as two real products, one per part."""
    out = np.empty(bands.shape, dtype=bands.dtype)
    out.real = profile @ bands.real
    out.imag = profile @ bands.imag
    return out


def _one_ulp_off(kernel):
    values = kernel.values.copy()
    values[100, 110] = np.nextafter(values[100, 110], np.inf)
    return KernelGrid(X=kernel.X, h=kernel.h, values=values)


QUADRATURE_KERNELS = {
    "symmetric": lambda: bump_kernel(X=8.0, h=0.02),
    "one ulp off symmetric": lambda: _one_ulp_off(bump_kernel(X=8.0, h=0.02)),
    "complex symmetric": lambda: KernelGrid(
        X=8.0, h=0.02, values=(1.0 + 0.5j) * bump_kernel(X=8.0, h=0.02).values),
    "complex symmetric, column-major": lambda: KernelGrid(
        X=8.0, h=0.02, values=((1.0 + 0.5j) * bump_kernel(X=8.0, h=0.02).values).T),
    "hermitian": lambda: KernelGrid.from_profile(
        lambda x: (1.0 + 0.5j * x) * bump_profile()(x), 8.0, 0.02),
}

QUADRATURES = {
    "semigroup": (lambda kernel: apply_semigroup(kernel, 0.1),
                  lambda d: d ** 2 / (4.0 * 0.1), 2.0 * math.sqrt(math.pi * 0.1)),
    "resolvent": (lambda kernel: apply_resolvent(kernel, 2.25),
                  lambda d: 1.5 * d, 2.0 * 1.5),
}


class TestImageKernelContraction:
    @pytest.mark.parametrize("quadrature", QUADRATURES)
    @pytest.mark.parametrize("name", QUADRATURE_KERNELS)
    def test_bits_match_two_product_contraction(self, name, quadrature):
        kernel = QUADRATURE_KERNELS[name]()
        apply, a, scale = QUADRATURES[quadrature]
        got = apply(kernel).values
        want = two_product_contraction(kernel, a, scale)
        assert got.dtype == want.dtype
        if not np.iscomplexobj(got):
            assert got.tobytes() == want.tobytes()
            return
        # a complex kernel takes one real product of its float64 view, whose
        # bits depend on the BLAS kernel: each part is held within 4e-15 of
        # the peak of the complex product and of two real products
        peak = np.abs(want).max()
        for oracle in (want, two_product_contraction(kernel, a, scale, real_products)):
            assert np.abs((got - oracle).view(np.float64)).max() <= 4e-15 * peak

    @pytest.mark.parametrize("quadrature", QUADRATURES)
    @pytest.mark.parametrize("name", ["symmetric", "complex symmetric",
                                      "complex symmetric, column-major"])
    def test_symmetric_kernel_gives_symmetric_bits(self, name, quadrature):
        got = QUADRATURES[quadrature][0](QUADRATURE_KERNELS[name]()).values
        assert got.tobytes() == got.T.copy().tobytes()

    @pytest.mark.parametrize("quadrature", QUADRATURES)
    @pytest.mark.parametrize("name, units", [("symmetric", 3.5),
                                             ("one ulp off symmetric", 4.5),
                                             ("hermitian", 7.5)])
    def test_peak_memory(self, name, units, quadrature):
        """Traced peak, the input excluded, in units of one 401 x 401 float64
        array: the profile, the band array being multiplied and the products
        so far; a bitwise-symmetric kernel maps one band array, any other
        two.  A complex band array and its product take two units each, and
        the profile is never cast to complex (which took 9 units)."""
        kernel = QUADRATURE_KERNELS[name]()
        assert kernel.npoints == 401
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            QUADRATURES[quadrature][0](kernel)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= units * 401 ** 2 * 8


class TestSemigroup:
    def test_short_time_near_identity(self):
        kernel = KernelGrid.from_profile(bump_profile(1.5, 0.3), 6.0, 0.005)
        evolved = apply_semigroup(kernel, 1e-3)
        dev = np.abs(evolved.values - kernel.values).max()
        assert dev <= 5e-2
        finer = np.abs(apply_semigroup(kernel, 2.5e-4).values - kernel.values).max()
        assert finer < 0.5 * dev  # deviation shrinks linearly with t

    def test_boundary_rows_vanish(self):
        evolved = apply_semigroup(bump_kernel(X=8.0, h=0.02), 0.1)
        assert np.abs(evolved.values[0, :]).max() == 0.0
        assert np.abs(evolved.values[:, 0]).max() == 0.0

    def test_sample_point_against_quadrature_oracle(self):
        # independent adaptive quadrature of the image integral at (1, 1)
        # for the windowed ramp profile phi(x) = x exp(-x) (tapered to zero
        # between x = 5 and x = 7 so the far-edge tail control holds)
        def phi(x):
            if x >= 7.0:
                return 0.0
            taper = 1.0 if x <= 5.0 else 0.5 * (1.0 + math.cos(math.pi * (x - 5.0) / 2.0))
            return x * math.exp(-x) * taper

        t, point = 0.1, 1.0
        kernel = KernelGrid.from_profile(phi, 10.0, 0.01)
        evolved = apply_semigroup(kernel, t)
        i = round(point / kernel.h)

        def integrand(xi):
            gauss = math.exp(-(point - xi) ** 2 / (4 * t)) - \
                math.exp(-(point + xi) ** 2 / (4 * t))
            return gauss / (2 * math.sqrt(math.pi * t)) * phi(xi) * phi(xi)

        oracle, err = quad(integrand, 0.0, 10.0, limit=200)
        assert err < 1e-9
        assert evolved.values[i, i].real == pytest.approx(oracle, abs=1e-6)

    def test_composition_property(self):
        kernel = bump_kernel(X=10.0, h=0.01)
        once = apply_semigroup(kernel, 0.2)
        twice = apply_semigroup(apply_semigroup(kernel, 0.1), 0.1)
        assert np.abs(once.values - twice.values).max() <= 1e-4

    def test_positivity_preserved(self):
        kernel = bump_kernel(X=8.0, h=0.02, center=1.5, width=0.3)
        evolved = apply_semigroup(kernel, 0.1)
        gram = 0.5 * (evolved.values + evolved.values.T) * evolved.h
        assert np.linalg.eigvalsh(gram).min() >= -1e-8

    def test_trace_monotone_nonincreasing(self):
        kernel = bump_kernel(X=10.0, h=0.02, center=1.5, width=0.3)
        traces = [kernel_trace(apply_semigroup(kernel, t))
                  for t in (0.05, 0.1, 0.2, 0.4)]
        assert all(b < a for a, b in zip(traces, traces[1:]))
        assert kernel_trace(kernel) > traces[0]

    def test_tail_control_violation_raises(self):
        kernel = bump_kernel(X=4.0, h=0.01, center=3.0, width=0.3)
        with pytest.raises(QuadratureError, match="tail control"):
            apply_semigroup(kernel, 0.5)

    def test_unresolved_time_step_raises(self):
        kernel = bump_kernel(X=4.0, h=0.01, center=1.0, width=0.3)
        with pytest.raises(QuadratureError, match="unresolved"):
            apply_semigroup(kernel, 1e-6)


class TestResolvent:
    def test_boundary_exactly_zero(self):
        resolved = apply_resolvent(bump_kernel(X=6.0, h=0.02), 1.0)
        assert np.abs(resolved.values[0, :]).max() == 0.0
        assert np.abs(resolved.values[:, 0]).max() == 0.0

    def test_sample_point_against_quadrature_oracle(self):
        lam, point = 1.0, 1.0
        profile = bump_profile(2.0, 0.5)
        kernel = KernelGrid.from_profile(profile, 8.0, 0.01)
        resolved = apply_resolvent(kernel, lam)
        i = round(point / kernel.h)

        def integrand(xi):
            f = math.exp(-math.sqrt(lam) * abs(point - xi)) - \
                math.exp(-math.sqrt(lam) * (point + xi))
            return f / (2 * math.sqrt(lam)) * profile(xi) ** 2

        oracle, err = quad(integrand, 0.0, 8.0, limit=200,
                           points=[point])
        assert err < 1e-9
        assert resolved.values[i, i].real == pytest.approx(oracle, abs=1e-6)

    def test_laplace_consistency_with_semigroup(self):
        # split the Laplace integral at T: R_lam w = int_0^T e^{-lam t} S_t w dt
        # + e^{-lam T} R_lam(S_T w); the substitution t = u^2 makes the
        # integrand smooth and vanish at u = 0, so plain trapezoid in u works
        lam, T = 1.0, 0.6
        kernel = KernelGrid.from_profile(bump_profile(1.0, 0.2), 10.0, 0.025)
        resolved = apply_resolvent(kernel, lam)
        u_min = kernel.h  # resolution floor sqrt(4t) >= 2h
        u_grid = np.linspace(u_min, math.sqrt(T), 150)
        du = u_grid[1] - u_grid[0]
        acc = np.zeros_like(kernel.values)
        evolved_at = {}
        for uk in u_grid:
            t = uk * uk
            evolved_at[uk] = apply_semigroup(kernel, t).values
            weight = du if u_min < uk < u_grid[-1] else 0.5 * du
            acc = acc + weight * 2.0 * uk * math.exp(-lam * t) * evolved_at[uk]
        # triangle [0, u_min]: the u-integrand vanishes at u = 0
        acc += 0.5 * u_min * 2.0 * u_min * math.exp(-lam * u_min ** 2) * evolved_at[u_min]
        # exact tail via the semigroup property
        tail_kernel = KernelGrid(X=kernel.X, h=kernel.h,
                                 values=evolved_at[u_grid[-1]])
        acc += math.exp(-lam * T) * apply_resolvent(tail_kernel, lam).values
        assert np.abs(acc - resolved.values).max() <= 1e-4

    def test_unresolved_lambda_raises(self):
        kernel = bump_kernel(X=4.0, h=0.1, center=1.0, width=0.3)
        with pytest.raises(QuadratureError):
            apply_resolvent(kernel, 100.0)

    def test_vanishing_lambda_slope_is_the_trace(self):
        # as lam -> 0 the profile tends to min(m, xi), so the boundary slope
        # of the resolvent diagonal is the trace of a kernel supported away
        # from the boundary
        kernel = bump_kernel(X=12.0, h=0.02)
        slope = diagonal_slope(apply_resolvent(kernel, 1e-300))
        assert slope == pytest.approx(kernel_trace(kernel), rel=1e-12)

    def test_vanishing_lambda_matches_the_green_function(self):
        # lam = 0 route with no exponential: trapezoid sum of
        # min(x_m, xi) omega(xi, xi)
        kernel = bump_kernel(X=12.0, h=0.02)
        x, diag = kernel.x, np.diagonal(kernel.values)
        ref = np.trapezoid(np.minimum.outer(x, x) * diag, dx=kernel.h, axis=1)
        got = np.diagonal(apply_resolvent(kernel, 1e-300).values)
        assert got[0] == 0.0
        np.testing.assert_allclose(got[1:], ref[1:], rtol=1e-12, atol=0)


class TestTraceLoss:
    def test_zero_kernel(self):
        zero = KernelGrid(X=1.0, h=0.1, values=np.zeros((11, 11)))
        assert kernel_trace(zero) == 0.0
        assert trace_loss(zero, 0.1) == 0.0

    def test_loss_identity(self):
        kernel = bump_kernel(X=10.0, h=0.01)
        t = 0.1
        evolved = apply_semigroup(kernel, t)
        gap = abs(kernel_trace(evolved) - (kernel_trace(kernel) - trace_loss(kernel, t)))
        assert gap <= 1e-5

    def test_pure_state_loss_is_higher_order(self):
        # boundary-vanishing profile: the diagonal is quadratic at 0, so the
        # loss rate loss(t)/t decays like sqrt(t) instead of a constant
        kernel = KernelGrid.from_profile(lambda x: x * math.exp(-2.0 * x), 8.0, 0.01)
        ratios = [trace_loss(kernel, t) / t for t in (1e-2, 1e-3, 1e-4)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] <= 0.25 * ratios[0]


class TestDiagonalSlope:
    def test_min_kernel_analytic_slope(self):
        # omega(x, y) = min(x, y) e^{-x-y} has diagonal x e^{-2x}: slope 1
        x = 0.01 * np.arange(601)
        kernel = KernelGrid(X=6.0, h=0.01, values=np.minimum.outer(x, x)
                            * np.exp(-np.add.outer(x, x)))
        assert diagonal_slope(kernel) == pytest.approx(1.0, abs=1e-3)

    def test_pure_state_zero_slope(self):
        kernel = KernelGrid.from_profile(lambda x: x * math.exp(-x), 6.0, 0.01)
        assert abs(diagonal_slope(kernel)) <= 1e-3

    def test_resolvent_kernel_loss_rate(self):
        # for a resolvent-built kernel the early loss is linear with the
        # boundary slope as its rate
        kernel = apply_resolvent(bump_kernel(X=8.0, h=0.01, center=2.0,
                                             width=0.4), 1.0)
        slope = diagonal_slope(kernel)
        assert slope > 0
        for t in (1e-3, 2e-3, 5e-3, 1e-2):
            assert trace_loss(kernel, t) / t == pytest.approx(slope, rel=0.05)
