"""The vectorized %.17g encoder against Python's formatter, byte for byte,
and the kernel writer's memory and warnings."""

import tracemalloc
import warnings

import numpy as np
import pytest

from semigroup_lab import KernelGrid, g17
from test_diffusion import WRITER_GRIDS, per_element_csv


def reference_csv(parts, width=1):
    """The CSV text of a 2-D float64 array by Python's formatter: '%.17g'
    cells, or '%.17g%+.17gj' cells from (real, imaginary) pairs."""
    cell = ",".join(["%.17g%+.17gj" if width == 2 else "%.17g"] * (parts.shape[1] // width))
    return "".join((cell + "\n") % tuple(row) for row in parts.tolist()).encode()


def encoded_csv(parts, width=1):
    return b"".join(g17.csv_blocks(parts, width))


def first_mismatch(values, width=1, cols=1000):
    """(encoder's text, formatter's text) of the first cell where the two
    differ, or None; values are written `cols` to a row (padded with ones)."""
    values = np.concatenate([values, np.ones(-values.size % cols)]).reshape(-1, cols)
    got, want = encoded_csv(values, width), reference_csv(values, width)
    if got == want:
        return None
    cells = zip(got.replace(b"\n", b",").split(b","), want.replace(b"\n", b",").split(b","))
    return next((a, b) for a, b in cells if a != b)


def powers_of_ten():
    p = np.array([float(f"1e{e}") for e in range(-308, 309)])
    return np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])


def exact_ties(count, rng):
    """Doubles whose 18 significant digits end in a 5, so %.17g rounds half
    to even: o / 2**(17 - k) for odd o, in the decade [10**k, 10**(k + 1)),
    for every k from -8 (where o is 1 or 3) to 15 (where o reaches 2**53),
    such as 1000000000000000.25 and 1 + 2**-17."""
    k = rng.integers(-8, 16, count)
    lo = np.ceil(2.0 ** 17 * 5.0 ** k)
    lo += lo % 2 == 0
    hi = np.minimum(10 * 2.0 ** 17 * 5.0 ** k, 2.0 ** 53)
    odd = lo + 2 * np.floor(rng.random(count) * np.ceil((hi - lo) / 2))
    return odd * 2.0 ** (k - 17)


EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  2.225073858507201e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 2.0 ** 53 + 1, 2.0 ** 53 - 1, 2.0 ** 53,
                  1e23, 1000000000000000.25, 1e-270, 1e290, 1e16, 1e17, 1e-4, 1e-5,
                  0.1, 1 / 3, 123456789012345680.0, 9.9999999999999999e16])


def million_values():
    """About 1.004 * 10**6 values: random bit patterns (the finite ones),
    normals scaled by 10**[-300, 300], integers and quarters, subnormals,
    exact ties, powers of ten and their neighbours, and EDGES."""
    rng = np.random.default_rng(20260)
    bits = rng.integers(0, 2 ** 64, 400_000, dtype=np.uint64).view(np.float64)
    return np.concatenate([
        bits[np.isfinite(bits)],
        rng.standard_normal(400_000) * 10.0 ** rng.uniform(-300, 300, 400_000),
        rng.integers(-10 ** 9, 10 ** 9, 50_000) * rng.choice([1.0, 0.25], 50_000),
        rng.integers(1, 2 ** 52, 50_000).view(np.float64) * rng.choice([1, -1], 50_000),
        exact_ties(100_000, rng), powers_of_ten(), -powers_of_ten(), EDGES, -EDGES])


class TestBytes:
    def test_a_million_values_real(self):
        values = million_values()
        assert values.size >= 10 ** 6
        assert first_mismatch(values) is None

    def test_a_million_values_as_imaginary_parts(self):
        values = million_values()
        assert first_mismatch(values, width=2) is None

    @pytest.mark.parametrize("value, text", [
        (1000000000000000.25, "1000000000000000.2"), (1000000000000000.75, "1000000000000000.8"),
        (1 + 2.0 ** -17, "1.0000076293945312"), (2.0 ** -25, "2.9802322387695312e-08"),
        (2.0 ** 53 + 2, "9007199254740994"), (2.0 ** 53 - 1, "9007199254740991"),
        (1e23, "9.9999999999999992e+22"), (-0.0, "-0"), (0.0, "0"), (5e-324, "4.9406564584124654e-324"),
        (1e16, "10000000000000000"), (1e17, "1e+17"), (1e-5, "1.0000000000000001e-05"),
        (0.5, "0.5"), (100.0, "100"), (1e-4, "0.0001"), (-2.5e-300, "-2.5e-300")])
    def test_known_texts(self, value, text):
        row = np.full((1, g17._SMALL), value)  # enough values for the vectorized route
        assert encoded_csv(row) == (",".join([text] * g17._SMALL) + "\n").encode()

    def test_random_complex_grid(self):
        rng = np.random.default_rng(3)
        scale = 10.0 ** rng.uniform(-300, 300, (97, 97))
        values = rng.standard_normal((97, 97)) * scale + 1j * rng.standard_normal((97, 97))
        values[3, :5] = [0j, complex(-0.0, -0.0), complex(0.0, -0.0), 5e-324j, 1e300 - 1e-300j]
        parts = values.view(np.float64)
        assert encoded_csv(parts, width=2) == reference_csv(parts, width=2)

    @pytest.mark.parametrize("size", [0, 1, 49, 127])
    def test_small_arrays_take_the_vectorized_route(self, size):
        # encode has one route whatever the size: a kernel's last tile of
        # 7 x 7 cells, or a short final block
        values = np.concatenate([EDGES, -EDGES, exact_ties(50, np.random.default_rng(6)),
                                 np.linspace(-3.0, 3.0, 60)])[:size]
        for lanes in (False, True):
            texts = [("%+.17gj" if lanes and i % 2 else "%.17g") % v
                     for i, v in enumerate(values.tolist())]
            assert g17.text(g17.encode(values, lanes)) == "".join(texts).encode()

    @pytest.mark.parametrize("size", [5, 50_000])
    def test_slots_leave_the_separator_byte_free(self, size):
        slots = g17.encode(million_values()[:size], complex_lanes=True)
        assert slots.shape == (size, g17.SLOT) and not slots[:, -1].any()

    @pytest.mark.parametrize("name", WRITER_GRIDS)
    def test_writer_grids_on_the_vectorized_route(self, tmp_path, monkeypatch, name):
        """The edge grids of the kernel writer's tests, small enough for
        csv_blocks to format whole, with every value through the vectorized
        route."""
        monkeypatch.setattr(g17, "_SMALL", 0)
        grid = WRITER_GRIDS[name]()
        grid.to_csv(tmp_path / "rows.csv")
        per_element_csv(grid, tmp_path / "oracle.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


class TestFallback:
    @pytest.fixture
    def formatted(self, monkeypatch):
        """The values the fallback formats, as it is called."""
        seen = []
        fallback = g17._fallback

        def counting(values, imag):
            seen.extend(values)
            return fallback(values, imag)

        monkeypatch.setattr(g17, "_fallback", counting)
        return seen

    def test_kernel_like_values_never_fall_back(self, formatted):
        """Scaled normals carry 52 random mantissa bits, so none is an exact
        tie (a tie in decade k has at most 17 - k bits after the binary
        point, see exact_ties), and each is a near tie with odds of 2e-6."""
        rng = np.random.default_rng(1)
        values = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-265, 3, 10_000)
        assert first_mismatch(values) is None
        assert formatted == []

    @pytest.mark.parametrize("width", [1, 2])
    def test_small_tables_go_to_the_formatter_whole(self, monkeypatch, formatted, width):
        encoded = []
        monkeypatch.setattr(g17, "_encode_chunk", lambda x, *args: encoded.append(x))
        values = np.linspace(0.5, 2.5, 120).reshape(3, 40)  # fewer than g17._SMALL
        assert encoded_csv(values, width) == reference_csv(values, width)
        assert encoded == [] and formatted == []

    def test_subnormals_extremes_and_ties_fall_back(self, formatted):
        ties = exact_ties(200, np.random.default_rng(2))
        special = np.array([5e-324, -1e-300, 1e300, 1.7976931348623157e308])
        values = np.concatenate([ties, special, [0.0, -0.0, 0.1, 1.5, 2.0 ** 40]])
        assert first_mismatch(values) is None
        assert sorted(formatted) == sorted((*ties.tolist(), *special.tolist()))


def bump_grid(n):
    """The bitwise-symmetric bump kernel of `diffusion` on n points."""
    x = 0.02 * np.arange(n)
    p = np.exp(-0.5 * ((x - 2.0) / 0.4) ** 2)
    return KernelGrid(X=0.02 * (n - 1), h=0.02, values=np.outer(p, p))


def to_csv_peak(grid, path):
    grid.to_csv(path)  # the tables are built once per process
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        grid.to_csv(path)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestKernelWriterResources:
    """Traced peak memory of to_csv, under 6 MB for the symmetric 601-point
    grid that `diffusion` writes (the pending-string writer took 7.5 MB)."""

    def test_symmetric_601_point_grid(self, tmp_path):
        assert to_csv_peak(bump_grid(601), tmp_path / "kernel.csv") <= 6e6

    def test_non_symmetric_601_point_grid(self, tmp_path):
        values = np.random.default_rng(4).standard_normal((601, 601))
        grid = KernelGrid(X=12.0, h=0.02, values=values)
        assert to_csv_peak(grid, tmp_path / "kernel.csv") <= 2e6

    def test_complex_401_point_grid(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((401, 401)) + 1j * rng.standard_normal((401, 401))
        grid = KernelGrid(X=8.0, h=0.02, values=values)
        assert to_csv_peak(grid, tmp_path / "kernel.csv") <= 2e6

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_extreme_cells_raise_no_warning(self, tmp_path, monkeypatch, symmetric):
        monkeypatch.setattr(g17, "_SMALL", 0)  # the vectorized route on 25 cells
        values = np.resize([5e-324, 1.7976931348623157e308, -0.0, 1.0, -1e-300], (5, 5))
        if symmetric:
            values = np.where(np.triu(np.ones((5, 5), dtype=bool)), values, values.T)
        grid = KernelGrid(X=2.0, h=0.5, values=values)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            grid.to_csv(tmp_path / "kernel.csv")
        lines = (tmp_path / "kernel.csv").read_bytes().split(b"\n")[1:-1]
        assert lines == reference_csv(grid.values).split(b"\n")[:-1]
