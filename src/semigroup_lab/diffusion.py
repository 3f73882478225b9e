"""Diffusion along diagonals with absorption at the boundary, on a grid.

Integral kernels omega(x, y) on [0, X]^2 are stored on a uniform grid with
spacing h.  The semigroup acts by the method of images: the Gaussian kernel
is antisymmetrized around the origin in the integration variable,

    (S_t w)(x, y) = (2 sqrt(pi t))^-1 * int_0^X dxi
        [e^{-(min(x,y)-xi)^2/4t} - e^{-(min(x,y)+xi)^2/4t}]
        * w(xi + (x-y)_+, xi + (y-x)_+),

and similarly for the resolvent with the two-sided exponential profile.  The
integration variable only ever shifts indices along diagonals, so one
evaluation is a dense matrix product: the image-kernel matrix times the
matrix of offset diagonals of w, one product per triangle.  A kernel equal
to its transpose bit for bit, as a real product kernel phi(x) phi(y) is,
has equal triangles and needs one product; any other kernel takes two.

All quadrature is composite trapezoid on the shared grid; the kernel is read
as zero beyond the grid, which requires the input's numerical support to
stay 8*sqrt(t) away from the far edge (checked).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import g17
from .bands import bitwise_symmetric, map_bands
from .operators import NonFiniteError


class QuadratureError(ValueError):
    """Grid cannot support the requested evolution: either the far-edge tail
    control fails or the kernel scale is unresolved by the spacing."""


def _grid_intervals(X: float, h: float) -> int:
    """M = X / h for a valid grid; raises ValueError before anything is
    evaluated on a grid that is not one."""
    if not (0 < h < math.inf and 0 < X / h < math.inf):
        raise ValueError("X and h must be positive, with h and X / h finite")
    m = round(X / h)
    if abs(m * h - X) > 1e-12 * X:
        raise ValueError("X must be an exact multiple of h")
    return m


@dataclass(frozen=True)
class KernelGrid:
    """Values omega(i*h, j*h) on [0, X]^2 with X = M*h exactly."""

    X: float
    h: float
    values: np.ndarray

    def __post_init__(self):
        m = _grid_intervals(self.X, self.h)
        values = np.asarray(self.values)
        values = values.astype(complex) if np.iscomplexobj(values) else values.astype(float)
        if values.shape != (m + 1, m + 1):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({m + 1}, {m + 1})"
            )
        if not np.isfinite(values).all():
            raise NonFiniteError("kernel values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def npoints(self) -> int:
        return self.values.shape[0]

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.npoints)

    @classmethod
    def from_profile(cls, phi: Callable[[float], complex], X: float, h: float
                     ) -> "KernelGrid":
        """Product kernel phi(x) * conj(phi(y))."""
        m = _grid_intervals(X, h)
        p = np.array([phi(v) for v in h * np.arange(m + 1)])
        return cls(X=X, h=h, values=np.outer(p, p.conj()))

    def to_csv(self, path, header: str = None) -> None:
        """First row is grid metadata (X, h), then one row of cells per grid
        row: %.17g for a real grid, and '%.17g%+.17gj' (such as 0.5-0j,
        without parentheses) for a grid with any nonzero imaginary part; a
        complex grid with none is written as real.  An optional '#' comment
        line may precede the metadata.  Every cell is encoded by g17, the
        bytes of Python's own formatter at numpy speed, and written in binary
        blocks (see _blocks): for a 601-point grid, about 0.045 s and a
        traced peak of 4.0 MB if it is bitwise symmetric, 0.06 s and 0.9 MB
        if not, on a 2-core host.  Non-finite values raise NonFiniteError
        before the file is opened."""
        if not np.isfinite(self.values).all():
            raise NonFiniteError("refusing to write non-finite kernel values")
        values = self.values
        if np.iscomplexobj(values) and not np.any(values.imag):
            values = values.real
        with open(path, "wb") as fh:
            if header is not None:
                fh.write((header.rstrip("\n") + "\n").encode())
            fh.writelines(g17.csv_blocks(np.array([[self.X, self.h]], dtype=float)))
            fh.writelines(_blocks(values))

    @classmethod
    def from_csv(cls, path) -> "KernelGrid":
        """Read what to_csv writes, bit for bit: blank lines and lines
        starting with '#' are skipped, the first other line is the metadata
        row 'X,h', and the rest are the rows of values.  A cell is a number
        as Python's complex() reads it, parentheses and surrounding blanks
        allowed, but not quoted, nor with digit underscores, an uppercase J,
        a bare j or non-ASCII digits; so the Python repr cells ('1j',
        '-0-1j') that earlier versions wrote for a complex grid load as well
        as today's '0+1j'.  A grid with no nonzero imaginary part loads as
        real.  The rows go through numpy's C parser: about 25 bytes of peak
        memory per cell for a real grid and 33 for a complex one
        (tracemalloc), and about 0.15 s for a real 601-point grid on a
        2-core host."""
        with open(path) as fh:
            lines = (line for line in fh if line != "\n" and not line.startswith("#"))
            meta = next(lines, "").split(",")
            if len(meta) != 2:
                raise ValueError("kernel CSV must start with a metadata row 'X,h'")
            X, h = float(meta[0]), float(meta[1])
            first = next(lines, None)
            if first is None:  # np.loadtxt would only warn
                raise ValueError("kernel CSV has no rows of values")
            values = np.loadtxt(itertools.chain([first], lines), dtype=complex,
                                delimiter=",", comments=None, ndmin=2)
        if not np.any(values.imag):
            values = values.real
        return cls(X=X, h=h, values=values)


def _blocks(values: np.ndarray):
    """The CSV lines of a grid as byte blocks, each cell encoded once by
    g17: '%.17g' for a real grid, '%.17g%+.17gj' for a complex one, whose
    real and imaginary parts are read off the grid's float64 view.

    A grid equal to its transpose bit for bit (so -0 stays where it sits)
    encodes only its upper triangle, a block of rows at a time: the cells
    right of each block's diagonal tile are its mirror's, made into text in
    one call, transposed so that each of their columns is a line, and held
    by the row below that takes it, so at most about n**2 / 4 cells are held
    as text.  Any other grid is encoded a block of rows at a time."""
    n = values.shape[0]
    width = 2 if np.iscomplexobj(values) else 1
    parts = np.ascontiguousarray(values).view(np.float64)  # re, im, re, ...
    if not bitwise_symmetric(values):
        yield from g17.csv_blocks(parts, width)
        return
    rows = max(8, 2 ** 14 // (width * n), n // 64)  # at most about 64 blocks
    pending = [[] for _ in range(n)]  # per row, its mirrored segments so far
    for s in range(0, n, rows):
        cells = g17.cells(parts[s:s + rows, width * s:], width)
        height = cells.shape[0]
        cells[-1, :, -1] = 10  # each mirrored row's end
        mirror = g17.text(cells[:, height:].transpose(1, 0, 2)).split(b"\n")
        for segments, segment in zip(pending[s + height:], mirror):
            segments.append(segment)
        cells[-1, :, -1] = 44
        cells[:, -1, -1] = 10
        lines = []
        for r, line in zip(range(s, s + height), g17.text(cells).split(b"\n")):
            lines.append(b",".join([*pending[r], line]))
            pending[r] = None
        yield b"\n".join(lines) + b"\n"


def support_extent(kernel: KernelGrid) -> float:
    """Largest coordinate (along either axis) carrying an entry above
    1e-12 * maxabs; 0 for an all-zero kernel."""
    mag = np.abs(kernel.values)
    peak = mag.max()
    if peak == 0:
        return 0.0
    rows, cols = np.nonzero(mag > 1e-12 * peak)
    return float(kernel.h * max(rows.max(), cols.max()))


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _apply_image_kernel(kernel: KernelGrid, a: Callable[[np.ndarray], np.ndarray],
                        scale: float) -> KernelGrid:
    """Contract the image-kernel matrix (e^{-near} - e^{-far}) / scale, with
    near = a(|m - xi|) and far = a(m + xi), against the offset diagonals of the
    kernel.  It is formed as e^{-near} (-expm1(near - far)) / scale, with no
    cancelling difference; near = far at m = 0 makes that row exactly zero,
    which pins the absorbing boundary.

    Each band array of the kernel is multiplied once (map_bands): one for a
    kernel equal to its transpose bit for bit, whose result is then symmetric
    by construction, and two for any other.  The real profile multiplies the
    band array's float64 view, so a complex kernel's interleaved real and
    imaginary parts take one real product of twice the width, not a complex
    one."""
    x = kernel.x
    near = a(np.abs(np.subtract.outer(x, x)))
    far = a(np.add.outer(x, x))
    profile = np.expm1(np.subtract(near, far, out=far), out=far)
    profile *= np.exp(np.negative(near, out=near), out=near)
    del near
    profile /= -scale
    profile *= _trapezoid_weights(kernel.npoints, kernel.h)

    def fn(bands):
        return (profile @ bands.view(np.float64)).view(bands.dtype)

    return KernelGrid(X=kernel.X, h=kernel.h, values=map_bands(kernel.values, fn))


def apply_semigroup(kernel: KernelGrid, t: float) -> KernelGrid:
    """Evolve the kernel for time t by the reflected-Gaussian quadrature.

    Raises QuadratureError when the grid cannot certify the result: the
    numerical support must satisfy X >= support + 8 sqrt(t) (far-edge tail
    control) and the Gaussian width must be resolved, sqrt(4t) >= 2h.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if math.sqrt(4.0 * t) < 2.0 * kernel.h:
        raise QuadratureError(
            f"heat kernel width {math.sqrt(4 * t):.3e} unresolved by spacing "
            f"h = {kernel.h:.3e}; refine the grid or increase t"
        )
    extent = support_extent(kernel)
    needed = extent + 8.0 * math.sqrt(t)
    if kernel.X + 0.5 * kernel.h < needed:
        raise QuadratureError(
            f"tail control violated: X = {kernel.X:g} < support extent "
            f"{extent:g} + 8 sqrt(t) = {needed:g}"
        )
    return _apply_image_kernel(kernel, lambda d: d ** 2 / (4.0 * t),
                               2.0 * math.sqrt(math.pi * t))


def apply_resolvent(kernel: KernelGrid, lam: float) -> KernelGrid:
    """Resolvent of the diffusion: two-sided exponential image profile
    (2 sqrt(lam))^-1 [e^{-sqrt(lam)|m - xi|} - e^{-sqrt(lam)(m + xi)}]."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    if math.sqrt(lam) * kernel.h > 0.5:
        raise QuadratureError(
            f"resolvent length scale 1/sqrt(lambda) unresolved by spacing "
            f"h = {kernel.h:g}"
        )
    root = math.sqrt(lam)
    return _apply_image_kernel(kernel, lambda d: root * d, 2.0 * root)


def kernel_trace(kernel: KernelGrid) -> float:
    """Trapezoid integral of the diagonal."""
    return float(np.real(
        np.trapezoid(np.diagonal(kernel.values), dx=kernel.h)))


def trace_loss(kernel: KernelGrid, t: float) -> float:
    """Normalization lost up to time t:
    int erfc(xi / (2 sqrt(t))) omega(xi, xi) dxi."""
    if not t > 0:
        raise ValueError("t must be positive")
    from scipy.special import erfc  # here, to keep it off the package's import time

    factor = erfc(kernel.x / (2.0 * math.sqrt(t)))
    return float(np.real(
        np.trapezoid(factor * np.diagonal(kernel.values), dx=kernel.h)))


def diagonal_slope(kernel: KernelGrid) -> float:
    """One-sided slope of xi -> omega(xi, xi) at the absorbing boundary,
    by the second-order stencil (-3 w0 + 4 w1 - w2) / (2h) with w0 = 0
    enforced; equals the leading trace-loss rate."""
    d = np.real(np.diagonal(kernel.values))
    if d.size < 3:
        raise ValueError("grid too coarse for the boundary stencil")
    return float((4.0 * d[1] - d[2]) / (2.0 * kernel.h))
