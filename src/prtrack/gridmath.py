"""Dense 2D grid math: score maps, correlation kernels and stable exp-sums.

Score grids discretize a continuous scalar field over a rectangular region;
all numerics are float64 and deterministic.  Cross-correlation is direct (no
FFT): the zero-padded feature map is unfolded into a contiguous column
matrix with one row per (channel, kernel offset) and one column per output
cell, so a correlation is one matrix-vector product with the flattened
kernel and its adjoint is the transposed product.  Zero padding keeps the
output grid the same shape as the input feature map ("same" mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError

__all__ = [
    "Grid2D",
    "Kernel2D",
    "FeatureMap",
    "conv_apply",
    "conv_adjoint",
    "log_sum_exp",
    "softmax",
    "dump_grid",
    "load_grid",
]


def _as_float_array(values, ndim: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != ndim:
        raise DimensionError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must contain only finite values")
    return arr


@dataclass(frozen=True, eq=False)
class Grid2D:
    """A row-major (height, width) array of scalar grid values."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_float_array(self.values, 2, "grid"))

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def cell_count(self) -> int:
        return self.values.size

    @classmethod
    def full(cls, shape, fill: float) -> "Grid2D":
        return cls(np.full(shape, fill, dtype=np.float64))


@dataclass(frozen=True, eq=False)
class Kernel2D:
    """Correlation weights of shape (channels, height, width), odd spatial dims."""

    values: np.ndarray

    def __post_init__(self):
        vals = _as_float_array(self.values, 3, "kernel")
        c, kh, kw = vals.shape
        if c < 1:
            raise DimensionError("kernel needs at least one channel")
        if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
            raise DimensionError(f"kernel spatial dims must be odd and positive, got {kh}x{kw}")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """A (channels, height, width) stack of feature grids."""

    values: np.ndarray

    def __post_init__(self):
        vals = _as_float_array(self.values, 3, "feature map")
        c, h, w = vals.shape
        if c < 1 or h < 1 or w < 1:
            raise DimensionError(f"feature map dims must be positive, got {vals.shape}")
        object.__setattr__(self, "values", vals)

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


def _columns(zvals: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Column matrix of all (kh, kw) patches of the zero-padded map.

    Row (c, i, j) holds z[c, y + i - kh // 2, x + j - kw // 2] for every
    output cell (y, x) in row-major order; shape (C * kh * kw, H * W).
    """
    c, h, w = zvals.shape
    ph, pw = kh // 2, kw // 2
    zp = np.zeros((c, h + 2 * ph, w + 2 * pw))
    zp[:, ph : ph + h, pw : pw + w] = zvals
    sc, sh, sw = zp.strides
    # A strided view built directly: stride_tricks.as_strided goes through
    # __array_interface__, which costs time and peak memory on this hot path.
    patches = np.ndarray((c, kh, kw, h, w), zp.dtype, zp, 0, (sc, sh, sw, sh, sw))
    return np.ascontiguousarray(patches).reshape(c * kh * kw, h * w)


def _correlate(cols: np.ndarray, wvals: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Scores of kernel wvals on the map behind cols, as a grid of the given shape."""
    return (wvals.ravel() @ cols).reshape(shape)


def _correlate_adjoint(cols: np.ndarray, uvals: np.ndarray, kernel_shape) -> np.ndarray:
    """Kernel-space pullback of the grid uvals; kernel_shape is (C, kh, kw)."""
    return (cols @ uvals.ravel()).reshape(kernel_shape)


def _check_kernel_fits(z: FeatureMap, kh: int, kw: int):
    if kh > z.height or kw > z.width:
        raise DimensionError(
            f"kernel {kh}x{kw} does not fit inside {z.height}x{z.width} feature map"
        )


def conv_apply(z: FeatureMap, w: Kernel2D) -> Grid2D:
    """Multi-channel cross-correlation with zero same-padding, summed over channels.

    out[y] = sum_c sum_d w[c, d] * z[c, y + d - center], zeros outside z.
    """
    if z.channels != w.channels:
        raise DimensionError(f"channel mismatch: features {z.channels}, kernel {w.channels}")
    _check_kernel_fits(z, w.height, w.width)
    cols = _columns(z.values, w.height, w.width)
    return Grid2D(_correlate(cols, w.values, (z.height, z.width)))


def conv_adjoint(z: FeatureMap, u: Grid2D, kernel_shape: tuple[int, int]) -> Kernel2D:
    """Adjoint of conv_apply in its kernel argument.

    Returns the kernel K with <conv_apply(z, w), u> == <w, K> for every w of
    the given (height, width) shape.
    """
    kh, kw = kernel_shape
    if kh % 2 == 0 or kw % 2 == 0 or kh < 1 or kw < 1:
        raise DimensionError(f"kernel spatial dims must be odd and positive, got {kh}x{kw}")
    if (u.height, u.width) != (z.height, z.width):
        raise DimensionError(
            f"grid {u.height}x{u.width} does not match feature map {z.height}x{z.width}"
        )
    _check_kernel_fits(z, kh, kw)
    cols = _columns(z.values, kh, kw)
    return Kernel2D(_correlate_adjoint(cols, u.values, (z.channels, kh, kw)))


def log_sum_exp(g: Grid2D, cell_area: float = 1.0) -> float:
    """log(cell_area * sum_k exp(g_k)), max-shifted so huge scores stay exact."""
    if g.cell_count == 0:
        raise DomainError("log_sum_exp of an empty grid")
    if cell_area <= 0:
        raise DomainError(f"cell_area must be positive, got {cell_area}")
    m = float(g.values.max())
    return math.log(cell_area) + m + math.log(np.exp(g.values - m).sum())


def softmax(g: Grid2D) -> Grid2D:
    """Exponentiate and normalize the grid to total mass 1 (shift-invariant)."""
    if g.cell_count == 0:
        raise DomainError("softmax of an empty grid")
    e = np.exp(g.values - g.values.max())
    return Grid2D(e / e.sum())


def dump_grid(g: Grid2D, path):
    """Write a grid as text: a "H W" header line, then H space-separated rows."""
    with open(path, "w") as fh:
        fh.write(f"{g.height} {g.width}\n")
        for row in g.values:
            fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")


def load_grid(path) -> Grid2D:
    """Parse a grid written by dump_grid."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise DomainError(f"{path}: malformed grid header")
        h, w = int(header[0]), int(header[1])
        rows = []
        for line in fh:
            if line.strip():
                rows.append([float(tok) for tok in line.split()])
    if len(rows) != h or any(len(r) != w for r in rows):
        raise DimensionError(f"{path}: grid body does not match header {h} {w}")
    if h == 0:
        return Grid2D(np.zeros((0, w)))
    return Grid2D(np.array(rows))
