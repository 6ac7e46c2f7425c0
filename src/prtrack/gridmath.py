"""Dense 2D grid math: score maps, correlation kernels and stable exp-sums.

Score grids discretize a continuous scalar field over a rectangular region;
all numerics are float64 and deterministic.  Cross-correlation is direct (no
FFT) and unfolds rows, not patches.  Each channel of the zero-padded map is
laid out flat with row pitch Wp = W + kw - 1, and row (c, i) of the unfold R
is the run of that buffer starting at padded row i: kernel row i of channel
c sees output cell (y, x) plus column offset j at R[(c, i), y * Wp + x + j].
A correlation is then one product M = W_j @ R, where W_j[j] holds kernel
column j, followed by a sum of the kw shifted diagonals, out[n] =
sum_j M[j, n + j].  The adjoint stacks kw shifted copies of the output
grid instead and takes one product of R with that stack.  R is kw times
smaller than a patch (im2col) matrix.  The Wp - W extra columns of each
output row wrap into the next padded row and are dropped.  Zero padding
keeps the output grid the same shape as the input feature map ("same" mode).

One _Workspace per (map shape, kernel shape) holds every buffer these steps
need: the padded map, R, the padded adjoint grid, the diagonal sums, and one
(kw, H * Wp + kw - 1) buffer that M and the shifted stack share, since they
are never alive together.  Borders are zeroed once and each use writes only
interiors, so a reused workspace gives bit for bit a fresh one's results.
The kernel solver keeps one per solve; conv_apply and conv_adjoint make one.
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


def _view(base: np.ndarray, shape, strides, offset: int = 0) -> np.ndarray:
    # A strided view built directly: stride_tricks.as_strided goes through
    # __array_interface__, which costs time and peak memory on this hot path.
    return np.ndarray(shape, base.dtype, base, offset, strides)


class _Workspace:
    """Reused buffers for correlating (C, H, W) maps with (C, kh, kw) kernels (see the module docstring)."""

    def __init__(self, map_shape, kernel_shape):
        c, h, w = map_shape
        _, kh, kw = kernel_shape
        wp = w + kw - 1
        length = h * wp + kw - 1
        stride = (h + kh - 1) * wp + kw - 1
        item = np.dtype(np.float64).itemsize
        self.kernel_shape = (c, kh, kw)
        padded = np.zeros((c, stride))
        self._map = _view(padded, (c, h, w), (stride * item, wp * item, item), ((kh // 2) * wp + kw // 2) * item)
        self._rows = _view(padded, (c, kh, length), (stride * item, wp * item, item))
        self.unfolded = np.empty((c * kh, length))
        self._unfolded_rows = self.unfolded.reshape(c, kh, length)
        # u sits in an (H, Wp) grid behind kw - 1 zeros; row j of the shifted
        # stack reads it j cells later, so shifted[j, n] = u_flat[n - j].
        grid = np.zeros(h * wp + 2 * (kw - 1))
        self._grid = grid[kw - 1 : kw - 1 + h * wp].reshape(h, wp)[:, :w]
        self._shifted = _view(grid, (kw, length), (-item, item), (kw - 1) * item)
        self._product = np.empty((kw, length))
        self._diagonals = _view(self._product, (kw, h * wp), ((length + 1) * item, item))
        self._sums = np.empty(h * wp)
        self._scores = self._sums.reshape(h, wp)[:, :w]

    def unfold(self, zvals: np.ndarray):
        """Make R the row unfold of the (C, H, W) map zvals, with zeros outside z:

        R[(c, i), y * Wp + x + j] = z[c, y + i - kh // 2, x + j - kw // 2].
        """
        np.copyto(self._map, zvals)
        np.copyto(self._unfolded_rows, self._rows)

    def arrange(self, wvals: np.ndarray) -> np.ndarray:
        """The (kw, C * kh) matrix W_j of kernel wvals, whose row j holds kernel column j."""
        return wvals.transpose(2, 0, 1).reshape(wvals.shape[2], -1)

    def correlate(self, arranged: np.ndarray, out: np.ndarray):
        """Write the scores of the arranged kernel on the unfolded map into out, H * W cells."""
        np.dot(arranged, self.unfolded, out=self._product)
        np.add.reduce(self._diagonals, 0, None, self._sums)
        np.copyto(out.reshape(self._scores.shape), self._scores)

    def adjoint(self, u: np.ndarray) -> np.ndarray:
        """Kernel-space pullback of the H * W grid u on the unfolded map."""
        self._grid[...] = u.reshape(self._grid.shape)
        # A contiguous copy lets the product go to BLAS, which the negative
        # row stride would otherwise keep from it.
        np.copyto(self._product, self._shifted)
        return np.dot(self.unfolded, self._product.T).reshape(self.kernel_shape)


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
    ws = _Workspace(z.values.shape, w.values.shape)
    ws.unfold(z.values)
    out = np.empty((z.height, z.width))
    ws.correlate(ws.arrange(w.values), out)
    return Grid2D(out)


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
    ws = _Workspace(z.values.shape, (z.channels, kh, kw))
    ws.unfold(z.values)
    return Kernel2D(ws.adjoint(u.values))


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
