"""Label distributions and proposal sampling for density regression.

Annotated states are modelled as isotropic Gaussians around the annotation:
narrow sigma keeps the annotation nearly exact, wider sigma encodes label
noise.  Grid labels are evaluated at cell centers (not integrated over
cells); cell (i, j) sits at coordinate (i, j).  Box-space sampling uses a
Gaussian mixture proposal so importance ratios against the label stay
bounded.  Box training happens in the target's own frame, where every
annotation sits at the origin, so the mixture is centered there and draws
offsets from the annotation.  Label and proposal then share one center, so
both box densities take the squared norms of the draws, computed once per
draw batch by their caller.

Every Gaussian here is normalized by (2 pi sigma^2)^(-dim/2); a width whose
normalizer under- or overflows is rejected (gaussian_normalizer) when a
proposal is built and before any density is evaluated.

Stream contract of proposal_sample: a call consumes exactly what
``rng.choice(len(weights), size=n, p=weights)`` followed by
``rng.standard_normal((n, dim))`` consumes, and returns the same numbers,
so training runs are reproducible draw for draw.  The (n, dim) batch is
coordinate-major: the transpose of a C-contiguous (dim, n) array, so the
per-coordinate arithmetic and the sums over the coordinate axis that the
densities and scorers do run along the long sample axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .gridmath import Grid2D

__all__ = [
    "MixtureProposal",
    "gaussian_normalizer",
    "gaussian_bump",
    "label_grid",
    "gaussian_density",
    "proposal_sample",
    "proposal_density",
    "iou_xywh",
]


@dataclass(frozen=True, eq=False)
class MixtureProposal:
    """Gaussian mixture q(y) = sum_m weight_m N(y; 0, sigma_m^2 I) in dim dimensions.

    All components sit at the origin; weights are positive and sum to 1.
    cdf is the normalized cumulative weight vector that component draws
    are looked up in.
    """

    weights: np.ndarray
    sigmas: np.ndarray
    dim: int
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        s = np.asarray(self.sigmas, dtype=np.float64)
        if w.ndim != 1 or s.ndim != 1 or w.size != s.size or w.size < 1:
            raise DimensionError("weights and sigmas must be 1D arrays of equal length")
        if self.dim < 1:
            raise DimensionError(f"proposal dim must be at least 1, got {self.dim}")
        if not ((w > 0).all() and abs(w.sum() - 1.0) <= 1e-12):
            raise DomainError("component weights must be positive and sum to 1")
        if not (s > 0).all():
            raise DomainError("component sigmas must be positive")
        for sigma in s:
            gaussian_normalizer(sigma, self.dim)
        # Normalized exactly as Generator.choice normalizes its p argument.
        cdf = w.cumsum()
        cdf /= cdf[-1]
        object.__setattr__(self, "cdf", cdf)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sigmas", s)


def gaussian_normalizer(sigma: float, dim: int) -> float:
    """(2 pi sigma^2)^(-dim/2); DomainError unless it is finite and positive."""
    sigma = float(sigma)
    try:
        norm = (2.0 * math.pi * sigma * sigma) ** (-dim / 2.0)
    except (ZeroDivisionError, OverflowError):
        norm = math.inf
    if not (0.0 < norm < math.inf):
        raise DomainError(
            f"Gaussian width {sigma!r} in {dim}D has no finite positive normalizer"
        )
    return norm


def gaussian_bump(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Unnormalized isotropic Gaussian exp(-d2 / 2 sigma^2) as d2 / (-2 sigma^2): the same bits, one op fewer."""
    return np.exp(d2 / (-2.0 * sigma * sigma))


def _gauss(dist2: np.ndarray, sigma: float, dim: int) -> np.ndarray:
    norm = gaussian_normalizer(sigma, dim)
    out = gaussian_bump(dist2, sigma)
    out *= norm
    return out


def gaussian_density(d2, sigma: float, dim: int) -> np.ndarray:
    """Isotropic Gaussian density of width sigma in dim dimensions at squared distances d2 from its center."""
    if not (sigma > 0):
        raise DomainError(f"label sigma must be positive, got {sigma}")
    return _gauss(np.asarray(d2, dtype=np.float64), sigma, dim)


def label_grid(center, sigma: float, grid_shape: tuple[int, int]) -> Grid2D:
    """Evaluate a 2D Gaussian label of width sigma at (row, col) center over a grid.

    The result is a density per unit cell area: its grid mass approximates
    1 once the +-4 sigma support fits inside the grid.
    """
    c = np.asarray(center, dtype=np.float64)
    if c.shape != (2,):
        raise DimensionError(f"grid labels need a 2D center, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise DomainError("label center must be finite")
    if not (sigma > 0):
        raise DomainError(f"label sigma must be positive, got {sigma}")
    h, w = grid_shape
    if h < 1 or w < 1:
        raise DimensionError(f"grid shape must be positive, got {grid_shape}")
    rows = np.arange(h, dtype=np.float64) - c[0]
    cols = np.arange(w, dtype=np.float64) - c[1]
    d2 = rows[:, None] ** 2 + cols[None, :] ** 2
    return Grid2D(_gauss(d2, sigma, 2))


def proposal_sample(q: MixtureProposal, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw a (size, dim) stack from the mixture.

    Each draw is its component's sigma times standard normal noise.  The
    stack is coordinate-major and the draws follow the stream contract in
    the module docstring.
    """
    n = int(size)
    if n < 1:
        raise DomainError(f"sample size must be at least 1, got {size}")
    comp = q.cdf.searchsorted(rng.random(n), side="right")
    draws = np.multiply(rng.standard_normal((n, q.dim)).T, q.sigmas[comp], out=np.empty((q.dim, n)))
    return draws.T


def proposal_density(q: MixtureProposal, d2) -> np.ndarray:
    """Mixture density at squared norms d2 of points in q.dim dimensions."""
    d2 = np.asarray(d2, dtype=np.float64)
    out = None
    for wm, sm in zip(q.weights, q.sigmas):
        term = _gauss(d2, float(sm), q.dim)
        term *= wm
        out = term if out is None else out + term
    return out


def iou_xywh(a, b) -> float | np.ndarray:
    """Intersection over union of center-format (cx, cy, w, h) boxes.

    Either argument may be a (..., 4) stack; shapes broadcast.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1:] != (4,) or b.shape[-1:] != (4,):
        raise DimensionError("boxes must have 4 components (cx, cy, w, h)")
    # Component-major views (4, ...) of equal rank, so the arithmetic runs
    # along the stack axis; a (K, 4) stack that is the transpose of a
    # C-contiguous (4, K) array gives contiguous rows.  Halving is exact, so
    # * 0.5 equals / 2, and clipping at 0 from below is np.maximum.
    nd = max(a.ndim, b.ndim)
    axes = (nd - 1, *range(nd - 1))
    a = a.reshape((1,) * (nd - a.ndim) + a.shape).transpose(axes)
    b = b.reshape((1,) * (nd - b.ndim) + b.shape).transpose(axes)
    if (a[2:] <= 0).any() or (b[2:] <= 0).any():
        raise DomainError("box width and height must be positive")
    half_a, half_b = a[2:] * 0.5, b[2:] * 0.5
    lo = np.maximum(a[:2] - half_a, b[:2] - half_b)
    sides = np.minimum(a[:2] + half_a, b[:2] + half_b)
    sides -= lo
    np.maximum(sides, 0.0, out=sides)
    out = sides[0] * sides[1]
    union = a[2] * a[3] + b[2] * b[3]
    union -= out
    out /= union
    return float(out) if out.ndim == 0 else out
