"""Grid-discretized probability densities derived from score grids.

The tracker's densities live on unit cells: a score grid s maps to the
density d_k = exp(s_k) / sum_l exp(s_l), so that sum_k d_k == 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .gridmath import Grid2D, log_sum_exp

__all__ = ["GridDensity", "normalize", "read_peak"]


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density values per unit cell, of total mass 1."""

    grid: Grid2D

    def __post_init__(self):
        if self.grid.cell_count == 0:
            raise DimensionError("density grid must be nonempty")
        vals = self.grid.values
        if (vals < 0).any():
            raise DomainError("density values must be nonnegative")
        mass = float(vals.sum())
        if abs(mass - 1.0) > 1e-9:
            raise DomainError(f"density mass must be 1 within 1e-9, got {mass!r}")


def normalize(scores: Grid2D) -> GridDensity:
    """Turn a score grid into the density exp(s) / sum exp(s)."""
    dens = np.exp(scores.values - log_sum_exp(scores))
    # Guard against rounding pushing the total mass outside the 1e-9 gate.
    dens /= dens.sum()
    return GridDensity(Grid2D(dens))


def read_peak(d: GridDensity) -> tuple[tuple[int, int], float, tuple[float, float]]:
    """((row, col), mass, (mean_row, mean_col)) of the density peak.

    The peak is the argmax cell (ties pick the row-major first); mass is
    the density mass of the 3x3 patch around it, and the mean is the
    density-weighted mean cell coordinate over that patch.  The patch is
    clipped at grid borders, so peaks on the boundary use the cells that
    exist.
    """
    vals = d.grid.values
    r0, c0 = divmod(int(np.argmax(vals)), vals.shape[1])
    rlo, clo = max(r0 - 1, 0), max(c0 - 1, 0)
    patch = vals[rlo : r0 + 2, clo : c0 + 2]
    total = patch.sum()
    rows = np.arange(rlo, rlo + patch.shape[0], dtype=np.float64)
    cols = np.arange(clo, clo + patch.shape[1], dtype=np.float64)
    r = float((patch.sum(axis=1) * rows).sum() / total)
    c = float((patch.sum(axis=0) * cols).sum() / total)
    return (r0, c0), float(total), (r, c)
