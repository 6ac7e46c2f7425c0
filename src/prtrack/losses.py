"""Regression objectives over score grids, each with its closed-form gradient.

Four families are covered:

* l2_loss          -- squared error against per-cell pseudo labels,
* robust_l2_loss   -- squared error near the annotation, hinged squared
                      score in the background,
* nll_loss         -- negative log of the normalized density at the
                      annotated cell,
* kl_grid_loss     -- divergence between the model density and a label
                      density sampled on the grid,
* kl_mc_loss       -- the same divergence estimated with importance
                      sampling at arbitrary sample points.

Grid losses take a Grid2D of scores; the Monte Carlo loss takes flat sample
vectors.  The value of kl_grid_loss drops the score-independent entropy of
the label density, so it can be negative; differences between score grids
are still exact divergences.

Each objective has one implementation.  _CrossEntropy (nll, kl) and
_Squared (l2, rl2) evaluate a stack of flattened score grids, one row per
grid, with value, score gradient and curvature; the online kernel solver in
center_optimizer runs them over its whole support set, and the grid losses
here are one-row calls scaled by the cell area.  kl_mc_loss is the sampled
form the box scorers train on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .gridmath import Grid2D

__all__ = [
    "LOSS_MODELS",
    "DENSITY_MODELS",
    "LossValueGrad",
    "l2_loss",
    "robust_l2_loss",
    "nll_loss",
    "kl_grid_loss",
    "kl_mc_loss",
]

LOSS_MODELS = ("l2", "rl2", "nll", "kl")
# The cross-entropy family, whose scores are log densities.
DENSITY_MODELS = ("nll", "kl")


@dataclass(frozen=True, eq=False)
class LossValueGrad:
    """Loss value plus its gradient with respect to the scores.

    grad_scores is a Grid2D for grid losses and a flat array for sample
    losses, matching the shape of the score input.  A stacked sample loss
    holds one value per score row.
    """

    value: float | np.ndarray
    grad_scores: Grid2D | np.ndarray


class _CrossEntropy:
    """Softmax cross entropy log(sum_k exp s_k) - sum_k p_k s_k of each row.

    The score gradient is softmax(s) - p.  The curvature state is the
    softmax, taken as that gradient plus p.
    """

    def __init__(self, labels: np.ndarray):
        self.labels = labels

    @staticmethod
    def _values(s, p, work):
        # Leaves exp(s - max) in work and returns it with the row values.
        m = s.max(axis=1)
        ps = np.multiply(p, s, out=work).sum(axis=1)
        np.subtract(s, m[:, None], out=work)
        total = np.exp(work, out=work).sum(axis=1)
        values = [mj + math.log(tj) - pj for mj, tj, pj in zip(m.tolist(), total.tolist(), ps.tolist())]
        return values, total

    def value(self, s: np.ndarray, work: np.ndarray) -> list[float]:
        """Loss of each row of s; work is a scratch stack of its shape."""
        return self._values(s, self.labels, work)[0]

    def value_grad(self, s, grad, state, rows: slice) -> list[float]:
        """Losses of the rows; grad and state get their score gradients and curvature states."""
        s, grad, state, p = s[rows], grad[rows], state[rows], self.labels[rows]
        values, total = self._values(s, p, state)
        np.divide(state, total[:, None], out=state)
        np.subtract(state, p, out=grad)
        np.add(grad, p, out=state)
        return values

    def curvature(self, state: np.ndarray, v: np.ndarray, work: np.ndarray) -> list[float]:
        """v' (d2 loss / ds2) v of each row: the softmax variance of v."""
        pv = np.multiply(state, v, out=work).sum(axis=1).tolist()
        pvv = np.multiply(work, v, out=work).sum(axis=1).tolist()
        return [b - a * a for a, b in zip(pv, pvv)]


class _Squared:
    """Sum of squared residuals r = s - a of each row.

    With a far mask (rl2) the residual off the near cells is the hinge
    max(s, 0), and the curvature state masks the cells where it is flat.
    Without one (l2) every cell is near and no state is needed.
    """

    def __init__(self, labels: np.ndarray, far: np.ndarray | None):
        self.labels = labels
        self.far = far

    def _residual(self, s, out, rows):
        np.subtract(s, self.labels[rows], out=out)
        if self.far is not None:
            np.maximum(s, 0.0, out=out, where=self.far[rows])
        return out

    def value(self, s: np.ndarray, work: np.ndarray) -> list[float]:
        """Loss of each row of s; work is a scratch stack of its shape."""
        r = self._residual(s, work, slice(None))
        return np.multiply(r, r, out=r).sum(axis=1).tolist()

    def value_grad(self, s, grad, state, rows: slice) -> list[float]:
        """Losses of the rows; grad and state get their score gradients and curvature states."""
        s, grad, state = s[rows], grad[rows], state[rows]
        r = self._residual(s, grad, rows)
        values = np.multiply(r, r, out=state).sum(axis=1).tolist()
        np.multiply(r, 2.0, out=grad)
        if self.far is not None:
            state.fill(1.0)
            np.greater(s, 0.0, out=state, where=self.far[rows])
        return values

    def curvature(self, state: np.ndarray, v: np.ndarray, work: np.ndarray) -> list[float]:
        """v' (d2 loss / ds2) v of each row."""
        if self.far is None:
            vv = np.multiply(v, v, out=work)
        else:
            vv = np.multiply(np.multiply(state, v, out=work), v, out=work)
        return [2.0 * x for x in vv.sum(axis=1).tolist()]


def _one_row(loss, scores: Grid2D) -> tuple[float, np.ndarray]:
    """Value and score gradient of a stacked loss on the one grid its labels were flattened from."""
    row = scores.values.reshape(1, -1)
    grad, state = np.empty_like(row), np.empty_like(row)
    (value,) = loss.value_grad(row, grad, state, slice(None))
    return value, grad.reshape(scores.values.shape)


def _check_same_shape(scores: Grid2D, labels: Grid2D, what: str):
    if (scores.height, scores.width) != (labels.height, labels.width):
        raise DimensionError(
            f"{what} shape {labels.height}x{labels.width} does not match "
            f"scores {scores.height}x{scores.width}"
        )


def l2_loss(scores: Grid2D, pseudo_labels: Grid2D, cell_area: float = 1.0) -> LossValueGrad:
    """value = A * sum_k (s_k - a_k)^2, grad = 2A * (s - a)."""
    _check_same_shape(scores, pseudo_labels, "pseudo labels")
    if cell_area <= 0:
        raise DomainError(f"cell_area must be positive, got {cell_area}")
    value, grad = _one_row(_Squared(pseudo_labels.values.reshape(1, -1), None), scores)
    return LossValueGrad(cell_area * value, Grid2D(cell_area * grad))


def robust_l2_loss(
    scores: Grid2D,
    pseudo_labels: Grid2D,
    threshold: float,
    cell_area: float = 1.0,
) -> LossValueGrad:
    """Squared error where the label exceeds the threshold, hinged elsewhere.

    Cells with a_k > threshold contribute (s_k - a_k)^2; background cells
    contribute max(0, s_k)^2, so already-negative background scores are
    free.  Both branches are summed with the cell area.
    """
    _check_same_shape(scores, pseudo_labels, "pseudo labels")
    if cell_area <= 0:
        raise DomainError(f"cell_area must be positive, got {cell_area}")
    a = pseudo_labels.values.reshape(1, -1)
    value, grad = _one_row(_Squared(a, ~(a > threshold)), scores)
    return LossValueGrad(cell_area * value, Grid2D(cell_area * grad))


def nll_loss(scores: Grid2D, label_coordinate, cell_area: float = 1.0) -> LossValueGrad:
    """Negative log density at the annotation: log(A sum exp s) - s(y_i).

    The continuous annotation is snapped to the nearest cell center
    (cell (i, j) sits at (i, j) * sqrt(cell_area)); annotations outside
    the grid are rejected.  This is log A plus the cross entropy against
    a one-hot label at that cell.
    """
    if cell_area <= 0:
        raise DomainError(f"cell_area must be positive, got {cell_area}")
    coord = np.asarray(label_coordinate, dtype=np.float64)
    if coord.shape != (2,):
        raise DimensionError(f"label coordinate must be 2D, got shape {coord.shape}")
    spacing = math.sqrt(cell_area)
    i = int(round(coord[0] / spacing))
    j = int(round(coord[1] / spacing))
    if not (0 <= i < scores.height and 0 <= j < scores.width):
        raise DomainError(f"label coordinate {tuple(coord)} falls outside the score grid")
    one_hot = np.zeros(scores.values.shape)
    one_hot[i, j] = 1.0
    value, grad = _one_row(_CrossEntropy(one_hot.reshape(1, -1)), scores)
    return LossValueGrad(math.log(cell_area) + value, Grid2D(grad))


def kl_grid_loss(
    scores: Grid2D,
    label_grid: Grid2D,
    cell_area: float = 1.0,
    renormalize: bool = True,
) -> LossValueGrad:
    """Grid-sampled divergence: log(A sum_k exp s_k) - A sum_k s_k p_k.

    By default the label density is rescaled so its grid mass A * sum p_k
    is exactly 1, which keeps truncated or coarsely sampled Gaussians
    honest; pass renormalize=False to trust the raw values.  This is log A
    plus the cross entropy against the cell masses A * p, and the gradient
    is A * (softmax density - p).
    """
    _check_same_shape(scores, label_grid, "label grid")
    if cell_area <= 0:
        raise DomainError(f"cell_area must be positive, got {cell_area}")
    p = label_grid.values
    if (p < 0).any():
        raise DomainError("label density must be nonnegative")
    if renormalize:
        mass = p.sum() * cell_area
        if mass <= 0:
            raise DomainError("label grid has zero mass; cannot renormalize")
        p = p / mass
    if p.size == 0:
        raise DomainError("divergence of an empty grid")
    value, grad = _one_row(_CrossEntropy((cell_area * p).reshape(1, -1)), scores)
    return LossValueGrad(math.log(cell_area) + value, Grid2D(grad))


def kl_mc_loss(sample_scores, label_densities, proposal_densities, label_rows=None) -> LossValueGrad:
    """Importance-sampled divergence at K proposal draws.

    value = log( (1/K) sum_k exp(s_k) / q_k ) - (1/K) sum_k s_k p_k / q_k
    with p_k the label density and q_k the proposal density at draw k.
    The first term is evaluated as a shifted log-sum-exp over s_k - log q_k.

    Stacked form, over C cells that each draw their own K proposals:
    sample_scores is a (J, C, K) stack of score rows, one per job and cell,
    label_densities an (L, C, K) stack of labels, proposal_densities one
    (C, K) row per cell, and label_rows gives each job the index of its
    label, or None for a zero label (default: job j uses label j).  The
    inputs are checked and log q is taken once per call, p/q and p/(q K)
    once per label; value is then a (J, C) array and grad_scores a
    (J, C, K) stack, each row bit for bit what the one-row call returns
    (with np.zeros(K) for a zero label).
    """
    s = np.asarray(sample_scores, dtype=np.float64)
    p = np.asarray(label_densities, dtype=np.float64)
    q = np.asarray(proposal_densities, dtype=np.float64)
    single = s.ndim == 1
    if single and label_rows is None:
        s, p, q = s[None, None], p[None, None], q[None]
    if not (s.ndim == p.ndim == 3 and q.ndim == 2 and s.shape[1:] == p.shape[1:] == q.shape):
        raise DimensionError(
            "sample scores and densities must be 1D arrays of equal length,"
            " or (jobs, cells, K), (labels, cells, K) and (cells, K) stacks"
        )
    rows = range(len(s)) if label_rows is None else list(label_rows)
    if len(rows) != len(s) or not all(i is None or 0 <= i < len(p) for i in rows):
        raise DimensionError(f"label_rows must give each of the {len(s)} jobs one of {len(p)} labels or None")
    if s.shape[2] < 1:
        raise DimensionError("at least one sample is required")
    if not (np.isfinite(s).all() and np.isfinite(p).all() and np.isfinite(q).all()):
        raise DomainError("sample inputs must be finite")
    if (q <= 0).any():
        raise DomainError("proposal densities must be strictly positive")
    if (p < 0).any():
        raise DomainError("label densities must be nonnegative")
    k = s.shape[2]
    e = s - np.log(q)
    m = np.maximum.reduce(e, axis=2)
    e -= m[:, :, None]
    np.exp(e, out=e)
    total = np.add.reduce(e, axis=2)
    weights = p / q
    label_grads = p / (q * k)
    e /= total[:, :, None]  # the gradient's first term, in place
    values = []
    for j, i in enumerate(rows):
        row = [m_r + math.log(total_r / k) for m_r, total_r in zip(m[j].tolist(), total[j].tolist())]
        # A zero label's terms, s @ 0 and p/(q K) = 0, leave the row as it is.
        if i is not None:
            row = [value - float(s_r @ w_r) / k for value, s_r, w_r in zip(row, s[j], weights[i])]
            e[j] -= label_grads[i]
        values.append(row)
    if single:
        return LossValueGrad(values[0][0], e[0, 0])
    return LossValueGrad(np.array(values), e)
