"""Box parametrization, the quadratic box scorer, and its sample-based training.

Boxes are encoded as y = (dx / w0, dy / h0, log w, log h): the center
offset from a reference box of size (w0, h0), normally the current target
estimate, over that size, and the log size, so a fixed step in y moves
small and large boxes by a comparable relative amount.  box_encode encodes
a box against itself, as the four floats (0, 0, log w0, log h0); the
tracker decodes a refined y inline.  The scorer assigns a differentiable
scalar score to encoded boxes, s(y) = -||y - mu||^2 / (2 tau^2) with a
trainable center mu and a fixed width tau; its closed form lets training
and refinement be checked against brute-force oracles.

train_box_scorer fits scorers by drawing proposal samples around the
annotation and following the Monte Carlo divergence gradient, or one of
the squared-error / hinged / delta-label objectives for side-by-side
comparisons.  Training happens in the target's own frame: the annotation
is the origin, the unit box (0, 0, 1, 1) once decoded, and every draw and
center is an offset from it, so every annotation poses the same problem
and only the proposal streams tell cells apart.  Every cell shares one
list of jobs, each a (loss model, label width, scorer width) triple, and
brings its own proposal stream; every center starts at the origin.  The
cells train in blocks that hold at most _GROUP_DRAWS draws per batch (at
least one cell), each block in lockstep.  Each draw batch of a block is
one stacked problem over all its (job x cell) rows.  Once per cell and
draw batch: the draws and the cell's score rows.  Once per block and draw
batch: the squared norms of the draws, the proposal density and one
label density per kl width on those norms, the overlaps, one kl_mc_loss
call over the kl and nll rows, one exp over the l2 and rl2 rows and one
step of the (cells x jobs x 4) stack of centers.  The overlaps come from
the block's own rows of draws, by iou_xywh's arithmetic against the unit box.
Once per row: the dot products of its loss value and parameter gradient,
and the nll annotation term.  Every center ends exactly as it would if
its job were trained alone in its cell from an equally seeded generator.

refine_box ascends the score from a start box given as 4 Python floats.
It reads mu and tau once and steps on 4 local Python floats along the
closed-form gradient -(y - mu) / tau^2, summing its squares in
value_batch's order, so each iterate is bit for bit the one a loop over
NumPy arrays would reach, at about a third of its cost.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .gridmath import _as_float_array
from .labels import MixtureProposal, gaussian_density, gaussian_normalizer, proposal_density, proposal_sample
from .losses import DENSITY_MODELS, LOSS_MODELS, kl_mc_loss

__all__ = [
    "box_encode",
    "QuadraticScorer",
    "train_box_scorer",
    "refine_box",
]

BOX_DIM = 4  # (cx/w0, cy/h0, log w, log h)


def box_encode(w: float, h: float) -> list[float]:
    """Encode a w x h box at the origin against its own size: [0.0, 0.0, log w, log h]."""
    w, h = float(w), float(h)
    if not (0 < w < math.inf and 0 < h < math.inf):
        raise DomainError(f"box size must be positive and finite, got {(w, h)}")
    return [0.0, 0.0, math.log(w), math.log(h)]


def _check_box_batch(ys) -> np.ndarray:
    arr = np.asarray(ys, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise DimensionError(f"expected an (N, 4) box batch, got shape {arr.shape}")
    return arr


def _score(d0: float, d1: float, d2: float, d3: float, scale: float) -> float:
    """The four squares summed left to right, as value_batch's row sums do, over scale."""
    return (((d0 * d0 + d1 * d1) + d2 * d2) + d3 * d3) / scale


class QuadraticScorer:
    """s(y) = -||y - mu||^2 / (2 tau^2); mu trains, tau is fixed."""

    def __init__(self, mu, tau: float):
        if not (tau > 0):
            raise DomainError(f"tau must be positive, got {tau}")
        if not (0.0 < float(tau) * float(tau) < math.inf):
            raise DomainError(f"tau must have a finite positive square, got {tau}")
        self.mu = _as_float_array(mu, 1, "scorer center")
        if self.mu.size != 4:
            raise DimensionError("scorer center must have 4 entries")
        self.tau = float(tau)

    def value_batch(self, ys):
        d = _check_box_batch(ys) - self.mu
        d *= d
        return d.sum(axis=1) / (-2.0 * self.tau**2)


def _score_rows(centers: np.ndarray, t2: np.ndarray, ys: np.ndarray, out: np.ndarray):
    """Scores of J scorers at one (K, 4) batch into the (J, K) rows out.

    The scorers have (J, 4) centers and J squared widths t2; row j equals
    the value_batch of the scorer centered at centers[j].
    """
    # One (J, 4, K) difference array; the score sums run over its 4-long
    # axis, term by term like value_batch's.
    d = ys.T[None, :, :] - centers[:, :, None]
    d *= d
    np.divide(d.sum(axis=1), (-2.0 * t2)[:, None], out=out)


def _grad_params_bases(centers: np.ndarray, t2: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (J, 4, K) stack of (ys - centers[j]).T / t2[j]; row j, transposed, is the scores' gradient in its center."""
    d = ys.T[None, :, :] - centers[:, :, None]
    d /= t2[:, None, None]
    return d


def _unit_overlaps(offsets: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The (cells, K) overlaps of a (cells, 4, K) stack of draws with the annotation, the unit box.

    A draw decodes to its center offsets and the exp of its log sizes, which
    go into the (cells, 2, K) buffer sizes.  The arithmetic is iou_xywh's
    against (0, 0, 1, 1), op for op, so every overlap, and the DomainError
    for a size that underflows to 0, is bit for bit iou_xywh's.
    """
    centers = offsets[:, :2]
    np.exp(offsets[:, 2:], out=sizes)
    if (sizes <= 0).any():
        raise DomainError("box width and height must be positive")
    union = sizes[:, 0] * sizes[:, 1]
    sizes *= 0.5
    lo = centers - sizes
    np.maximum(lo, -0.5, out=lo)
    sizes += centers
    np.minimum(sizes, 0.5, out=sizes)
    sizes -= lo
    np.maximum(sizes, 0.0, out=sizes)
    out = sizes[:, 0] * sizes[:, 1]
    union += 1.0
    union -= out
    out /= union
    return out


# Proposal draws per batch that one training block holds across its cells:
# 8 cells at the default bb_samples, at least one cell.  A block trains as
# one stacked problem, which shares each draw batch's fixed per-call cost
# across its cells.  The block's draws, densities and score rows are held
# together (about 1.5 MB for 8 cells at 768 draws), so larger blocks trade
# peak memory for a smaller further gain.
_GROUP_DRAWS = 8 * 768
# Row order of the per-batch score stack: the divergence rows (kl, nll) go
# through one kl_mc_loss call, the squared-error rows (l2, rl2) share one exp.
_ROW_ORDER = ("kl", "nll", "l2", "rl2")
# The rl2 box loss hinges the draws whose overlap with the annotation is at
# most this, so far from the box only a confidence above zero costs.  It is
# the box stage's own threshold: TrackerConfig.rl2_threshold is the stage-1
# label threshold of the center solver and does not reach here.
_RL2_OVERLAP = 0.05


def train_box_scorer(
    jobs,
    rngs,
    proposal: MixtureProposal,
    samples_per_annotation: int,
    *,
    learning_rate: float,
    epochs: int,
    lr_decay: float,
) -> np.ndarray:
    """Fit scorer centers, as offsets from the annotation, with stochastic first-order updates.

    jobs is a sequence of (loss_model, sigma_bb, tau) triples that every
    cell shares, and rngs holds one generator per cell.  Training runs in
    the target's own frame, so every center starts at the origin, the
    annotation.  Per epoch, each cell draws samples_per_annotation offsets
    from `proposal` on its own rng, evaluates every job's loss at those
    draws and steps the job's center along the gradient of a quadratic
    scorer of width tau, at the rate learning_rate / (1 + lr_decay * t) in
    epoch t.  The schedule is not checked here: learning_rate must be
    positive and finite, epochs at least 1 and lr_decay nonnegative and
    finite, as the TrackerConfig fields bb_learning_rate, bb_epochs and
    bb_lr_decay are.

    The cells train block by block, in order, as the module docstring lays
    out; a block's draws, densities and score rows are freed before the
    next block starts, so peak memory does not grow with the cell count.
    Each row is computed in the order a job alone would compute it, and a
    row's updates read only its own center and its cell's draws, so every
    center ends bit for bit where a run of its cell alone, with that job
    alone, on an equally seeded generator ends.

    Returns the (cells x jobs x 4) final centers in job order, each the
    average of its iterates over the last half of the epochs, which removes
    most of the stationary sampling noise.  DimensionError or DomainError
    for bad jobs, cells or samples, before anything is drawn; NumericError
    once a job's scores, loss or stepped center are not finite; DomainError
    if an average is not.
    """
    if not jobs:
        raise DimensionError("train_box_scorer needs at least one job")
    if not rngs:
        raise DimensionError("train_box_scorer needs at least one cell")
    if samples_per_annotation < 2:
        raise DomainError("need at least 2 samples per annotation")
    for loss_model, sigma_bb, tau in jobs:
        if loss_model not in LOSS_MODELS:
            raise DomainError(f"unknown loss model {loss_model!r}; pick one of {LOSS_MODELS}")
        if not (sigma_bb > 0):
            raise DomainError(f"sigma_bb must be positive, got {sigma_bb}")
        gaussian_normalizer(sigma_bb, BOX_DIM)
        if not (tau > 0 and 0.0 < float(tau) * float(tau) < math.inf):
            raise DomainError(f"tau must have a finite positive square, got {tau}")
    k = int(samples_per_annotation)
    size = max(1, _GROUP_DRAWS // k)
    blocks = (rngs[i : i + size] for i in range(0, len(rngs), size))
    return np.concatenate([_train_block(jobs, block, proposal, k, learning_rate, epochs, lr_decay) for block in blocks])


# A diverging run overflows its scores or steps to inf or nan.  The
# finiteness checks turn that into one NumericError; NumPy's warnings would
# only print the same failure again.
@np.errstate(over="ignore", invalid="ignore")
def _train_block(
    jobs, rngs, proposal: MixtureProposal, k: int, learning_rate: float, epochs: int, lr_decay: float
) -> np.ndarray:
    """train_box_scorer on one block of cells, as one stacked problem per draw batch."""
    n_cells = len(rngs)
    order = sorted(range(len(jobs)), key=lambda i: _ROW_ORDER.index(jobs[i][0]))
    models = [jobs[i][0] for i in order]
    n_jobs = len(models)
    n_div = sum(model in DENSITY_MODELS for model in models)
    n_l2 = models.count("l2")
    t2 = np.array([float(jobs[i][2]) ** 2 for i in order])
    # Only the kl jobs' labels are evaluated at the draws.  The nll rows get
    # a zero label: the delta label has no density at the draws.
    kl_sigmas = list(dict.fromkeys(jobs[i][1] for i in order[:n_div] if jobs[i][0] == "kl"))
    label_rows = [None if model == "nll" else kl_sigmas.index(jobs[i][1]) for i, model in zip(order, models[:n_div])]
    centers = np.zeros((n_cells, n_jobs, BOX_DIM))
    scores = np.empty((n_jobs, n_cells, k))
    # Every cell's draws as one (cells, 4, K) stack, and their decoded sizes.
    offsets = np.empty((n_cells, BOX_DIM, k))
    draws = offsets.transpose(0, 2, 1)
    if n_div < n_jobs:
        sizes = np.empty((n_cells, 2, k))
    label_dens = np.empty((len(kl_sigmas), n_cells, k))
    grads = np.empty_like(centers)
    tail_start = epochs // 2
    tail = np.zeros_like(centers)
    for epoch in range(epochs):
        lr = learning_rate / (1.0 + lr_decay * epoch)
        for c, rng in enumerate(rngs):
            offsets[c] = proposal_sample(proposal, rng, size=k).T
            _score_rows(centers[c], t2, draws[c], scores[:, c])
        if n_div:
            # Label and proposal both sit at the origin: one squared norm per draw.
            d2 = np.square(draws).sum(axis=-1)
            proposal_dens = proposal_density(proposal, d2)
            for i, sigma in enumerate(kl_sigmas):
                label_dens[i] = gaussian_density(d2, sigma, BOX_DIM)
            try:
                lvg = kl_mc_loss(scores[:n_div], label_dens, proposal_dens, label_rows)
            except DomainError:
                # Scores that diverged are a training failure, not bad input.
                finite = np.isfinite(scores[:n_div]).all(axis=2).all(axis=1)
                if finite.all():
                    raise
                raise NumericError(f"non-finite {models[finite.argmin()]} training loss at epoch {epoch}") from None
            div_values = lvg.value.tolist()
        if n_div < n_jobs:
            # Squared-error families regress the confidence exp(s) — range
            # (0, 1], same argmax as s — onto the overlap with the
            # annotation; regressing the raw score of a quadratic field onto
            # [0, 1] targets is hopelessly scaled (score ~ -d^2/(2 tau^2) at
            # proposal distance d).
            overlaps = _unit_overlaps(offsets, sizes)
            conf = np.exp(scores[n_div:])
            resid = conf - overlaps
            if n_div + n_l2 < n_jobs:
                # rl2 hinges the draws far from the annotation: max(0, c) == c.
                np.copyto(resid[n_l2:], conf[n_l2:], where=~(overlaps > _RL2_OVERLAP))
            weighted = resid * conf
        # A cell's gradient bases are recomputed here rather than held for the
        # whole block, which keeps its memory to a few score-sized rows per cell.
        for c in range(n_cells):
            bases = _grad_params_bases(centers[c], t2, draws[c])
            for row in range(n_jobs):
                if row < n_div:
                    value, grad = div_values[row][c], lvg.grad_scores[row, c] @ bases[row].T
                    if models[row] == "nll":
                        # The delta-label loss is the divergence with zero label
                        # densities at the draws, minus the score at the
                        # annotation, the origin.
                        mu = centers[c, row]
                        value -= _score(*mu.tolist(), -2.0 * t2[row])
                        grad += mu / t2[row]
                else:
                    res, w = resid[row - n_div, c], weighted[row - n_div, c]
                    value, grad = float(res @ res) / k, (2.0 / k) * (w @ bases[row].T)
                if not math.isfinite(value):
                    raise NumericError(f"non-finite {models[row]} training loss at epoch {epoch}")
                grads[c, row] = grad
        # A non-finite gradient or a step that overflows leaves non-finite
        # centers.
        centers = centers - lr * grads
        if not np.isfinite(centers).all():
            row = int(np.isfinite(centers).all(axis=2).all(axis=0).argmin())
            raise NumericError(f"non-finite {models[row]} training loss at epoch {epoch}")
        if epoch >= tail_start:
            tail += centers
    return _as_float_array((tail / (epochs - tail_start))[:, np.argsort(order)], 3, "scorer center")


def refine_box(scorer: QuadraticScorer, y: list[float], step: float, steps: int, tol: float) -> tuple[list[float], int]:
    """Gradient-ascend the score from the box y, given as 4 Python floats.

    Each step moves y by step * g, with g = -(y - mu) / tau^2 the score's
    gradient in y.  Ascent stops after steps steps, once a move is smaller
    than tol in every coordinate, or at a gradient that is not finite.
    Returns the best iterate seen (the start counts, so the output never
    scores below y) and the number of gradients taken.  Scores go through
    _score, which sums in value_batch's order, so every iterate is bit for
    bit the array loop's.  step and tol must be positive and steps
    nonnegative, as the TrackerConfig fields refine_step, refine_tol and
    refine_steps are; they are not checked here.
    """
    m0, m1, m2, m3 = scorer.mu.tolist()
    t2 = scorer.tau**2
    scale = -2.0 * t2
    y0, y1, y2, y3 = y
    d0, d1, d2, d3 = y0 - m0, y1 - m1, y2 - m2, y3 - m3
    best, best_s = y, _score(d0, d1, d2, d3, scale)
    isfinite = math.isfinite
    for taken in range(1, steps + 1):
        g0, g1, g2, g3 = -d0 / t2, -d1 / t2, -d2 / t2, -d3 / t2
        if not (isfinite(g0) and isfinite(g1) and isfinite(g2) and isfinite(g3)):
            return best, taken
        s0, s1, s2, s3 = step * g0, step * g1, step * g2, step * g3
        y0, y1, y2, y3 = y0 + s0, y1 + s1, y2 + s2, y3 + s3
        d0, d1, d2, d3 = y0 - m0, y1 - m1, y2 - m2, y3 - m3
        s = _score(d0, d1, d2, d3, scale)
        if isfinite(s) and s > best_s:
            best, best_s = [y0, y1, y2, y3], s
        if max(abs(s0), abs(s1), abs(s2), abs(s3)) < tol:
            return best, taken
    return best, steps
