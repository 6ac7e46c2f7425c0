"""Online learning of a correlation kernel against grid label densities.

The model scores a feature map by cross-correlation, s_j = z_j * w, and w
minimizes

    L(w) = sum_j gamma_j * loss(s_j; labels_j) + (reg / 2) * ||w||^2

over a weighted memory of support samples.  The default per-sample loss is
the softmax cross entropy log(sum_k exp s_k) - sum_k p_k s_k, whose value
and gradient match the grid divergence loss with unit cell area.  The same
machinery optionally runs with squared-error, hinged squared-error or
delta-label losses so the objectives can be compared under identical
optimization; every variant is convex in the scores.

Minimization is steepest descent with an exact Newton step length: the
Hessian-vector quadratic form g'Hg has a closed form (a softmax variance
for the cross-entropy family, a masked sum of squares for the quadratic
family), so alpha = g'g / g'Hg needs only one extra correlation per sample
and no matrix assembly.  Because the quadratic model under-estimates how
fast cross-entropy curvature grows once the softmax saturates, the step is
halved until the objective does not increase; on a purely quadratic
objective the first trial already descends, so Newton exactness is kept.

Scores are linear in w, so the solver keeps each sample's scores s_j and
the curvature pass's v_j = z_j * g: a trial step scores as s_j - alpha * v_j
and backtracking trials cost no correlation.  An iteration unfolds each
sample twice (adjoint pass, curvature pass), whatever the line search does.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .gridmath import FeatureMap, Grid2D, Kernel2D, _columns, _correlate, _correlate_adjoint

__all__ = [
    "SupportSample",
    "OptimizerConfig",
    "TargetModel",
    "OptStep",
    "softmax_cross_entropy",
    "objective",
    "gradient",
    "hessian_quadratic_form",
    "optimize",
    "init_weights",
    "write_trace_csv",
]

LOSS_MODELS = ("l2", "rl2", "nll", "kl")


@dataclass(eq=False)
class SupportSample:
    """One training frame: features, its label density grid and a weight.

    center_rc optionally pins the annotated (row, col); it feeds the
    delta-label loss and replaces labels whose grid values underflowed to
    zero mass.  When absent, the label grid argmax is used instead.
    """

    features: FeatureMap
    label_grid: Grid2D
    weight: float = 1.0
    center_rc: tuple[float, float] | None = None

    def __post_init__(self):
        if (self.features.height, self.features.width) != (
            self.label_grid.height,
            self.label_grid.width,
        ):
            raise DimensionError("label grid shape must match the feature map spatial shape")
        if not (self.weight >= 0):
            raise DomainError(f"sample weight must be nonnegative, got {self.weight}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for the steepest-descent solver.

    regularization may be 0 for analysis of the data term alone, but
    optimize itself requires it positive (the step-length safeguard falls
    back to 1/regularization).
    """

    regularization: float = 1e-2
    iterations: int = 5
    step_length_floor: float = 1e-10
    loss_model: str = "kl"
    rl2_threshold: float = 0.05

    def __post_init__(self):
        if not (self.regularization >= 0):
            raise DomainError(f"regularization must be nonnegative, got {self.regularization}")
        if self.iterations < 0:
            raise DomainError(f"iterations must be nonnegative, got {self.iterations}")
        if not (self.step_length_floor > 0):
            raise DomainError(f"step_length_floor must be positive, got {self.step_length_floor}")
        if self.loss_model not in LOSS_MODELS:
            raise DomainError(f"unknown loss model {self.loss_model!r}; pick one of {LOSS_MODELS}")
        if not math.isfinite(self.rl2_threshold):
            raise DomainError(f"rl2_threshold must be finite, got {self.rl2_threshold!r}")


@dataclass(frozen=True, eq=False)
class TargetModel:
    """The learned correlation kernel."""

    weights: Kernel2D


@dataclass(frozen=True)
class OptStep:
    """Solver trace row; the final row records the end state with step 0."""

    iteration: int
    objective: float
    step_length: float
    grad_norm: float


def softmax_cross_entropy(scores: np.ndarray, p: np.ndarray) -> tuple[float, np.ndarray]:
    """Raw cross entropy log(sum exp s) - sum(p * s) with its score gradient.

    The gradient is softmax(s) - p, so its entries sum to 1 - p.sum().
    """
    s = np.asarray(scores, dtype=np.float64)
    pa = np.asarray(p, dtype=np.float64)
    if s.shape != pa.shape:
        raise DimensionError(f"score shape {s.shape} does not match label shape {pa.shape}")
    m = float(s.max())
    e = np.exp(s - m)
    total = e.sum()
    value = m + math.log(total) - float((pa * s).sum())
    return value, e / total - pa


def _one_hot(shape: tuple[int, int], center_rc) -> np.ndarray:
    h, w = shape
    i = min(max(int(round(center_rc[0])), 0), h - 1)
    j = min(max(int(round(center_rc[1])), 0), w - 1)
    out = np.zeros(shape)
    out[i, j] = 1.0
    return out


class _Prepared:
    """Per-sample state reused across solver iterations.

    The row unfold is C * kh times the size of the features, so it is
    rebuilt on demand and never kept: callers hold at most one at a time.
    """

    def __init__(self, sample: SupportSample, cfg: OptimizerConfig, kernel_shape):
        kh, kw = kernel_shape
        z = sample.features
        if kh > z.height or kw > z.width:
            raise DimensionError(f"kernel {kh}x{kw} does not fit sample {z.height}x{z.width}")
        self.z = z.values
        self.kernel_shape = (z.channels, kh, kw)
        self.gamma = float(sample.weight)
        lbl = sample.label_grid.values
        center = sample.center_rc
        if center is None:
            flat = int(np.argmax(lbl))
            center = (flat // lbl.shape[1], flat % lbl.shape[1])
        self.kind = "ce" if cfg.loss_model in ("kl", "nll") else cfg.loss_model
        if cfg.loss_model == "kl":
            mass = lbl.sum()
            # An extremely narrow label can underflow every cell; fall back
            # to a delta at the annotated cell, which is its exact limit.
            self.p = lbl / mass if mass > 1e-150 else _one_hot(lbl.shape, center)
        elif cfg.loss_model == "nll":
            self.p = _one_hot(lbl.shape, center)
        else:
            peak = lbl.max()
            self.a = lbl / peak if peak > 1e-150 else _one_hot(lbl.shape, center)
            self.near = self.a > cfg.rl2_threshold

    def columns(self) -> np.ndarray:
        return _columns(self.z, self.kernel_shape[1], self.kernel_shape[2])

    def scores(self, w: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
        if cols is None:
            cols = self.columns()
        return _correlate(cols, w, self.z.shape[1:])

    def adjoint(self, cols: np.ndarray, u: np.ndarray) -> np.ndarray:
        return _correlate_adjoint(cols, u, self.kernel_shape)

    def _residual(self, s: np.ndarray) -> np.ndarray:
        if self.kind == "l2":
            return s - self.a
        return np.where(self.near, s - self.a, np.maximum(s, 0.0))

    def value(self, s: np.ndarray) -> float:
        """Loss value alone, as value_grad computes it."""
        if self.kind == "ce":
            m = float(s.max())
            return m + math.log(np.exp(s - m).sum()) - float((self.p * s).sum())
        r = self._residual(s)
        return float((r * r).sum())

    def value_grad(self, s: np.ndarray) -> tuple[float, np.ndarray, np.ndarray | None]:
        """Loss value, gradient in s, and cached curvature state."""
        if self.kind == "ce":
            value, grad = softmax_cross_entropy(s, self.p)
            return value, grad, grad + self.p  # softmax probabilities
        r = self._residual(s)
        if self.kind == "l2":
            return float((r * r).sum()), 2.0 * r, None
        mask = np.where(self.near, 1.0, (s > 0).astype(np.float64))
        return float((r * r).sum()), 2.0 * r, mask

    def curvature(self, state: np.ndarray | None, v: np.ndarray) -> float:
        """Quadratic form v' (d2 loss / ds2) v for this sample."""
        if self.kind == "ce":
            phat = state
            pv = float((phat * v).sum())
            return float((phat * v * v).sum()) - pv * pv
        if self.kind == "l2":
            return 2.0 * float((v * v).sum())
        return 2.0 * float((state * v * v).sum())


def _prepare(support, cfg: OptimizerConfig, kernel: Kernel2D) -> list[_Prepared]:
    prepped = []
    for sample in support:
        if sample.features.channels != kernel.channels:
            raise DimensionError(
                f"sample has {sample.features.channels} channels, kernel {kernel.channels}"
            )
        prepped.append(_Prepared(sample, cfg, (kernel.height, kernel.width)))
    return prepped


def objective(model: TargetModel, support, cfg: OptimizerConfig) -> float:
    """Weighted sample losses plus the ridge term (reg / 2) * ||w||^2."""
    w = model.weights.values
    total = 0.5 * cfg.regularization * float((w * w).sum())
    for prep in _prepare(support, cfg, model.weights):
        value, _, _ = prep.value_grad(prep.scores(w))
        total += prep.gamma * value
    return total


def gradient(model: TargetModel, support, cfg: OptimizerConfig) -> Kernel2D:
    """Exact objective gradient, pulled back to kernel space per sample."""
    w = model.weights.values
    g = cfg.regularization * w.copy()
    for prep in _prepare(support, cfg, model.weights):
        cols = prep.columns()
        _, grad_s, _ = prep.value_grad(prep.scores(w, cols))
        g += prep.gamma * prep.adjoint(cols, grad_s)
        del cols
    return Kernel2D(g)


def hessian_quadratic_form(
    model: TargetModel, direction: Kernel2D, support, cfg: OptimizerConfig
) -> float:
    """g' H g at the current weights, without assembling H.

    Each sample contributes gamma_j times the curvature of its loss along
    v_j = z_j * g; the ridge adds reg * ||g||^2.  The result is
    nonnegative whenever reg >= 0 because every per-sample loss is convex.
    """
    if direction.values.shape != model.weights.values.shape:
        raise DimensionError("direction shape must match the model weights")
    w = model.weights.values
    g = direction.values
    total = cfg.regularization * float((g * g).sum())
    for prep in _prepare(support, cfg, model.weights):
        cols = prep.columns()
        _, _, state = prep.value_grad(prep.scores(w, cols))
        total += prep.gamma * prep.curvature(state, prep.scores(g, cols))
        del cols
    return total


def optimize(model: TargetModel, support, cfg: OptimizerConfig) -> tuple[TargetModel, list[OptStep]]:
    """Run cfg.iterations steepest-descent steps with Newton step lengths.

    Each iteration evaluates the gradient g and steps w -= alpha * g with
    alpha = g'g / g'Hg.  If the curvature ever drops below
    step_length_floor * g'g the step falls back to 1/regularization, the
    exact minimizing step of the ridge term alone.  The step is then halved
    until the objective does not increase (curvature can grow along the
    ray, so the quadratic-model step may overshoot; a failed search leaves
    the weights in place with step_length 0).  Trial objectives come from
    the kept scores, s_j - alpha * v_j, and an accepted trial's scores
    carry into the next pass.  Returns the updated model and a trace with
    one row per iteration plus a final row for the end state (step_length
    0 by convention).
    """
    if not (cfg.regularization > 0):
        raise DomainError("optimize requires positive regularization")
    w = model.weights.values.copy()
    prepped = _prepare(support, cfg, model.weights)
    lam = cfg.regularization
    trace: list[OptStep] = []
    scores: list[np.ndarray | None] = [None] * len(prepped)

    def _pass(wcur):
        obj = 0.5 * lam * float((wcur * wcur).sum())
        grad = lam * wcur.copy()
        states = []
        for j, prep in enumerate(prepped):
            # One unfold per sample serves the adjoint (and the scores on
            # the first pass); deleting it before the next sample's is
            # built keeps a single one alive.
            cols = prep.columns()
            if scores[j] is None:
                scores[j] = prep.scores(wcur, cols)
            value, grad_s, state = prep.value_grad(scores[j])
            obj += prep.gamma * value
            grad += prep.gamma * prep.adjoint(cols, grad_s)
            states.append(state)
            del cols
        return obj, grad, states

    for it in range(cfg.iterations):
        obj, g, states = _pass(w)
        if not math.isfinite(obj):
            raise NumericError(f"non-finite objective at iteration {it}")
        gg = float((g * g).sum())
        gnorm = math.sqrt(gg)
        if gg == 0.0:
            trace.append(OptStep(it, obj, 0.0, 0.0))
            continue
        denom = lam * gg
        dirs = []
        for prep, state in zip(prepped, states):
            v = prep.scores(g)
            denom += prep.gamma * prep.curvature(state, v)
            dirs.append(v)
        alpha = gg / denom if denom >= cfg.step_length_floor * gg else 1.0 / lam
        accepted = 0.0
        for _ in range(40):
            cand = w - alpha * g
            cand_scores = [s - alpha * v for s, v in zip(scores, dirs)]
            cand_obj = 0.5 * lam * float((cand * cand).sum())
            for prep, s in zip(prepped, cand_scores):
                cand_obj += prep.gamma * prep.value(s)
            if math.isfinite(cand_obj) and cand_obj <= obj:
                w, scores = cand, cand_scores
                accepted = alpha
                break
            alpha *= 0.5
        trace.append(OptStep(it, obj, accepted, gnorm))

    obj, g, _ = _pass(w)
    if not math.isfinite(obj):
        raise NumericError(f"non-finite objective at iteration {cfg.iterations}")
    trace.append(OptStep(cfg.iterations, obj, 0.0, math.sqrt(float((g * g).sum()))))
    return TargetModel(Kernel2D(w)), trace


def init_weights(support, kernel_shape: tuple[int, int]) -> TargetModel:
    """Closed-form warm start: weighted label back-projection.

    w0 = c * sum_j gamma_j * adjoint(z_j, p_j) with p_j the mass-normalized
    label grid; c scales the peak response on the first sample to 1 and
    falls back to 1 when that peak is not positive (all-zero features).
    """
    support = list(support)
    if not support:
        raise DomainError("init_weights needs at least one support sample")
    kh, kw = kernel_shape
    cfg = OptimizerConfig(loss_model="kl")
    prepped = [_Prepared(s, cfg, (kh, kw)) for s in support]
    channels = support[0].features.channels
    if any(s.features.channels != channels for s in support):
        raise DimensionError("support samples must share a channel count")
    w = np.zeros((channels, kh, kw))
    for prep in prepped:
        w += prep.gamma * prep.adjoint(prep.columns(), prep.p)
    peak = float(prepped[0].scores(w).max())
    c = 1.0 / peak if peak > 1e-150 else 1.0
    return TargetModel(Kernel2D(c * w))


def write_trace_csv(trace, path):
    """Dump a solver trace as CSV (iteration, objective, step_length, grad_norm)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["iteration", "objective", "step_length", "grad_norm"])
        for row in trace:
            out.writerow([row.iteration, repr(row.objective), repr(row.step_length), repr(row.grad_norm)])
