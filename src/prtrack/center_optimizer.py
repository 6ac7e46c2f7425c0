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
and backtracking trials cost no correlation.

The support set is one problem over (N, H * W) stacks: row j of the label,
score, direction and work stacks is sample j's grid, flattened, so every
sample of a support must share one grid shape.  Each loss family evaluates
its value, score gradient and curvature over a whole stack at once.  It
sums each row as NumPy sums a lone contiguous grid and accumulates the
samples in order, so the stacked results equal per-sample ones bit for bit.
The two families, _CrossEntropy (kl, nll) and _Squared (l2, rl2), live in
the losses module, whose grid losses are their one-row calls.

Every correlation of a solve goes through one gridmath workspace, which
holds the unfold of one sample at a time, and each pass arranges its
kernel once for all samples.  Each solve starts fresh, because carried
scores differ from a fresh correlation in the last bits: its first pass
scores every sample at the given kernel, and one unfold serves both a
sample's scores and its adjoint.  Later passes use the carried scores, so
an iteration unfolds each sample at most twice, for its adjoint and for its
curvature direction, whatever the line search does.  The solve remembers
which sample the workspace holds, and each sweep over the samples starts on
it, so a sweep that follows another unfolds one sample fewer.  Rows are
independent and the gradient is summed in index order whatever the sweep
order, so the order does not move a bit.  A k-iteration call that steps
every iteration thus builds 2k(N - 1) + 1 unfolds on N samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .gridmath import FeatureMap, Grid2D, Kernel2D, _Workspace
from .losses import DENSITY_MODELS, LOSS_MODELS, _CrossEntropy, _Squared

__all__ = [
    "SupportSample",
    "OptimizerConfig",
    "TargetModel",
    "OptStep",
    "objective",
    "gradient",
    "hessian_quadratic_form",
    "optimize",
    "init_weights",
]

# Below this fraction of g'g the curvature g'Hg is treated as flat (see optimize).
STEP_LENGTH_FLOOR = 1e-10


@dataclass(eq=False)
class SupportSample:
    """One training frame: features, its label density grid and a weight.

    center_rc optionally pins the annotated (row, col); it feeds the
    delta-label loss and replaces labels whose grid values underflowed to
    zero mass.  When absent, the label grid argmax is used instead.  A
    sample carries no solver state: every solve scores it afresh.
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
    loss_model: str = "kl"
    rl2_threshold: float = 0.05

    def __post_init__(self):
        if not (self.regularization >= 0):
            raise DomainError(f"regularization must be nonnegative, got {self.regularization}")
        if self.iterations < 0:
            raise DomainError(f"iterations must be nonnegative, got {self.iterations}")
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


def _label(sample: SupportSample, loss_model: str, out: np.ndarray):
    """Write the sample's loss target into the (H, W) grid out."""
    lbl = sample.label_grid.values
    # An extremely narrow label can underflow every cell; fall back to a
    # delta at the annotated cell, which is its exact limit.
    if loss_model == "kl":
        mass = lbl.sum()
        if mass > 1e-150:
            np.divide(lbl, mass, out=out)
            return
    elif loss_model != "nll":
        peak = lbl.max()
        if peak > 1e-150:
            np.divide(lbl, peak, out=out)
            return
    center = sample.center_rc
    if center is None:
        center = np.unravel_index(np.argmax(lbl), lbl.shape)
    h, w = lbl.shape
    out.fill(0.0)
    out[min(max(int(round(center[0])), 0), h - 1), min(max(int(round(center[1])), 0), w - 1)] = 1.0


class _Problem:
    """A support set and its loss as (N, H * W) stacks, row j for sample j.

    Besides the loss's label stack it holds three: the scores, and two work
    stacks the loss writes its score gradients and curvature states into.
    The line search reuses those two for its trial scores and scratch.
    """

    def __init__(self, support, cfg: OptimizerConfig, kernel_shape):
        samples = list(support)
        c, kh, kw = kernel_shape
        grids = {sample.label_grid.values.shape for sample in samples}
        if len(grids) > 1:
            raise DimensionError(f"support samples must share one grid shape, got {sorted(grids)}")
        h, w = grids.pop() if grids else (kh, kw)
        for sample in samples:
            if sample.features.channels != c:
                raise DimensionError(f"sample has {sample.features.channels} channels, kernel {c}")
        if kh > h or kw > w:
            raise DimensionError(f"kernel {kh}x{kw} does not fit sample {h}x{w}")
        self.samples = samples
        self.lam = cfg.regularization
        self.gamma = [float(sample.weight) for sample in samples]
        labels = np.empty((len(samples), h * w))
        for sample, row in zip(samples, labels):
            _label(sample, cfg.loss_model, row.reshape(h, w))
        if cfg.loss_model in DENSITY_MODELS:
            self.loss = _CrossEntropy(labels)
        else:
            self.loss = _Squared(labels, None if cfg.loss_model == "l2" else labels <= cfg.rl2_threshold)
        self.scores = np.empty_like(labels)
        self.work = np.empty_like(labels)
        self.state = np.empty_like(labels)
        self.ws = _Workspace((c, h, w), (c, kh, kw))
        self.held = -1  # the sample whose unfold the workspace holds

    def unfold(self, j: int):
        if j != self.held:
            self.ws.unfold(self.samples[j].features.values)
            self.held = j

    def sweep(self, rows) -> list[int]:
        """The ascending rows, rotated to start at the held sample or the first one after it."""
        rows = list(rows)
        return [j for j in rows if j >= self.held] + [j for j in rows if j < self.held]

    def correlate(self, *pairs):
        """Fill row j of each (kernel, stack) pair with sample j's scores; one unfold per sample."""
        pairs = [(self.ws.arrange(kernel), stack) for kernel, stack in pairs]
        for j in self.sweep(range(len(self.samples))):
            self.unfold(j)
            for arranged, stack in pairs:
                self.ws.correlate(arranged, stack[j])

    def evaluate(self, w: np.ndarray, scored: bool, pulls=None) -> tuple[float, np.ndarray, list]:
        """Objective and gradient at w, and each sample's pullback.

        With scored, the score stack holds the scores at w already, and
        pulls, when given, each sample's pullback at w.  Otherwise each row
        is scored and evaluated alone, so that its unfold also serves its
        adjoint.  The work and state stacks get the score gradients and
        curvature states.
        """
        n = len(self.samples)
        if scored:
            values = self.loss.value_grad(self.scores, self.work, self.state, slice(None))
        else:
            values, pulls = [0.0] * n, None
            arranged = self.ws.arrange(w)
        if pulls is None:
            pulls = [None] * n
            for j in self.sweep(range(n)):
                self.unfold(j)
                if not scored:
                    self.ws.correlate(arranged, self.scores[j])
                    (values[j],) = self.loss.value_grad(self.scores, self.work, self.state, slice(j, j + 1))
                pulls[j] = self.ws.adjoint(self.work[j])
        obj = 0.5 * self.lam * float((w * w).sum())
        grad = self.lam * w.copy()
        for gamma, value, pull in zip(self.gamma, values, pulls):
            obj += gamma * value
            grad += gamma * pull
        return obj, grad, pulls

    def curvature(self, g: np.ndarray, directions: np.ndarray) -> float:
        """g'Hg from the curvature states and the directions v_j = z_j * g."""
        total = self.lam * float((g * g).sum())
        for gamma, curv in zip(self.gamma, self.loss.curvature(self.state, directions, self.work)):
            total += gamma * curv
        return total

    def trial(self, directions: np.ndarray, alpha: float) -> list[float]:
        """Losses at the trial scores s - alpha * v, which go to the work stack."""
        trial = np.multiply(directions, alpha, out=self.work)
        np.subtract(self.scores, trial, out=trial)
        return self.loss.value(trial, self.state)

    def accept(self):
        """Make the last trial's scores the current ones."""
        self.scores, self.work = self.work, self.scores


def objective(model: TargetModel, support, cfg: OptimizerConfig) -> float:
    """Weighted sample losses plus the ridge term (reg / 2) * ||w||^2."""
    w = model.weights.values
    return _Problem(support, cfg, w.shape).evaluate(w, False)[0]


def gradient(model: TargetModel, support, cfg: OptimizerConfig) -> Kernel2D:
    """Exact objective gradient, pulled back to kernel space per sample."""
    w = model.weights.values
    return Kernel2D(_Problem(support, cfg, w.shape).evaluate(w, False)[1])


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
    prob = _Problem(support, cfg, w.shape)
    directions = np.empty_like(prob.scores)
    prob.correlate((w, prob.scores), (g, directions))
    prob.loss.value_grad(prob.scores, prob.work, prob.state, slice(None))
    return prob.curvature(g, directions)


def optimize(model: TargetModel, support, cfg: OptimizerConfig) -> tuple[TargetModel, list[OptStep]]:
    """Run cfg.iterations steepest-descent steps with Newton step lengths.

    Each iteration evaluates the gradient g and steps w -= alpha * g with
    alpha = g'g / g'Hg.  If the curvature ever drops below
    STEP_LENGTH_FLOOR * g'g (1e-10 g'g) the step falls back to
    1/regularization, the exact minimizing step of the ridge term alone.
    The step is then halved until the objective does not increase
    (curvature can grow along the ray, so the quadratic-model step may
    overshoot; a failed search leaves the weights in place with
    step_length 0).  The first pass scores every sample at the given
    kernel; trial objectives come from the carried scores,
    s_j - alpha * v_j, and an accepted trial's scores carry into the next
    pass.  Returns the updated model and a trace with one row per
    iteration plus a final row for the end state (step_length 0 by
    convention): the objective at the returned kernel, which is the last
    accepted trial's, and the gradient norm there, math.nan when the last
    step moved the kernel, since no pass scores the kernel a step lands on.
    """
    if not (cfg.regularization > 0):
        raise DomainError("optimize requires positive regularization")
    w = model.weights.values.copy()
    prob = _Problem(support, cfg, w.shape)
    lam = cfg.regularization
    trace: list[OptStep] = []
    pulls = None
    for it in range(max(cfg.iterations, 1)):
        obj, g, pulls = prob.evaluate(w, it > 0, pulls)
        if not math.isfinite(obj):
            raise NumericError(f"non-finite objective at iteration {it}")
        gg = float((g * g).sum())
        gnorm = math.sqrt(gg)
        if it == cfg.iterations:
            break  # no iterations: the one pass only gives the final row
        if gg == 0.0:
            trace.append(OptStep(it, obj, 0.0, 0.0))
            continue
        directions = np.empty_like(prob.scores)
        prob.correlate((g, directions))
        denom = prob.curvature(g, directions)
        alpha = gg / denom if denom >= STEP_LENGTH_FLOOR * gg else 1.0 / lam
        accepted = 0.0
        for _ in range(40):
            cand = w - alpha * g
            cand_obj = 0.5 * lam * float((cand * cand).sum())
            for gamma, value in zip(prob.gamma, prob.trial(directions, alpha)):
                cand_obj += gamma * value
            if math.isfinite(cand_obj) and cand_obj <= obj:
                w = cand
                prob.accept()
                pulls = None
                accepted = alpha
                break
            alpha *= 0.5
        del directions
        trace.append(OptStep(it, obj, accepted, gnorm))
        if accepted:
            obj, gnorm = cand_obj, math.nan
    trace.append(OptStep(cfg.iterations, obj, 0.0, gnorm))
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
    channels = support[0].features.channels
    prob = _Problem(support, OptimizerConfig(loss_model="kl"), (channels, kh, kw))
    w = np.zeros((channels, kh, kw))
    for j, (gamma, label) in enumerate(zip(prob.gamma, prob.loss.labels)):
        prob.unfold(j)
        w += gamma * prob.ws.adjoint(label)
    prob.unfold(0)
    prob.ws.correlate(prob.ws.arrange(w), prob.scores[0])
    peak = float(prob.scores[0].max())
    c = 1.0 / peak if peak > 1e-150 else 1.0
    return TargetModel(Kernel2D(c * w))
