"""Online learning of a correlation kernel against grid label densities.

The target model is the kernel w itself, a Kernel2D: it scores a feature
map by cross-correlation, s_j = z_j * w, and w minimizes

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
halved until the objective decreases; on a purely quadratic objective the
first trial already descends, so Newton exactness is kept.  A solve ends
early at a zero gradient or when 40 halvings find no decrease, since every
later iteration would repeat the same search from the same kernel.

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

Every correlation of a solve goes through its thread's gridmath workspace,
the one conv_apply uses, which holds the unfold of one sample at a time,
and each pass arranges its kernel once for all samples.  The label,
score, work, state and direction stacks are the first N rows of one
per-thread block, kept while the grid size holds and it has the rows, so
a solve writes into memory its thread already owns; nothing it returns
aliases the block or the workspace.  Each solve still starts fresh,
because carried scores differ from a fresh correlation in the last bits:
its first pass scores every sample at the given kernel, and one unfold
serves both a sample's scores and its adjoint.  Later passes use the
carried scores, so an iteration unfolds each sample at most twice, for its
adjoint and for its curvature direction, whatever the line search does.
The solve remembers which sample the workspace holds, and each sweep over
the samples starts on it, so a sweep that follows another unfolds one
sample fewer.  Rows are independent and the gradient is summed in index
order whatever the sweep order, so the order does not move a bit.  A
k-iteration call that steps every iteration thus builds 2k(N - 1) + 1
unfolds on N samples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .gridmath import FeatureMap, Grid2D, Kernel2D, _thread_workspace
from .losses import DENSITY_MODELS, LOSS_MODELS, _CrossEntropy, _Squared

__all__ = [
    "SupportSample",
    "OptimizerConfig",
    "OptStep",
    "objective",
    "gradient",
    "hessian_quadratic_form",
    "optimize",
    "init_weights",
]

# Below this fraction of g'g the curvature g'Hg is treated as flat (see optimize).
STEP_LENGTH_FLOOR = 1e-10

_local = threading.local()


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

    Besides the loss's label stack it holds four: the scores, two work
    stacks the loss writes its score gradients and curvature states into,
    and the curvature directions.  The line search reuses the work and
    state stacks for its trial scores and scratch.
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
        block = getattr(_local, "block", None)
        if block is None or block.shape[2] != h * w or block.shape[1] < len(samples):
            block = _local.block = np.empty((5, len(samples), h * w))
        labels, self.scores, self.work, self.state, self.directions = block[:, : len(samples)]
        for sample, row in zip(samples, labels):
            _label(sample, cfg.loss_model, row.reshape(h, w))
        if cfg.loss_model in DENSITY_MODELS:
            self.loss = _CrossEntropy(labels)
        else:
            self.loss = _Squared(labels, None if cfg.loss_model == "l2" else labels <= cfg.rl2_threshold)
        self.ws = _thread_workspace((c, h, w), (c, kh, kw))
        self.held = -1  # the sample whose unfold the workspace holds

    def unfold(self, j: int):
        if j != self.held:
            self.ws.unfold(self.samples[j].features.values)
            self.held = j

    def sweep(self, rows) -> list[int]:
        """The ascending rows, rotated to start at the held sample or the first one after it."""
        rows = list(rows)
        return [j for j in rows if j >= self.held] + [j for j in rows if j < self.held]

    def correlate(self, kernel: np.ndarray, out: np.ndarray):
        """Fill row j of out with sample j's scores under kernel."""
        arranged = self.ws.arrange(kernel)
        for j in self.sweep(range(len(self.samples))):
            self.unfold(j)
            self.ws.correlate(arranged, out[j])

    def evaluate(self, w: np.ndarray, scored: bool) -> tuple[float, np.ndarray]:
        """Objective and gradient at w.

        With scored, the score stack holds the scores at w already.
        Otherwise each row is scored and evaluated alone, so that its unfold
        also serves its adjoint.  The work and state stacks get the score
        gradients and curvature states.
        """
        n = len(self.samples)
        if scored:
            values = self.loss.value_grad(self.scores, self.work, self.state, slice(None))
        else:
            values = [0.0] * n
            arranged = self.ws.arrange(w)
        obj = 0.5 * self.lam * float((w * w).sum())
        grad = self.lam * w.copy()
        pulls = [None] * n
        for j in self.sweep(range(n)):
            self.unfold(j)
            if not scored:
                self.ws.correlate(arranged, self.scores[j])
                (values[j],) = self.loss.value_grad(self.scores, self.work, self.state, slice(j, j + 1))
            pulls[j] = self.ws.adjoint(self.work[j])
        for gamma, value, pull in zip(self.gamma, values, pulls):
            obj += gamma * value
            grad += gamma * pull
        return obj, grad

    def curvature(self, g: np.ndarray) -> float:
        """g'Hg from the curvature states, after the directions v_j = z_j * g are correlated."""
        self.correlate(g, self.directions)
        total = self.lam * float((g * g).sum())
        for gamma, curv in zip(self.gamma, self.loss.curvature(self.state, self.directions, self.work)):
            total += gamma * curv
        return total

    def trial(self, alpha: float) -> list[float]:
        """Losses at the trial scores s - alpha * v, which go to the work stack."""
        trial = np.multiply(self.directions, alpha, out=self.work)
        np.subtract(self.scores, trial, out=trial)
        return self.loss.value(trial, self.state)

    def accept(self):
        """Make the last trial's scores the current ones."""
        self.scores, self.work = self.work, self.scores


def objective(kernel: Kernel2D, support, cfg: OptimizerConfig) -> float:
    """Weighted sample losses plus the ridge term (reg / 2) * ||w||^2."""
    w = kernel.values
    return _Problem(support, cfg, w.shape).evaluate(w, False)[0]


def gradient(kernel: Kernel2D, support, cfg: OptimizerConfig) -> Kernel2D:
    """Exact objective gradient, pulled back to kernel space per sample."""
    w = kernel.values
    return Kernel2D(_Problem(support, cfg, w.shape).evaluate(w, False)[1])


def hessian_quadratic_form(kernel: Kernel2D, direction: Kernel2D, support, cfg: OptimizerConfig) -> float:
    """g' H g at the kernel, without assembling H.

    Each sample contributes gamma_j times the curvature of its loss along
    v_j = z_j * g; the ridge adds reg * ||g||^2.  The result is
    nonnegative whenever reg >= 0 because every per-sample loss is convex.
    """
    w = kernel.values
    if direction.values.shape != w.shape:
        raise DimensionError("direction shape must match the kernel")
    g = direction.values
    prob = _Problem(support, cfg, w.shape)
    prob.evaluate(w, False)
    return prob.curvature(g)


def optimize(kernel: Kernel2D, support, cfg: OptimizerConfig) -> tuple[Kernel2D, list[OptStep]]:
    """Run up to cfg.iterations steepest-descent steps with Newton step lengths.

    Each iteration evaluates the gradient g and steps w -= alpha * g with
    alpha = g'g / g'Hg.  If the curvature ever drops below
    STEP_LENGTH_FLOOR * g'g (1e-10 g'g) the step falls back to
    1/regularization, the exact minimizing step of the ridge term alone.
    The step is then halved until the objective decreases (curvature can
    grow along the ray, so the quadratic-model step may overshoot).  The
    solve ends after an iteration whose gradient is zero or whose 40
    halvings find no decrease, with step_length 0 in that iteration's row,
    because every later iteration would repeat it from the same kernel.
    The first pass scores every sample at the given kernel; trial
    objectives come from the carried scores, s_j - alpha * v_j, and an
    accepted trial's scores carry into the next pass.  Returns the updated
    kernel and a trace with one row per iteration run plus a final row for
    the end state, numbered by the iterations run (step_length 0 by
    convention): the objective at the returned kernel, which is the last
    accepted trial's, and the gradient norm there, math.nan when the last
    step moved the kernel, since no pass scores the kernel a step lands on.
    """
    if not (cfg.regularization > 0):
        raise DomainError("optimize requires positive regularization")
    w = kernel.values.copy()
    prob = _Problem(support, cfg, w.shape)
    lam = cfg.regularization
    trace: list[OptStep] = []
    for it in range(max(cfg.iterations, 1)):
        obj, g = prob.evaluate(w, it > 0)
        if not math.isfinite(obj):
            raise NumericError(f"non-finite objective at iteration {it}")
        gg = float((g * g).sum())
        gnorm = math.sqrt(gg)
        if it == cfg.iterations:
            break  # no iterations: the one pass only gives the final row
        step = 0.0
        if gg > 0.0:
            denom = prob.curvature(g)
            alpha = gg / denom if denom >= STEP_LENGTH_FLOOR * gg else 1.0 / lam
            for _ in range(40):
                cand = w - alpha * g
                cand_obj = 0.5 * lam * float((cand * cand).sum())
                for gamma, value in zip(prob.gamma, prob.trial(alpha)):
                    cand_obj += gamma * value
                if math.isfinite(cand_obj) and cand_obj < obj:
                    step = alpha
                    break
                alpha *= 0.5
        trace.append(OptStep(it, obj, step, gnorm))
        if not step:
            break
        w = cand
        prob.accept()
        obj, gnorm = cand_obj, math.nan
    trace.append(OptStep(len(trace), obj, 0.0, gnorm))
    return Kernel2D(w), trace


def init_weights(support, kernel_shape: tuple[int, int]) -> Kernel2D:
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
    return Kernel2D(c * w)
