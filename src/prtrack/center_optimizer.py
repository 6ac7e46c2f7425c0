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

Unfolds are built one sample at a time and never kept.  An iteration
unfolds each sample at most twice, for its adjoint and for its curvature
direction, whatever the line search does; the closing pass unfolds each
sample once more.  That pass leaves each sample its scores and its loss
gradient's kernel-space pullback under the returned kernel (see
SupportSample), and the first pass of the next call reuses them: a sample
that kept both needs no first-pass unfold, one that kept only its scores
needs one for its adjoint, and a fresh sample's one unfold serves both its
scores and its adjoint.  A k-iteration call thus builds N * (2k + 1)
unfolds on fresh samples and N * 2k on the samples a previous call left.
"""

from __future__ import annotations

import csv
import itertools
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

    A sample also keeps its last evaluation, so the next solve need not
    repeat it: one (H, W) score grid, and with it, when a solve made them,
    the loss gradient's kernel-space pullback and the loss settings
    (loss_model, rl2_threshold) it was made under.  The key is the kernel
    array itself, not its values, and it counts only while that array is
    read-only (optimize returns read-only kernels), so an in-place edit
    cannot leave a stale entry.  What is kept does not depend on the
    weight; assigning any other field drops it.  A kept evaluation that does
    not match is ignored.
    """

    features: FeatureMap
    label_grid: Grid2D
    weight: float = 1.0
    center_rc: tuple[float, float] | None = None
    _kept = None  # (kernel array, scores, loss settings, pullback)

    def __post_init__(self):
        if (self.features.height, self.features.width) != (
            self.label_grid.height,
            self.label_grid.width,
        ):
            raise DimensionError("label grid shape must match the feature map spatial shape")
        if not (self.weight >= 0):
            raise DomainError(f"sample weight must be nonnegative, got {self.weight}")

    def __setattr__(self, name, value):
        if name != "weight":
            object.__setattr__(self, "_kept", None)
        object.__setattr__(self, name, value)

    def keep(self, kernel: np.ndarray, scores: np.ndarray, loss=None, pullback=None):
        """Keep the (H, W) scores made under the kernel array; a solve adds its loss settings and pullback."""
        self._kept = (kernel, scores, loss, pullback)

    def kept(self, kernel: np.ndarray, loss) -> tuple[np.ndarray | None, np.ndarray | None]:
        """(scores, pullback) kept under this very kernel array, else Nones.

        The pullback is None unless it was also made under these loss settings.
        """
        if self._kept is None:
            return None, None
        key, scores, kept_loss, pullback = self._kept
        if key is not kernel or kernel.flags.writeable or scores.shape != self.label_grid.values.shape:
            return None, None
        return scores, pullback if kept_loss == loss else None


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
    row = s.reshape(1, -1)
    grad, state = np.empty_like(row), np.empty_like(row)
    (value,) = _CrossEntropy(pa.reshape(1, -1)).value_grad(row, grad, state, slice(None))
    return value, grad.reshape(s.shape)


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


def _runs(flags):
    """Slices over the maximal runs of true flags."""
    start = 0
    for flag, group in itertools.groupby(flags):
        stop = start + sum(1 for _ in group)
        if flag:
            yield slice(start, stop)
        start = stop


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
        self.kernel_shape = (c, kh, kw)
        self.grid = (h, w)
        self.lam = cfg.regularization
        self.gamma = [float(sample.weight) for sample in samples]
        labels = np.empty((len(samples), h * w))
        for sample, row in zip(samples, labels):
            _label(sample, cfg.loss_model, row.reshape(h, w))
        if cfg.loss_model in ("kl", "nll"):
            self.loss = _CrossEntropy(labels)
        else:
            self.loss = _Squared(labels, None if cfg.loss_model == "l2" else labels <= cfg.rl2_threshold)
        self.scores = np.empty_like(labels)
        self.work = np.empty_like(labels)
        self.state = np.empty_like(labels)

    def unfold(self, j: int) -> np.ndarray:
        return _columns(self.samples[j].features.values, self.kernel_shape[1], self.kernel_shape[2])

    def adjoint(self, cols: np.ndarray, row: np.ndarray) -> np.ndarray:
        return _correlate_adjoint(cols, row.reshape(self.grid), self.kernel_shape)

    def correlate(self, *pairs):
        """Fill row j of each (kernel, stack) pair with sample j's scores; one unfold per sample."""
        for j in range(len(self.samples)):
            cols = self.unfold(j)
            for kernel, stack in pairs:
                stack[j].reshape(self.grid)[...] = _correlate(cols, kernel, self.grid)
            # Freed before the next sample's is built: one unfold alive at a time.
            del cols

    def recall(self, kernel: np.ndarray, loss) -> tuple[list[bool], list]:
        """Copy in the scores the samples kept under kernel; returns (known rows, kept pullbacks)."""
        known, pulls = [], []
        for sample, row in zip(self.samples, self.scores):
            scores, pull = sample.kept(kernel, loss)
            if scores is not None:
                row.reshape(self.grid)[...] = scores
            known.append(scores is not None)
            pulls.append(pull)
        return known, pulls

    def evaluate(self, w: np.ndarray, known, pulls) -> tuple[float, np.ndarray, list]:
        """Objective and gradient at w, and each sample's pullback.

        Rows flagged in known hold their scores at w already, and a pullback
        given in pulls is its sample's at w; the rest are computed.  A row
        with unknown scores is scored and evaluated alone, so that its
        unfold also serves its adjoint; the known rows are evaluated in
        runs.  The work and state stacks get the score gradients and
        curvature states.
        """
        n = len(self.samples)
        values, pulls = [0.0] * n, list(pulls)
        for j in range(n):
            if not known[j]:
                cols = self.unfold(j)
                self.scores[j].reshape(self.grid)[...] = _correlate(cols, w, self.grid)
                (values[j],) = self.loss.value_grad(self.scores, self.work, self.state, slice(j, j + 1))
                pulls[j] = self.adjoint(cols, self.work[j])
                del cols
        for rows in _runs(known):
            values[rows] = self.loss.value_grad(self.scores, self.work, self.state, rows)
        for j in range(n):
            if pulls[j] is None:
                pulls[j] = self.adjoint(self.unfold(j), self.work[j])
        obj = 0.5 * self.lam * float((w * w).sum())
        grad = self.lam * w.copy()
        for gamma, value, pull in zip(self.gamma, values, pulls):
            obj += gamma * value
            grad += gamma * pull
        return obj, grad, pulls

    def trial(self, directions: np.ndarray, alpha: float) -> list[float]:
        """Losses at the trial scores s - alpha * v, which go to the work stack."""
        trial = np.multiply(directions, alpha, out=self.work)
        np.subtract(self.scores, trial, out=trial)
        return self.loss.value(trial, self.state)

    def accept(self):
        """Make the last trial's scores the current ones."""
        self.scores, self.work = self.work, self.scores

    def keep(self, kernel: np.ndarray, loss, pulls):
        """Leave each sample its scores and its pullback under kernel."""
        self.scores.flags.writeable = False
        for sample, row, pull in zip(self.samples, self.scores, pulls):
            sample.keep(kernel, row.reshape(self.grid), loss, pull)


def objective(model: TargetModel, support, cfg: OptimizerConfig) -> float:
    """Weighted sample losses plus the ridge term (reg / 2) * ||w||^2."""
    w = model.weights.values
    prob = _Problem(support, cfg, w.shape)
    prob.correlate((w, prob.scores))
    total = 0.5 * cfg.regularization * float((w * w).sum())
    for gamma, value in zip(prob.gamma, prob.loss.value(prob.scores, prob.work)):
        total += gamma * value
    return total


def gradient(model: TargetModel, support, cfg: OptimizerConfig) -> Kernel2D:
    """Exact objective gradient, pulled back to kernel space per sample."""
    w = model.weights.values
    prob = _Problem(support, cfg, w.shape)
    n = len(prob.samples)
    _, g, _ = prob.evaluate(w, [False] * n, [None] * n)
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
    prob = _Problem(support, cfg, w.shape)
    directions = np.empty_like(prob.scores)
    prob.correlate((w, prob.scores), (g, directions))
    prob.loss.value_grad(prob.scores, prob.work, prob.state, slice(None))
    total = cfg.regularization * float((g * g).sum())
    for gamma, curv in zip(prob.gamma, prob.loss.curvature(prob.state, directions, prob.work)):
        total += gamma * curv
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
    carry into the next pass.  Returns the updated model, whose kernel
    array is read-only, and a trace with one row per iteration plus a final
    row for the end state (step_length 0 by convention), evaluated on
    scores correlated afresh at the returned kernel.  Each sample is left
    those scores and its pullback under that kernel.
    """
    if not (cfg.regularization > 0):
        raise DomainError("optimize requires positive regularization")
    kernel = model.weights.values
    prob = _Problem(support, cfg, kernel.shape)
    loss = (cfg.loss_model, cfg.rl2_threshold)
    known, pulls = prob.recall(kernel, loss)
    w = kernel.copy()
    lam = cfg.regularization
    trace: list[OptStep] = []
    moved = False
    for it in range(cfg.iterations):
        obj, g, pulls = prob.evaluate(w, known, pulls)
        known = [True] * len(known)
        if not math.isfinite(obj):
            raise NumericError(f"non-finite objective at iteration {it}")
        gg = float((g * g).sum())
        gnorm = math.sqrt(gg)
        if gg == 0.0:
            trace.append(OptStep(it, obj, 0.0, 0.0))
            continue
        directions = np.empty_like(prob.scores)
        prob.correlate((g, directions))
        denom = lam * gg
        for gamma, curv in zip(prob.gamma, prob.loss.curvature(prob.state, directions, prob.work)):
            denom += gamma * curv
        alpha = gg / denom if denom >= cfg.step_length_floor * gg else 1.0 / lam
        accepted = 0.0
        for _ in range(40):
            cand = w - alpha * g
            cand_obj = 0.5 * lam * float((cand * cand).sum())
            for gamma, value in zip(prob.gamma, prob.trial(directions, alpha)):
                cand_obj += gamma * value
            if math.isfinite(cand_obj) and cand_obj <= obj:
                w = cand
                prob.accept()
                pulls = [None] * len(pulls)
                moved = True
                accepted = alpha
                break
            alpha *= 0.5
        del directions
        trace.append(OptStep(it, obj, accepted, gnorm))

    if moved:
        # Carried scores differ from a fresh correlation in the last bits.
        # The closing pass scores afresh, so what the samples keep is
        # exactly what a first pass at w would compute.
        known = [False] * len(known)
    obj, g, pulls = prob.evaluate(w, known, pulls)
    if not math.isfinite(obj):
        raise NumericError(f"non-finite objective at iteration {cfg.iterations}")
    trace.append(OptStep(cfg.iterations, obj, 0.0, math.sqrt(float((g * g).sum()))))
    w.flags.writeable = False
    prob.keep(w, loss, pulls)
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
        w += gamma * prob.adjoint(prob.unfold(j), label)
    peak = float(_correlate(prob.unfold(0), w, prob.grid).max())
    c = 1.0 / peak if peak > 1e-150 else 1.0
    return TargetModel(Kernel2D(c * w))


def write_trace_csv(trace, path):
    """Dump a solver trace as CSV (iteration, objective, step_length, grad_norm)."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["iteration", "objective", "step_length", "grad_norm"])
        for row in trace:
            out.writerow([row.iteration, repr(row.objective), repr(row.step_length), repr(row.grad_norm)])
