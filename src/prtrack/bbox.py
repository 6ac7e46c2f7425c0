"""Box parametrization, analytic box scorers, and their sample-based training.

Boxes are encoded as y = (cx / w0, cy / h0, log w, log h) with a positive
reference size (w0, h0), normally the current target size estimate, so a
fixed step in y moves small and large boxes by a comparable relative
amount.  A scorer assigns a differentiable scalar score to encoded boxes;
two analytic families are provided so training and refinement can be
checked against brute-force oracles:

* quadratic        s(y) = -||y - mu||^2 / (2 tau^2), trainable mu,
* rbf mixture      s(y) = sum_m a_m exp(-||y - c_m||^2 / (2 rho_m^2)),
                   trainable amplitudes a_m, fixed centers and widths.

train_box_scorer fits scorers to annotated boxes by drawing proposal
samples around each annotation and following the Monte Carlo divergence
gradient, or one of the squared-error / hinged / delta-label objectives
for side-by-side comparisons.  It trains a list of jobs, each a (scorer,
loss model, label width) triple, in lockstep on one proposal stream: the
draws and the densities at them are shared, and every job ends exactly as
it would if trained alone from an equally seeded generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .gridmath import _as_float_array
from .labels import GaussianLabel, MixtureProposal, gaussian_density, iou_xywh, proposal_density, proposal_sample
from .losses import kl_mc_loss

__all__ = [
    "BoxParam",
    "box_encode",
    "box_decode",
    "BoxScorer",
    "QuadraticScorer",
    "RbfMixtureScorer",
    "SCORER_FAMILIES",
    "save_scorer",
    "load_scorer",
    "SGDConfig",
    "train_box_scorer",
    "RefConfig",
    "refine_box",
]

BOX_LOSS_MODELS = ("l2", "rl2", "nll", "kl")
BOX_DIM = 4  # (cx/w0, cy/h0, log w, log h)


@dataclass(frozen=True, eq=False)
class BoxParam:
    """Encoded box (cx/w0, cy/h0, log w, log h) with its reference size."""

    values: np.ndarray
    reference: tuple[float, float]

    def __post_init__(self):
        vals = _as_float_array(self.values, 1, "box parameters")
        if vals.size != BOX_DIM:
            raise DimensionError(f"box parameters must have {BOX_DIM} entries, got {vals.size}")
        w0, h0 = self.reference
        if not (w0 > 0 and h0 > 0):
            raise DomainError(f"reference size must be positive, got {self.reference}")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "reference", (float(w0), float(h0)))

    def decode(self) -> tuple[float, float, float, float]:
        """Back to (cx, cy, w, h); sizes that under- or overflow are rejected."""
        w0, h0 = self.reference
        try:
            wd, hd = math.exp(self.values[2]), math.exp(self.values[3])
        except OverflowError:
            raise DomainError("decoded box size is not positive and finite") from None
        if not (0 < wd < math.inf and 0 < hd < math.inf):
            raise DomainError("decoded box size is not positive and finite")
        return self.values[0] * w0, self.values[1] * h0, wd, hd


def box_encode(box, reference: tuple[float, float]) -> BoxParam:
    """Encode an absolute (cx, cy, w, h) box against a reference size."""
    cx, cy, w, h = (float(v) for v in box)
    w0, h0 = (float(v) for v in reference)
    if not (w > 0 and h > 0):
        raise DomainError(f"box size must be positive, got {(w, h)}")
    if not (w0 > 0 and h0 > 0):
        raise DomainError(f"reference size must be positive, got {reference}")
    return BoxParam(np.array([cx / w0, cy / h0, math.log(w), math.log(h)]), (w0, h0))


def box_decode(y: BoxParam) -> tuple[float, float, float, float]:
    return y.decode()


class BoxScorer:
    """Differentiable scalar field over encoded boxes; subclasses define it."""

    name = "base"

    def value(self, y) -> float:
        return float(self.value_batch(np.asarray(y, dtype=np.float64)[None, :])[0])

    def grad_box(self, y) -> np.ndarray:
        """Gradient of the score in the 4 box parameters."""
        raise NotImplementedError

    def grad_params(self, y) -> np.ndarray:
        return self.grad_params_batch(np.asarray(y, dtype=np.float64)[None, :])[0]

    def value_batch(self, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_params_batch(self, ys: np.ndarray) -> np.ndarray:
        """Per-sample gradients in the trainable parameters, shape (N, P)."""
        raise NotImplementedError

    def value_and_grad_params_batch(self, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """value_batch(ys) and grad_params_batch(ys) together."""
        return self.value_batch(ys), self.grad_params_batch(ys)

    @property
    def params(self) -> np.ndarray:
        raise NotImplementedError

    @params.setter
    def params(self, values):
        raise NotImplementedError

    def to_values(self) -> list[float]:
        """Flat serialization, one scalar per line in the text format."""
        raise NotImplementedError

    @classmethod
    def from_values(cls, values: list[float]) -> "BoxScorer":
        raise NotImplementedError


def _check_box_batch(ys) -> np.ndarray:
    arr = np.asarray(ys, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise DimensionError(f"expected an (N, 4) box batch, got shape {arr.shape}")
    return arr


class QuadraticScorer(BoxScorer):
    """s(y) = -||y - mu||^2 / (2 tau^2); mu trains, tau is fixed."""

    name = "quadratic"

    def __init__(self, mu, tau: float):
        if not (tau > 0):
            raise DomainError(f"tau must be positive, got {tau}")
        self.mu = _as_float_array(mu, 1, "scorer center")
        if self.mu.size != 4:
            raise DimensionError("scorer center must have 4 entries")
        self.tau = float(tau)

    def value_batch(self, ys):
        d = _check_box_batch(ys) - self.mu
        d *= d
        return d.sum(axis=1) / (-2.0 * self.tau**2)

    def grad_box(self, y):
        return -(np.asarray(y, dtype=np.float64) - self.mu) / self.tau**2

    def grad_params_batch(self, ys):
        return (_check_box_batch(ys) - self.mu) / self.tau**2

    @property
    def params(self):
        return self.mu.copy()

    @params.setter
    def params(self, values):
        self.mu = _as_float_array(values, 1, "scorer center")

    def to_values(self):
        return [self.tau, *self.mu.tolist()]

    @classmethod
    def from_values(cls, values):
        if len(values) != 5:
            raise DomainError(f"quadratic scorer needs 5 values, got {len(values)}")
        return cls(values[1:], values[0])


class RbfMixtureScorer(BoxScorer):
    """Sum of fixed Gaussian bumps with trainable amplitudes."""

    name = "rbf"

    def __init__(self, centers, widths, amplitudes):
        self.centers = np.asarray(centers, dtype=np.float64)
        self.widths = np.asarray(widths, dtype=np.float64)
        self.amplitudes = np.asarray(amplitudes, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != 4 or self.centers.shape[0] < 1:
            raise DimensionError("centers must be an (M, 4) array")
        m = self.centers.shape[0]
        if self.widths.shape != (m,) or self.amplitudes.shape != (m,):
            raise DimensionError("widths and amplitudes must match the component count")
        if (self.widths <= 0).any():
            raise DomainError("component widths must be positive")

    def _basis(self, ys):
        d2 = ((_check_box_batch(ys)[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-d2 / (2.0 * self.widths**2))

    def value_batch(self, ys):
        return self._basis(ys) @ self.amplitudes

    def grad_box(self, y):
        y = np.asarray(y, dtype=np.float64)
        phi = self._basis(y[None, :])[0]
        return ((self.amplitudes * phi)[:, None] * (self.centers - y) / self.widths[:, None] ** 2).sum(axis=0)

    def grad_params_batch(self, ys):
        return self._basis(ys)

    def value_and_grad_params_batch(self, ys):
        # The score is linear in the amplitudes: one basis serves both.
        basis = self._basis(ys)
        return basis @ self.amplitudes, basis

    @property
    def params(self):
        return self.amplitudes.copy()

    @params.setter
    def params(self, values):
        self.amplitudes = _as_float_array(values, 1, "amplitudes")

    def to_values(self):
        out = [float(self.centers.shape[0])]
        for m in range(self.centers.shape[0]):
            out.extend([self.amplitudes[m], self.widths[m], *self.centers[m].tolist()])
        return out

    @classmethod
    def from_values(cls, values):
        if not values:
            raise DomainError("rbf scorer needs at least a component count")
        m = int(values[0])
        if m < 1 or len(values) != 1 + 6 * m:
            raise DomainError(f"rbf scorer with {m} components needs {1 + 6 * m} values")
        amps, widths, centers = [], [], []
        for i in range(m):
            chunk = values[1 + 6 * i : 1 + 6 * (i + 1)]
            amps.append(chunk[0])
            widths.append(chunk[1])
            centers.append(chunk[2:])
        return cls(centers, widths, amps)


SCORER_FAMILIES = {QuadraticScorer.name: QuadraticScorer, RbfMixtureScorer.name: RbfMixtureScorer}


def save_scorer(scorer: BoxScorer, path):
    """Text format: family name on the first line, then one value per line."""
    with open(path, "w") as fh:
        fh.write(scorer.name + "\n")
        for v in scorer.to_values():
            fh.write(f"{float(v)!r}\n")


def load_scorer(path) -> BoxScorer:
    with open(path) as fh:
        name = fh.readline().strip()
        values = [float(line) for line in fh if line.strip()]
    if name not in SCORER_FAMILIES:
        raise DomainError(f"unknown scorer family {name!r}")
    return SCORER_FAMILIES[name].from_values(values)


@dataclass(frozen=True)
class SGDConfig:
    """First-order training schedule; lr_t = learning_rate / (1 + lr_decay * t)."""

    learning_rate: float = 0.2
    epochs: int = 100
    lr_decay: float = 0.0

    def __post_init__(self):
        # An infinite rate or decay turns the first update into NaN.
        if not (0 < self.learning_rate < math.inf):
            raise DomainError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.epochs < 1:
            raise DomainError(f"epochs must be at least 1, got {self.epochs}")
        if not (0 <= self.lr_decay < math.inf):
            raise DomainError(f"lr_decay must be nonnegative and finite, got {self.lr_decay}")


def _box_sample_loss(scorer, ann: BoxParam, ys, loss_model, label_dens, proposal_dens, targets):
    """Loss value and its gradient in the scorer parameters for one batch.

    label_dens and proposal_dens are the densities at the draws (kl and nll),
    targets the draws' overlaps with the annotation (l2 and rl2).
    """
    s, basis = scorer.value_and_grad_params_batch(ys)
    k = ys.shape[0]
    if loss_model == "kl":
        lvg = kl_mc_loss(s, label_dens, proposal_dens)
        return lvg.value, lvg.grad_scores @ basis
    if loss_model == "nll":
        # The delta-label loss is the divergence with zero label densities
        # at the draws, minus the score at the annotation itself.
        lvg = kl_mc_loss(s, np.zeros(k), proposal_dens)
        value = lvg.value - scorer.value(ann.values)
        return value, lvg.grad_scores @ basis - scorer.grad_params(ann.values)
    # Squared-error families regress the confidence exp(s) — range (0, 1],
    # same argmax as s — onto the overlap with the annotation; regressing
    # the raw score of a quadratic field onto [0, 1] targets is hopelessly
    # scaled (score ~ -d^2/(2 tau^2) at proposal distance d).
    c = np.exp(s)
    if loss_model == "l2":
        r = c - targets
    else:
        near = targets > 0.05
        r = np.where(near, c - targets, c)  # hinge max(0, c) == c here
    return float(r @ r) / k, (2.0 / k) * ((r * c) @ basis)


def _decode_batch(ys: np.ndarray, reference) -> np.ndarray:
    w0, h0 = reference
    out = np.empty_like(ys)
    out[:, 0] = ys[:, 0] * w0
    out[:, 1] = ys[:, 1] * h0
    out[:, 2:] = np.exp(ys[:, 2:])
    return out


def train_box_scorer(
    jobs,
    annotations,
    proposal: MixtureProposal,
    samples_per_annotation: int,
    sgd: SGDConfig,
    rng: np.random.Generator,
) -> list[tuple[BoxScorer, float]]:
    """Fit scorers to annotated boxes with stochastic first-order updates.

    jobs is a sequence of (scorer, loss_model, sigma_bb) triples, trained
    in lockstep on one proposal stream.  Per epoch and annotation: draw
    samples_per_annotation proposals from `proposal` recentered on the
    annotation, evaluate each job's loss at those draws and step its scorer
    parameters along the gradient.  The densities and overlaps the losses
    read are computed once per draw batch and shared: the proposal density
    if any job is kl or nll, one label density per distinct kl sigma_bb,
    and the overlaps if any job is l2 or rl2.  Since a job's updates read
    only its own parameters and the draws, every job ends exactly where a
    run with it alone on an equally seeded generator ends.  The recentered
    proposal and the labels of each annotation are built once, before the
    first epoch.  The final parameters are the average of the iterates over
    the last half of the epochs, which removes most of the stationary
    sampling noise.  Mutates the scorers and returns one (scorer, mean loss
    seen in the final epoch) per job.
    """
    jobs = list(jobs)
    annotations = list(annotations)
    if not jobs:
        raise DimensionError("train_box_scorer needs at least one job")
    if not annotations:
        raise DimensionError("train_box_scorer needs at least one annotation")
    if samples_per_annotation < 2:
        raise DomainError("need at least 2 samples per annotation")
    for _, loss_model, sigma_bb in jobs:
        if not (sigma_bb > 0):
            raise DomainError(f"sigma_bb must be positive, got {sigma_bb}")
        if loss_model not in BOX_LOSS_MODELS:
            raise DomainError(f"unknown loss model {loss_model!r}; pick one of {BOX_LOSS_MODELS}")
    models = {loss_model for _, loss_model, _ in jobs}
    # A label per distinct width checks every job's width; only the kl
    # jobs' labels are evaluated at the draws.
    sigmas = dict.fromkeys(sigma for _, _, sigma in jobs)
    kl_sigmas = dict.fromkeys(sigma for _, loss_model, sigma in jobs if loss_model == "kl")
    targets = [
        (ann, proposal.recenter(ann.values), {sigma: GaussianLabel(ann.values, sigma) for sigma in sigmas})
        for ann in annotations
    ]
    tail_start = sgd.epochs // 2
    tail_sums = [0.0] * len(jobs)
    for epoch in range(sgd.epochs):
        lr = sgd.learning_rate / (1.0 + sgd.lr_decay * epoch)
        values = [[] for _ in jobs]
        for ann, q, labels in targets:
            ys = proposal_sample(q, rng, size=samples_per_annotation)
            proposal_dens = proposal_density(q, ys) if models & {"kl", "nll"} else None
            label_dens = {sigma: gaussian_density(labels[sigma], ys) for sigma in kl_sigmas}
            overlaps = None
            if models & {"l2", "rl2"}:
                overlaps = iou_xywh(_decode_batch(ys, ann.reference), np.asarray(ann.decode()))
            for (scorer, loss_model, sigma_bb), seen in zip(jobs, values):
                value, grad = _box_sample_loss(
                    scorer, ann, ys, loss_model, label_dens.get(sigma_bb), proposal_dens, overlaps
                )
                if not (math.isfinite(value) and np.isfinite(grad).all()):
                    raise NumericError(f"non-finite {loss_model} training loss at epoch {epoch}")
                scorer.params = scorer.params - lr * grad
                seen.append(value)
        if epoch >= tail_start:
            tail_sums = [acc + scorer.params for acc, (scorer, _, _) in zip(tail_sums, jobs)]
    out = []
    for (scorer, _, _), acc, seen in zip(jobs, tail_sums, values):
        scorer.params = acc / (sgd.epochs - tail_start)
        out.append((scorer, float(np.mean(seen))))
    return out


@dataclass(frozen=True)
class RefConfig:
    """Gradient-ascent refinement schedule."""

    step_length: float = 1e-2
    steps: int = 10
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if not (self.step_length > 0):
            raise DomainError(f"step_length must be positive, got {self.step_length}")
        if self.steps < 0:
            raise DomainError(f"steps must be nonnegative, got {self.steps}")
        if not (self.convergence_tol > 0):
            raise DomainError(f"convergence_tol must be positive, got {self.convergence_tol}")


def refine_box(scorer: BoxScorer, y0: BoxParam, cfg: RefConfig) -> BoxParam:
    """Gradient-ascend the score from y0, returning the best iterate seen.

    The start point counts, so the output never scores below y0.  Ascent
    stops early once an update moves less than convergence_tol, or if the
    gradient stops being finite.
    """
    y = y0.values.copy()
    best_y, best_s = y.copy(), scorer.value(y)
    for _ in range(cfg.steps):
        g = scorer.grad_box(y)
        if not np.isfinite(g).all():
            break
        y = y + cfg.step_length * g
        s = scorer.value(y)
        if math.isfinite(s) and s > best_s:
            best_y, best_s = y.copy(), s
        if float(np.abs(cfg.step_length * g).max()) < cfg.convergence_tol:
            break
    return BoxParam(best_y, y0.reference)
