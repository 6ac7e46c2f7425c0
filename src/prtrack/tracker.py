"""Two-stage tracking on synthetic feature sequences.

Sequences are rendered directly in feature space: the target is a Gaussian
blob carrying a fixed channel signature, moving along a closed-form path
(linear drift plus an optional sinusoid), with optional distractor blobs
of similar signature, occlusion windows that suppress the target, and
additive noise.  render_frames yields a sequence's FeatureMaps one at a
time, and generate_sequence holds them as one tuple; the ground truth is
Scenario.target_box(t).  Boxes are center-format (cx, cy, w, h) in cell
units with x along columns and y along rows; cell (i, j) sits at x = j,
y = i.

Tracking starts from a box scorer that init_scorers builds before any frame
is tracked.  Per frame, with the learned correlation kernel as the target
model:

* stage 1 locates the target center: correlate the kernel over a
  search region around the previous box, normalize the scores to a density
  and read off the (optionally sub-cell refined) peak;
* a confidence gate declares the target missing when the density mass in
  the 3x3 peak neighborhood (or the raw peak score, for the squared-error
  model families whose outputs are not calibrated masses) is too small; a
  missing frame freezes the box and skips all model updates;
* stage 2 refines the box: the candidate (previous size at the new center)
  is encoded relative to the stage-1 center and the previous size,
  gradient-ascended on the box scorer and decoded back against them;
* memory: the search-region features and a Gaussian label at the estimated
  center are appended to the support set (self-labeling), the oldest
  non-anchor sample is evicted at capacity, and every update_interval
  frames the kernel is re-optimized under exponentially decayed sample
  weights.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .bbox import (
    BOX_DIM,
    QuadraticScorer,
    RefConfig,
    SGDConfig,
    box_encode,
    refine_box,
    train_box_scorer,
)
from .center_optimizer import OptimizerConfig, SupportSample, init_weights, optimize
from .density import GridDensity, normalize, read_peak
from .errors import DimensionError, DomainError, NumericError
from .gridmath import FeatureMap, Grid2D, Kernel2D, conv_apply
from .labels import MixtureProposal, gaussian_normalizer, iou_xywh, label_grid
from .losses import DENSITY_MODELS

__all__ = [
    "Scenario",
    "render_frames",
    "generate_sequence",
    "TrackerConfig",
    "TrackState",
    "search_region",
    "init_scorers",
    "track_init",
    "track_step",
    "run_sequence",
    "TrackRun",
    "TrackingMetrics",
    "evaluate",
]


def _instance(name: str, value, kind, what: str):
    # bool is an int subclass, but true/false in a config is never a count.
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise DomainError(f"{name} must be {what}, got {value!r}")
    return value


def _real(name: str, value) -> float:
    _instance(name, value, numbers.Real, "a real number")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} is outside the floating-point range") from None


def _items(name: str, value) -> tuple:
    return tuple(_instance(name, value, (list, tuple), "a list"))


def _int_pairs(name: str, value) -> tuple:
    # Errors name one element in the singular: occlusions -> "occlusion bound".
    item = name.removesuffix("s")
    pairs = tuple(_items(f"{item} interval", pair) for pair in _items(name, value))
    for pair in pairs:
        if len(pair) != 2:
            raise DomainError(f"{item} interval {pair} must be a (start, end) pair")
        for bound in pair:
            _instance(f"{item} bound", bound, int, "an integer")
    return pairs


# Annotation (a string, under postponed evaluation) -> check(name, value),
# which returns the value to store: reals as floats, lists as tuples.
_FIELD_CHECKS = {
    "int": lambda name, value: _instance(name, value, int, "an integer"),
    "float": _real,
    "float | None": lambda name, value: None if value is None else _real(name, value),
    "bool": lambda name, value: _instance(name, value, bool, "a boolean"),
    "str": lambda name, value: _instance(name, value, str, "a string"),
    "tuple[float, ...]": lambda name, value: tuple(_real(name, v) for v in _items(name, value)),
    "tuple[tuple[int, int], ...]": _int_pairs,
    "tuple[object, ...]": _items,
    **dict.fromkeys(("TrackerConfig", "object")),  # sub-configs and specs: checked where built
}


def _check_fields(obj, finite: bool = False, names: dict | None = None):
    """Check each field of the frozen dataclass obj against its annotation.

    Fields annotated float must also be finite when finite is set.  Errors
    name a field by names[field] if given, else by the field name.
    TypeError for an annotation that _FIELD_CHECKS does not list.
    """
    for f in fields(obj):
        if f.type not in _FIELD_CHECKS:
            raise TypeError(f"{type(obj).__name__}.{f.name}: no check for annotation {f.type!r}")
        check = _FIELD_CHECKS[f.type]
        if check is not None:
            name = (names or {}).get(f.name, f.name)
            value = check(name, getattr(obj, f.name))
            if finite and f.type == "float" and not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value!r}")
            object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class Scenario:
    """Parameters of one synthetic sequence; the target path is closed-form."""

    num_frames: int = 60
    height: int = 48
    width: int = 48
    channels: int = 4
    target_w: float = 6.0
    target_h: float = 6.0
    start_x: float = 20.0
    start_y: float = 20.0
    velocity_x: float = 0.0
    velocity_y: float = 0.0
    osc_amp_x: float = 0.0
    osc_amp_y: float = 0.0
    osc_period: float = 24.0
    blob_radius: float = 2.0
    distractor_count: int = 0
    distractor_similarity: float = 0.95
    occlusions: tuple[tuple[int, int], ...] = ()
    noise_level: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, finite=True)
        if self.num_frames < 1 or self.height < 1 or self.width < 1 or self.channels < 1:
            raise DomainError("frame counts and dimensions must be positive")
        if not (self.target_w > 0 and self.target_h > 0):
            raise DomainError("target size must be positive")
        if not (self.blob_radius > 0 and 2.0 * self.blob_radius * self.blob_radius > 0):  # _blob divides by 2 r^2
            raise DomainError(f"blob_radius must be positive with a positive 2 r^2, got {self.blob_radius!r}")
        if not math.isfinite(2.0 * self.blob_radius * self.blob_radius):  # else a far target's d^2 / 2 r^2 is inf / inf
            raise DomainError(f"blob_radius must have a finite 2 r^2, got {self.blob_radius!r}")
        # The sway phase 2 pi t / osc_period, at t up to num_frames (a distractor's crossing time).
        if not (self.osc_period > 0 and math.isfinite(2.0 * math.pi * self.num_frames / self.osc_period)):
            raise DomainError(f"osc_period must be positive with a finite sway phase, got {self.osc_period!r}")
        if self.distractor_count < 0 or not (0.0 <= self.distractor_similarity <= 1.0):
            raise DomainError("bad distractor settings")
        if not (0 <= self.noise_level <= 1e50):  # a solve's curvature multiplies four feature values
            raise DomainError(f"noise_level must be in [0, 1e50], got {self.noise_level!r}")
        for pair in self.occlusions:
            if not (0 <= pair[0] < pair[1]):
                raise DomainError(f"bad occlusion interval {pair}")

    def target_center(self, t: float) -> tuple[float, float]:
        """Closed-form (cx, cy) of the target at frame t."""
        phase = 2.0 * math.pi * t / self.osc_period
        cx = self.start_x + self.velocity_x * t + self.osc_amp_x * math.sin(phase)
        cy = self.start_y + self.velocity_y * t + self.osc_amp_y * math.sin(phase)
        return cx, cy

    def target_box(self, t: float) -> tuple[float, float, float, float]:
        cx, cy = self.target_center(t)
        return cx, cy, self.target_w, self.target_h

    def occluded(self, t: int) -> bool:
        return any(s <= t < e for s, e in self.occlusions)


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        v = np.zeros_like(v)
        v[0] = 1.0
        return v
    return v / n


def _blob(h: int, w: int, cx: float, cy: float, radius: float) -> np.ndarray:
    # A d^2 / 2 r^2 past the float range is inf, and the blob reads its limit 0 there.
    with np.errstate(over="ignore"):
        rows = (np.arange(h, dtype=np.float64) - cy) ** 2
        cols = (np.arange(w, dtype=np.float64) - cx) ** 2
        return np.exp(-(rows[:, None] + cols[None, :]) / (2.0 * radius * radius))


def render_frames(scenario: Scenario):
    """Yield a sequence's frames in order; frame t shows scenario.target_box(t), bit-identical for equal seeds."""
    rng = np.random.Generator(np.random.PCG64(scenario.seed))
    c, h, w = scenario.channels, scenario.height, scenario.width
    target_sig = _unit(rng.standard_normal(c))

    distractors = []
    for _ in range(scenario.distractor_count):
        # A signature at the requested cosine similarity to the target.
        raw = rng.standard_normal(c)
        ortho = _unit(raw - (raw @ target_sig) * target_sig) if c > 1 else target_sig
        sim = scenario.distractor_similarity
        sig = sim * target_sig + math.sqrt(max(0.0, 1.0 - sim * sim)) * ortho
        # The path is linear and crosses near the target partway through.
        t_cross = rng.uniform(0.25, 0.75) * scenario.num_frames
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(3.0, 6.0)
        near = scenario.target_center(t_cross)
        cross = (near[0] + radius * math.cos(angle), near[1] + radius * math.sin(angle))
        speed = rng.uniform(0.2, 0.6)
        vangle = rng.uniform(0.0, 2.0 * math.pi)
        vel = (speed * math.cos(vangle), speed * math.sin(vangle))
        distractors.append((sig, cross, vel, t_cross))

    for t in range(scenario.num_frames):
        if scenario.noise_level > 0:
            feats = scenario.noise_level * rng.standard_normal((c, h, w))
        else:
            feats = np.zeros((c, h, w))
        if not scenario.occluded(t):
            cx, cy = scenario.target_center(t)
            feats += target_sig[:, None, None] * _blob(h, w, cx, cy, scenario.blob_radius)
        for sig, cross, vel, t_cross in distractors:
            dx = cross[0] + vel[0] * (t - t_cross)
            dy = cross[1] + vel[1] * (t - t_cross)
            feats += sig[:, None, None] * _blob(h, w, dx, dy, scenario.blob_radius)
        yield FeatureMap(feats)


def generate_sequence(scenario: Scenario) -> tuple[FeatureMap, ...]:
    """Every frame of render_frames(scenario), held as one tuple."""
    return tuple(render_frames(scenario))


def _build(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), with what prefixed to any rejection."""
    try:
        return make(*args, **kwargs)
    except (DomainError, DimensionError) as exc:
        raise DomainError(f"{what}: {exc}") from exc


# Box-scorer settings that tracker configs must share to train their
# scorers in lockstep; loss_model, sigma_bb and scorer_tau may differ.
_SHARED_SCORER_FIELDS = (
    "scorer_init",
    "bb_samples",
    "bb_epochs",
    "bb_learning_rate",
    "bb_lr_decay",
    "proposal_weights",
    "proposal_sigmas",
)


@dataclass(frozen=True)
class TrackerConfig:
    """Everything the two-stage tracker needs; defaults favor the divergence loss.

    Building it also builds the settings objects the tracker uses, so every
    check on them runs when the config is made: init_optimizer and
    online_optimizer (the first-frame and the online kernel solves),
    bb_proposal and bb_sgd (box-scorer training; the proposal draws offsets
    from the annotation) and refine_config (box refinement).

    Field types come from the annotations: _check_fields checks them first,
    naming a field as its config key, tracker.<field>.
    """

    loss_model: str = "kl"
    sigma_tc: float | None = None  # absolute label width in cells; None = factor rule
    sigma_tc_factor: float = 0.25  # sigma_tc = factor * sqrt(target area)
    sigma_bb: float = 0.05
    search_scale: float = 5.0
    kernel_size: int = 5
    regularization: float = 1e-2
    init_iterations: int = 10
    online_iterations: int = 2
    update_interval: int = 5
    memory_capacity: int = 15
    gamma_decay: float = 0.99
    augment: bool = True
    miss_threshold_mass: float = 0.05  # kl and nll gate on the 3x3 peak mass
    miss_threshold_score: float = 0.25  # l2 and rl2 gate on the raw peak score
    subcell: bool = True
    scorer_tau: float = 0.2
    scorer_init: str = "fit"  # fit: closed form at the annotation; train: SGD
    refine_step: float = 1e-2
    refine_steps: int = 10
    refine_tol: float = 1e-6
    bb_samples: int = 768
    bb_epochs: int = 150
    bb_learning_rate: float = 0.25
    bb_lr_decay: float = 0.5
    proposal_weights: tuple[float, ...] = (0.5, 0.5)
    proposal_sigmas: tuple[float, ...] = (0.05, 0.5)
    rl2_threshold: float = 0.05  # stage-1 label threshold of the rl2 center solve; not the box stage's

    def __post_init__(self):
        _check_fields(self, names=_TRACKER_NAMES)
        if not math.isfinite(self.miss_threshold_score):
            raise DomainError(f"miss_threshold_score must be finite, got {self.miss_threshold_score!r}")
        if not (0 <= self.miss_threshold_mass <= 1):
            raise DomainError(f"miss_threshold_mass must be in [0, 1], got {self.miss_threshold_mass!r}")
        if not (0 < self.regularization < math.inf):
            raise DomainError(f"tracker.regularization must be positive and finite, got {self.regularization!r}")
        for stage, iterations in (("init", self.init_iterations), ("online", self.online_iterations)):
            opt = _build(
                f"{stage} solver",
                OptimizerConfig,
                regularization=self.regularization,
                iterations=iterations,
                loss_model=self.loss_model,
                rl2_threshold=self.rl2_threshold,
            )
            object.__setattr__(self, f"{stage}_optimizer", opt)
        if self.sigma_tc is not None and not (self.sigma_tc > 0):
            raise DomainError("sigma_tc must be positive when given")
        for name in ("sigma_tc_factor", "sigma_bb", "scorer_tau", "gamma_decay"):
            if not (getattr(self, name) > 0):
                raise DomainError(f"{name} must be positive")
        # The box scorer divides by scorer_tau squared.
        if not (0.0 < self.scorer_tau * self.scorer_tau < math.inf):
            raise DomainError(f"scorer_tau must have a finite positive square, got {self.scorer_tau!r}")
        if self.sigma_tc is not None:
            _build("sigma_tc", gaussian_normalizer, self.sigma_tc, 2)
        _build("sigma_bb", gaussian_normalizer, self.sigma_bb, BOX_DIM)
        if self.bb_samples < 2:
            raise DomainError(f"bb_samples must be at least 2, got {self.bb_samples}")
        weights, sigmas = np.asarray(self.proposal_weights), np.asarray(self.proposal_sigmas)
        proposal = _build("box proposal", MixtureProposal, weights, sigmas, BOX_DIM)
        object.__setattr__(self, "bb_proposal", proposal)
        sgd = (self.bb_learning_rate, self.bb_epochs, self.bb_lr_decay)
        object.__setattr__(self, "bb_sgd", _build("box training", SGDConfig, *sgd))
        ref = (self.refine_step, self.refine_steps, self.refine_tol)
        object.__setattr__(self, "refine_config", _build("box refinement", RefConfig, *ref))
        if not (self.search_scale >= 1):
            raise DomainError("search_scale must be at least 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise DomainError("kernel_size must be odd and positive")
        if self.update_interval < 1 or self.memory_capacity < 1:
            raise DomainError("update_interval and memory_capacity must be at least 1")
        if self.gamma_decay > 1:
            raise DomainError("gamma_decay must be in (0, 1]")
        if self.scorer_init not in ("fit", "train"):
            raise DomainError(f"unknown scorer_init {self.scorer_init!r}")

    def resolved_sigma_tc(self, target_w: float, target_h: float) -> float:
        if self.sigma_tc is not None:
            return self.sigma_tc
        return self.sigma_tc_factor * math.sqrt(target_w * target_h)


_TRACKER_NAMES = {f.name: f"tracker.{f.name}" for f in fields(TrackerConfig)}


@dataclass(eq=False)
class TrackState:
    """Mutable per-sequence tracker state; owned by a single worker."""

    cfg: TrackerConfig
    kernel: Kernel2D
    scorer: object
    support: list
    sample_frames: list
    current_box: tuple[float, float, float, float]
    region: int
    sigma_tc: float
    missing: bool = False
    frame_index: int = 0
    last_peak_mass: float = 1.0  # the annotated first frame is certain


def _crop(values: np.ndarray, center_rc: tuple[int, int], size: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Zero-padded square crop; returns the patch and its (row, col) origin."""
    c, h, w = values.shape
    r0 = center_rc[0] - size // 2
    c0 = center_rc[1] - size // 2
    out = np.zeros((c, size, size))
    rs, re = max(0, r0), min(h, r0 + size)
    cs, ce = max(0, c0), min(w, c0 + size)
    if rs < re and cs < ce:
        out[:, rs - r0 : re - r0, cs - c0 : ce - c0] = values[:, rs:re, cs:ce]
    return out, (r0, c0)


def _make_sample(features: FeatureMap, center_rc: tuple[float, float], sigma: float) -> SupportSample:
    size = features.height
    lbl = label_grid(center_rc, sigma, (size, size))
    return SupportSample(features, lbl, 1.0, (float(center_rc[0]), float(center_rc[1])))


def _set_gamma_weights(state: TrackState):
    ages = state.frame_index - np.asarray(state.sample_frames, dtype=np.float64)
    raw = state.cfg.gamma_decay**ages
    raw /= raw.sum()
    for sample, g in zip(state.support, raw):
        sample.weight = float(g)


def search_region(cfg: TrackerConfig, w: float, h: float) -> int:
    """Side of the square search region around a w x h target, in cells.

    search_scale times the target's geometric mean size, made odd and at
    least the kernel size.  DomainError if that size is not finite.
    """
    size = cfg.search_scale * math.sqrt(w * h)
    if not math.isfinite(size):
        raise DomainError(f"search region {cfg.search_scale!r} x sqrt({w!r} x {h!r}) is not finite")
    return max(int(round(size)) | 1, cfg.kernel_size)


def init_scorers(cfgs, cells) -> list[list]:
    """Initial box scorers of several tracker configs for each of several cells.

    cells is a sequence of (annotated box, rng) pairs.  Each annotation is
    encoded relative to its own center and size, as (0, 0, log w, log h),
    and each scorer is centered on it with its config's scorer_tau.  With
    scorer_init "train" the scorers of all cells are first trained by one
    train_box_scorer call in the target's own frame, each cell on its own
    rng and each distinct (loss_model, sigma_bb, scorer_tau) job once, and
    each trained offset is added to its cell's encoded annotation; so each
    scorer equals the one its config would get alone in its cell from an
    equally seeded generator, and the rngs are used for nothing else.
    Returns one list of scorers, in config order, per cell.  DomainError
    unless the configs agree on every box-scorer setting but loss_model,
    sigma_bb and scorer_tau.
    """
    cfgs, cells = list(cfgs), list(cells)
    if not cfgs:
        raise DomainError("init_scorers needs at least one tracker config")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for name in _SHARED_SCORER_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise DomainError(f"tracker configs disagree on {name}; box scorers cannot share training")
    offsets = np.zeros((len(cells), len(cfgs), BOX_DIM))
    if first.scorer_init == "train":
        # Configs that share a job share its trained row: rows are independent.
        jobs = [(cfg.loss_model, cfg.sigma_bb, cfg.scorer_tau) for cfg in cfgs]
        distinct = list(dict.fromkeys(jobs))
        rngs = [rng for _, rng in cells]
        trained = train_box_scorer(distinct, rngs, first.bb_proposal, first.bb_samples, first.bb_sgd)
        offsets = trained[:, [distinct.index(job) for job in jobs]]
    encoded = np.array([box_encode(w, h) for (_, _, w, h), _ in cells])
    centers = encoded[:, None, :] + offsets
    return [[QuadraticScorer(mu, cfg.scorer_tau) for mu, cfg in zip(row, cfgs)] for row in centers]


def track_init(
    first_frame: FeatureMap,
    init_box: tuple[float, float, float, float],
    cfg: TrackerConfig,
    scorer,
) -> TrackState:
    """Build the initial kernel and support set from the first frame at init_box.

    The support set starts with the crop around the annotation (the anchor,
    never evicted) plus, unless augmentation is off, a horizontal flip and
    four shifted crops.  The kernel is warm-started by label back-projection
    and optimized for cfg.init_iterations.  The box scorer is the given one,
    as init_scorers builds it.
    """
    cx, cy, w, h = init_box
    if not (w > 0 and h > 0):
        raise DomainError(f"init box size must be positive, got {(w, h)}")
    region = search_region(cfg, w, h)
    sigma = cfg.resolved_sigma_tc(w, h)

    center = (int(round(cy)), int(round(cx)))
    base, origin = _crop(first_frame.values, center, region)
    base_rc = (cy - origin[0], cx - origin[1])
    samples = [_make_sample(FeatureMap(base), base_rc, sigma)]
    if cfg.augment:
        flipped = FeatureMap(base[:, :, ::-1].copy())
        samples.append(_make_sample(flipped, (base_rc[0], region - 1 - base_rc[1]), sigma))
        for dr, dc in ((-3, 0), (3, 0), (0, -3), (0, 3)):
            shifted, _ = _crop(first_frame.values, (center[0] + dr, center[1] + dc), region)
            samples.append(_make_sample(FeatureMap(shifted), (base_rc[0] - dr, base_rc[1] - dc), sigma))
    # A tiny memory budget takes precedence over the augmentation count.
    samples = samples[: cfg.memory_capacity]
    for sample in samples:
        sample.weight = 1.0 / len(samples)

    kernel = init_weights(samples, (cfg.kernel_size, cfg.kernel_size))
    kernel, _ = optimize(kernel, samples, cfg.init_optimizer)

    box = (float(cx), float(cy), float(w), float(h))
    return TrackState(cfg, kernel, scorer, samples, [0] * len(samples), box, region, sigma)


def track_step(state: TrackState, frame: FeatureMap) -> tuple[TrackState, tuple, GridDensity]:
    """Advance one frame; returns (state, reported box, stage-1 density)."""
    cfg = state.cfg
    state.frame_index += 1
    cx, cy, w, h = state.current_box
    feats, origin = _crop(frame.values, (int(round(cy)), int(round(cx))), state.region)
    try:
        features = FeatureMap(feats)
        scores = conv_apply(features, state.kernel)
    except DomainError:  # the score grid rejects non-finite values
        # Numeric failure: skip the frame rather than poisoning the model.
        state.missing = True
        state.last_peak_mass = 0.0
        n = state.region
        flat = Grid2D(np.full((n, n), 1.0 / (n * n)))
        return state, state.current_box, GridDensity(flat)

    dens = normalize(scores)
    peak, mass, mean = read_peak(dens)
    state.last_peak_mass = mass
    if cfg.loss_model in DENSITY_MODELS:
        missing = mass < cfg.miss_threshold_mass
    else:
        missing = float(scores.values.max()) < cfg.miss_threshold_score
    if missing:
        state.missing = True
        return state, state.current_box, dens

    state.missing = False
    est = mean if cfg.subcell else (float(peak[0]), float(peak[1]))
    new_cx = origin[1] + est[1]
    new_cy = origin[0] + est[0]

    # Stage 2: refine (center offset, log size) around the stage-1 center.
    (dx, dy, log_w, log_h), _ = refine_box(state.scorer, box_encode(w, h), cfg.refine_config)
    try:
        new_w, new_h = math.exp(log_w), math.exp(log_h)
    except OverflowError:
        new_w = new_h = math.inf
    if not (0 < new_w < math.inf and 0 < new_h < math.inf):
        # A scorer whose optimum lies beyond the float range is a training failure.
        raise NumericError(f"box refinement at frame {state.frame_index}: decoded box size is not positive and finite")
    box = (new_cx + dx * w, new_cy + dy * h, new_w, new_h)
    state.current_box = box

    sample = _make_sample(features, est, state.sigma_tc)
    state.support.append(sample)
    state.sample_frames.append(state.frame_index)
    while len(state.support) > cfg.memory_capacity:
        # Index 0 is the first-frame anchor and never leaves.
        state.support.pop(1)
        state.sample_frames.pop(1)
    if state.frame_index % cfg.update_interval == 0:
        _set_gamma_weights(state)
        state.kernel, _ = optimize(state.kernel, state.support, cfg.online_optimizer)
    return state, box, dens


@dataclass(frozen=True)
class TrackRun:
    """Per-frame outputs of one tracked sequence."""

    boxes: list
    missing: list
    peak_mass: list


def run_sequence(frames, init_box, cfg: TrackerConfig, scorer) -> TrackRun:
    """Initialize on the first of frames (any iterable) at init_box with scorer, and track the rest."""
    frames = iter(frames)
    state = track_init(next(frames), init_box, cfg, scorer)
    boxes, missing, masses = [state.current_box], [False], [state.last_peak_mass]
    for frame in frames:
        state, box, _ = track_step(state, frame)
        boxes.append(box)
        missing.append(state.missing)
        masses.append(state.last_peak_mass)
    return TrackRun(boxes, missing, masses)


@dataclass(frozen=True, eq=False)
class TrackingMetrics:
    """Overlap-precision curve over the 101 thresholds 0.00, ..., 1.00 and its mean (the AUC)."""

    op: np.ndarray
    auc: float

    def op_at(self, threshold: float) -> float:
        idx = int(round(threshold * 100))
        if not (0 <= idx <= 100):
            raise DomainError(f"threshold {threshold} outside [0, 1]")
        return float(self.op[idx])


def evaluate(truth, boxes) -> TrackingMetrics:
    """Score reported boxes against the ground-truth boxes, one per frame.

    OP_T is the fraction of frames whose overlap exceeds T, for
    T = 0.00, 0.01, ..., 1.00; the AUC is the mean of the 101 values.
    """
    truth, boxes = list(truth), list(boxes)
    if len(boxes) != len(truth):
        raise DimensionError(f"{len(boxes)} reported boxes for {len(truth)} ground-truth boxes")
    ious = iou_xywh(np.reshape(boxes, (-1, 4)), np.reshape(truth, (-1, 4)))
    thresholds = np.arange(101, dtype=np.float64) / 100.0
    op = (ious[None, :] > thresholds[:, None]).mean(axis=1)
    return TrackingMetrics(op, float(op.mean()))
