"""Two-stage tracking on synthetic feature sequences.

Sequences are rendered directly in feature space: the target is a Gaussian
blob carrying a fixed channel signature, moving along a closed-form path
(linear drift plus an optional sinusoid), with optional distractor blobs
of similar signature, occlusion windows that suppress the target, and
additive noise.  Boxes are center-format (cx, cy, w, h) in cell units with
x along columns and y along rows; cell (i, j) sits at x = j, y = i.

Tracking per frame:

* stage 1 locates the target center: correlate the learned kernel over a
  search region around the previous box, normalize the scores to a density
  and read off the (optionally sub-cell refined) peak;
* a confidence gate declares the target missing when the density mass in
  the 3x3 peak neighborhood (or the raw peak score, for the squared-error
  model families whose outputs are not calibrated masses) is too small; a
  missing frame freezes the box and skips all model updates;
* stage 2 refines the box: the candidate (previous size at the new center)
  is encoded relative to the stage-1 center and gradient-ascended on the
  box scorer;
* memory: the search-region features and a Gaussian label at the estimated
  center are appended to the support set (self-labeling), the oldest
  non-anchor sample is evicted at capacity, and every update_interval
  frames the kernel is re-optimized under exponentially decayed sample
  weights.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .bbox import (
    BOX_DIM,
    BoxParam,
    QuadraticScorer,
    RbfMixtureScorer,
    RefConfig,
    SGDConfig,
    refine_box,
    train_box_scorer,
)
from .center_optimizer import OptimizerConfig, SupportSample, TargetModel, init_weights, optimize
from .density import GridDensity, argmax_state, expected_state, normalize
from .errors import DimensionError, DomainError
from .gridmath import FeatureMap, Grid2D, conv_apply
from .labels import GaussianLabel, MixtureProposal, gaussian_normalizer, iou_xywh, label_grid

__all__ = [
    "Scenario",
    "Frame",
    "SyntheticSequence",
    "generate_sequence",
    "TrackerConfig",
    "TrackState",
    "search_region",
    "init_scorers",
    "track_init",
    "track_step",
    "run_sequence",
    "TrackingMetrics",
    "evaluate",
    "write_track_csv",
]


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false in a config is never a count.
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value):
    if not _is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")


def _require_real(name: str, value):
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        float(value)
    except OverflowError:
        raise DomainError(f"{name} is outside the floating-point range") from None


def _require_finite(name: str, value):
    _require_real(name, value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


_SCENARIO_REAL_FIELDS = (
    "target_w",
    "target_h",
    "start_x",
    "start_y",
    "velocity_x",
    "velocity_y",
    "osc_amp_x",
    "osc_amp_y",
    "osc_period",
    "blob_radius",
    "distractor_similarity",
    "noise_level",
)


@dataclass(frozen=True)
class Scenario:
    """Parameters of one synthetic sequence; the target path is closed-form."""

    name: str = "custom"
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
        for name in ("num_frames", "height", "width", "channels", "distractor_count"):
            _require_int(name, getattr(self, name))
        for name in _SCENARIO_REAL_FIELDS:
            _require_finite(name, getattr(self, name))
        if self.num_frames < 1 or self.height < 1 or self.width < 1 or self.channels < 1:
            raise DomainError("frame counts and dimensions must be positive")
        if not (self.target_w > 0 and self.target_h > 0 and self.blob_radius > 0):
            raise DomainError("target size and blob radius must be positive")
        if not (self.osc_period > 0):
            raise DomainError("osc_period must be positive")
        if self.distractor_count < 0 or not (0.0 <= self.distractor_similarity <= 1.0):
            raise DomainError("bad distractor settings")
        if self.noise_level < 0:
            raise DomainError("noise_level must be nonnegative")
        occs = tuple(tuple(pair) for pair in self.occlusions)
        for pair in occs:
            if len(pair) != 2:
                raise DomainError(f"occlusion interval {pair} must be a (start, end) pair")
            for bound in pair:
                _require_int("occlusion bound", bound)
            if not (0 <= pair[0] < pair[1]):
                raise DomainError(f"bad occlusion interval {pair}")
        object.__setattr__(self, "occlusions", occs)

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


@dataclass(frozen=True, eq=False)
class Frame:
    """One observation: a feature map, plus the annotated box when known."""

    features: FeatureMap
    ground_truth_box: tuple[float, float, float, float] | None = None


@dataclass(frozen=True, eq=False)
class SyntheticSequence:
    frames: tuple[Frame, ...]
    scenario: Scenario

    def __len__(self) -> int:
        return len(self.frames)


def _unit(v: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n == 0.0:
        v = np.zeros_like(v)
        v[0] = 1.0
        return v
    return v / n


def _blob(h: int, w: int, cx: float, cy: float, radius: float) -> np.ndarray:
    rows = (np.arange(h, dtype=np.float64) - cy) ** 2
    cols = (np.arange(w, dtype=np.float64) - cx) ** 2
    return np.exp(-(rows[:, None] + cols[None, :]) / (2.0 * radius * radius))


def generate_sequence(scenario: Scenario, rng: np.random.Generator | None = None) -> SyntheticSequence:
    """Render a sequence; bit-identical for equal seeds (or an equal rng state)."""
    if rng is None:
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

    frames = []
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
        frames.append(Frame(FeatureMap(feats), scenario.target_box(t)))
    return SyntheticSequence(tuple(frames), scenario)


def _build(what: str, make, *args, **kwargs):
    """make(*args, **kwargs), with what prefixed to any rejection."""
    try:
        return make(*args, **kwargs)
    except (DomainError, DimensionError) as exc:
        raise DomainError(f"{what}: {exc}") from exc


_INT_FIELDS = (
    "kernel_size",
    "init_iterations",
    "online_iterations",
    "update_interval",
    "memory_capacity",
    "refine_steps",
    "bb_samples",
    "bb_epochs",
)
_REAL_FIELDS = (
    "sigma_tc_factor",
    "sigma_bb",
    "search_scale",
    "regularization",
    "gamma_decay",
    "miss_threshold_mass",
    "miss_threshold_score",
    "scorer_tau",
    "refine_step",
    "refine_tol",
    "bb_learning_rate",
    "bb_lr_decay",
    "rl2_threshold",
)
_BOOL_FIELDS = ("augment", "subcell")
# Box-scorer settings that tracker configs must share to train their
# scorers in lockstep; loss_model, sigma_bb and scorer_tau may differ.
_SHARED_SCORER_FIELDS = (
    "scorer_family",
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
    bb_proposal and bb_sgd (box-scorer training; the proposal is centered
    at the origin and recentered on each annotation) and refine_config
    (box refinement).
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
    miss_mode: str = "auto"  # auto: mass for kl/nll, raw score for l2/rl2
    miss_threshold_mass: float = 0.05
    miss_threshold_score: float = 0.25
    subcell: bool = True
    scorer_family: str = "quadratic"
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
    rl2_threshold: float = 0.05

    def __post_init__(self):
        for name in _INT_FIELDS:
            _require_int(name, getattr(self, name))
        for name in _REAL_FIELDS:
            _require_real(name, getattr(self, name))
        if self.sigma_tc is not None:
            _require_real("sigma_tc", self.sigma_tc)
        _require_finite("miss_threshold_score", self.miss_threshold_score)
        if not (0 <= self.miss_threshold_mass <= 1):
            raise DomainError(f"miss_threshold_mass must be in [0, 1], got {self.miss_threshold_mass!r}")
        for name in _BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise DomainError(f"{name} must be a boolean, got {getattr(self, name)!r}")
        if not (self.regularization > 0):
            raise DomainError(f"regularization must be positive, got {self.regularization!r}")
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
        if self.sigma_tc is not None:
            _build("sigma_tc", gaussian_normalizer, self.sigma_tc, 2)
        _build("sigma_bb", gaussian_normalizer, self.sigma_bb, BOX_DIM)
        if self.bb_samples < 2:
            raise DomainError(f"bb_samples must be at least 2, got {self.bb_samples}")
        weights, sigmas = np.asarray(self.proposal_weights), np.asarray(self.proposal_sigmas)
        proposal = _build("box proposal", MixtureProposal, weights, sigmas, np.zeros(BOX_DIM))
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
        if self.miss_mode not in ("auto", "mass", "score"):
            raise DomainError(f"unknown miss_mode {self.miss_mode!r}")
        if self.scorer_init not in ("fit", "train"):
            raise DomainError(f"unknown scorer_init {self.scorer_init!r}")
        if self.scorer_family not in ("quadratic", "rbf"):
            raise DomainError(f"unknown scorer_family {self.scorer_family!r}")

    def resolved_sigma_tc(self, target_w: float, target_h: float) -> float:
        if self.sigma_tc is not None:
            return self.sigma_tc
        return self.sigma_tc_factor * math.sqrt(target_w * target_h)

    def resolved_miss_mode(self) -> str:
        if self.miss_mode != "auto":
            return self.miss_mode
        return "mass" if self.loss_model in ("kl", "nll") else "score"


@dataclass(eq=False)
class TrackState:
    """Mutable per-sequence tracker state; owned by a single worker."""

    cfg: TrackerConfig
    model: TargetModel
    scorer: object
    support: list = field(default_factory=list)
    sample_frames: list = field(default_factory=list)
    current_box: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    missing: bool = False
    frame_index: int = 0
    region: int = 31
    sigma_tc: float = 1.5
    last_peak_mass: float = 0.0


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
    lbl = label_grid(GaussianLabel(np.array(center_rc), sigma), (size, size))
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


def init_scorers(cfgs, init_box: tuple[float, float, float, float], rng: np.random.Generator) -> list:
    """Initial box scorers of several tracker configs for one annotated box.

    The annotation is encoded relative to its own center.  The rbf family's
    random offsets are drawn once and every scorer gets the same ones; with
    scorer_init "train" the scorers are then trained in lockstep on one
    proposal stream.  Each scorer therefore equals the one its config would
    get alone from an equally seeded generator.  DomainError unless the
    configs agree on every box-scorer setting but loss_model, sigma_bb and
    scorer_tau.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise DomainError("init_scorers needs at least one tracker config")
    first = cfgs[0]
    for cfg in cfgs[1:]:
        for name in _SHARED_SCORER_FIELDS:
            if getattr(cfg, name) != getattr(first, name):
                raise DomainError(f"tracker configs disagree on {name}; box scorers cannot share training")
    _, _, w, h = init_box
    if not (w > 0 and h > 0):
        raise DomainError(f"init box size must be positive, got {(w, h)}")
    anchor = BoxParam(np.array([0.0, 0.0, math.log(w), math.log(h)]), (w, h))
    if first.scorer_family == "rbf":
        offsets = np.vstack([np.zeros(4), 0.3 * rng.standard_normal((7, 4))])
    scorers = []
    for cfg in cfgs:
        if first.scorer_family == "quadratic":
            scorers.append(QuadraticScorer(anchor.values.copy(), cfg.scorer_tau))
        else:
            amps = np.zeros(len(offsets))
            amps[0] = 1.0
            scorers.append(RbfMixtureScorer(anchor.values + offsets, np.full(len(offsets), cfg.scorer_tau), amps))
    if first.scorer_init == "train":
        jobs = [(scorer, cfg.loss_model, cfg.sigma_bb) for scorer, cfg in zip(scorers, cfgs)]
        train_box_scorer(jobs, [anchor], first.bb_proposal, first.bb_samples, first.bb_sgd, rng)
    return scorers


def track_init(
    first_frame: Frame,
    init_box: tuple[float, float, float, float],
    cfg: TrackerConfig,
    rng: np.random.Generator | None = None,
    scorer=None,
) -> TrackState:
    """Build the initial model from the annotated first frame.

    The support set starts with the crop around the annotation (the anchor,
    never evicted) plus, unless augmentation is off, a horizontal flip and
    four shifted crops.  The kernel is warm-started by label back-projection
    and optimized for cfg.init_iterations.  The box scorer is the given one,
    or else init_scorers([cfg], init_box, rng)[0]; rng (seed 0 if omitted)
    is used for nothing else.
    """
    cx, cy, w, h = init_box
    if not (w > 0 and h > 0):
        raise DomainError(f"init box size must be positive, got {(w, h)}")
    region = search_region(cfg, w, h)
    sigma = cfg.resolved_sigma_tc(w, h)

    center = (int(round(cy)), int(round(cx)))
    base, origin = _crop(first_frame.features.values, center, region)
    base_rc = (cy - origin[0], cx - origin[1])
    samples = [_make_sample(FeatureMap(base), base_rc, sigma)]
    if cfg.augment:
        flipped = FeatureMap(base[:, :, ::-1].copy())
        samples.append(_make_sample(flipped, (base_rc[0], region - 1 - base_rc[1]), sigma))
        for dr, dc in ((-3, 0), (3, 0), (0, -3), (0, 3)):
            shifted, _ = _crop(first_frame.features.values, (center[0] + dr, center[1] + dc), region)
            samples.append(_make_sample(FeatureMap(shifted), (base_rc[0] - dr, base_rc[1] - dc), sigma))
    # A tiny memory budget takes precedence over the augmentation count.
    samples = samples[: cfg.memory_capacity]
    for sample in samples:
        sample.weight = 1.0 / len(samples)

    model = init_weights(samples, (cfg.kernel_size, cfg.kernel_size))
    model, _ = optimize(model, samples, cfg.init_optimizer)

    if scorer is None:
        if rng is None:
            rng = np.random.Generator(np.random.PCG64(0))
        scorer = init_scorers([cfg], init_box, rng)[0]

    state = TrackState(cfg=cfg, model=model, scorer=scorer)
    state.support = samples
    state.sample_frames = [0] * len(samples)
    state.current_box = (float(cx), float(cy), float(w), float(h))
    state.region = region
    state.sigma_tc = sigma
    state.last_peak_mass = 1.0
    return state


def _peak_mass(dens: GridDensity, peak_rc: tuple[int, int]) -> float:
    r0, c0 = peak_rc
    h, w = dens.grid.values.shape
    patch = dens.grid.values[max(r0 - 1, 0) : r0 + 2, max(c0 - 1, 0) : c0 + 2]
    return float(patch.sum()) * dens.cell_area


def track_step(state: TrackState, frame: Frame) -> tuple[TrackState, tuple, GridDensity]:
    """Advance one frame; returns (state, reported box, stage-1 density)."""
    cfg = state.cfg
    state.frame_index += 1
    cx, cy, w, h = state.current_box
    feats, origin = _crop(frame.features.values, (int(round(cy)), int(round(cx))), state.region)
    try:
        features = FeatureMap(feats)
        scores = conv_apply(features, state.model.weights)
    except DomainError:  # the score grid rejects non-finite values
        scores = None
    if scores is None or not np.isfinite(scores.values).all():
        # Numeric failure: skip the frame rather than poisoning the model.
        state.missing = True
        state.last_peak_mass = 0.0
        n = state.region
        flat = Grid2D(np.full((n, n), 1.0 / (n * n)))
        return state, state.current_box, GridDensity(flat, 1.0, 0.0)

    dens = normalize(scores, 1.0)
    peak = argmax_state(dens)
    mass = _peak_mass(dens, peak)
    state.last_peak_mass = mass
    if cfg.resolved_miss_mode() == "mass":
        missing = mass < cfg.miss_threshold_mass
    else:
        missing = float(scores.values.max()) < cfg.miss_threshold_score
    if missing:
        state.missing = True
        return state, state.current_box, dens

    state.missing = False
    est = expected_state(dens) if cfg.subcell else (float(peak[0]), float(peak[1]))
    new_cx = origin[1] + est[1]
    new_cy = origin[0] + est[0]

    # Stage 2: refine (center offset, log size) around the stage-1 center.
    candidate = BoxParam(np.array([0.0, 0.0, math.log(w), math.log(h)]), (w, h))
    refined = refine_box(state.scorer, candidate, cfg.refine_config)
    dx, dy, new_w, new_h = refined.decode()
    box = (new_cx + dx, new_cy + dy, new_w, new_h)
    state.current_box = box

    sample = _make_sample(features, est, state.sigma_tc)
    # The next solve starts from this kernel, so it can reuse these scores.
    sample.keep(state.model.weights.values, scores.values)
    state.support.append(sample)
    state.sample_frames.append(state.frame_index)
    while len(state.support) > cfg.memory_capacity:
        # Index 0 is the first-frame anchor and never leaves.
        state.support.pop(1)
        state.sample_frames.pop(1)
    if state.frame_index % cfg.update_interval == 0:
        _set_gamma_weights(state)
        state.model, _ = optimize(state.model, state.support, cfg.online_optimizer)
    return state, box, dens


@dataclass(frozen=True)
class TrackRun:
    """Per-frame outputs of one tracked sequence."""

    boxes: list
    missing: list
    peak_mass: list

    def trace_rows(self, sequence: SyntheticSequence) -> list:
        rows = []
        for t, box in enumerate(self.boxes):
            gt = sequence.frames[t].ground_truth_box
            iou = float(iou_xywh(np.asarray(box), np.asarray(gt))) if gt is not None else math.nan
            rows.append(
                {
                    "frame": t,
                    "cx": box[0],
                    "cy": box[1],
                    "w": box[2],
                    "h": box[3],
                    "iou": iou,
                    "missing": int(self.missing[t]),
                    "peak_mass": self.peak_mass[t],
                }
            )
        return rows


def run_sequence(
    sequence: SyntheticSequence,
    cfg: TrackerConfig,
    rng: np.random.Generator | None = None,
    scorer=None,
) -> TrackRun:
    """Initialize on frame 0 ground truth and track the remaining frames.

    rng and scorer are passed to track_init.
    """
    first = sequence.frames[0]
    if first.ground_truth_box is None:
        raise DomainError("the first frame needs a ground-truth box to initialize")
    state = track_init(first, first.ground_truth_box, cfg, rng, scorer)
    boxes = [state.current_box]
    missing = [False]
    masses = [state.last_peak_mass]
    for frame in sequence.frames[1:]:
        state, box, _ = track_step(state, frame)
        boxes.append(box)
        missing.append(state.missing)
        masses.append(state.last_peak_mass)
    return TrackRun(boxes, missing, masses)


@dataclass(frozen=True, eq=False)
class TrackingMetrics:
    """Overlap-precision curve over 101 thresholds and its mean (the AUC)."""

    thresholds: np.ndarray
    op: np.ndarray
    auc: float

    def op_at(self, threshold: float) -> float:
        idx = int(round(threshold * 100))
        if not (0 <= idx <= 100):
            raise DomainError(f"threshold {threshold} outside [0, 1]")
        return float(self.op[idx])


def evaluate(sequence: SyntheticSequence, boxes) -> TrackingMetrics:
    """Score reported boxes against ground truth.

    OP_T is the fraction of annotated frames whose overlap exceeds T, for
    T = 0.00, 0.01, ..., 1.00; the AUC is the mean of the 101 values.
    """
    annotated = [f.ground_truth_box for f in sequence.frames if f.ground_truth_box is not None]
    boxes = list(boxes)
    if len(boxes) != len(annotated):
        raise DimensionError(
            f"{len(boxes)} reported boxes for {len(annotated)} annotated frames"
        )
    ious = np.array(
        [iou_xywh(np.asarray(b), np.asarray(gt)) for b, gt in zip(boxes, annotated)]
    )
    thresholds = np.arange(101, dtype=np.float64) / 100.0
    op = (ious[None, :] > thresholds[:, None]).mean(axis=1)
    return TrackingMetrics(thresholds, op, float(op.mean()))


def write_track_csv(rows, path):
    """Per-frame trace CSV: frame, box, overlap, missing flag, peak mass."""
    cols = ["frame", "cx", "cy", "w", "h", "iou", "missing", "peak_mass"]
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(cols)
        for row in rows:
            out.writerow([row["frame"]] + [repr(float(row[c])) for c in cols[1:-2]] + [row["missing"], repr(float(row["peak_mass"]))])
