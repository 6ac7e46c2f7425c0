"""Sequence synthesis, two-stage tracking, and overlap metrics."""

import hashlib
import math

import numpy as np
import pytest

from _oracles import iou_brute, recount_op_auc
from prtrack.bbox import train_box_scorer
from prtrack.density import read_peak
from prtrack.errors import DimensionError, DomainError
from prtrack.gridmath import Kernel2D
from prtrack.tracker import (
    Scenario,
    TrackerConfig,
    evaluate,
    generate_sequence,
    init_scorers,
    run_sequence,
    search_region,
    track_init,
    track_step,
)

STATIC = Scenario(num_frames=30, start_x=20.0, start_y=20.0)


def _truth(scenario):
    return [scenario.target_box(t) for t in range(scenario.num_frames)]


def _scorer(cfg, box, seed=0):
    """The box scorer init_scorers builds for cfg at box, from a stream seeded with seed."""
    [[scorer]] = init_scorers([cfg], [(box, np.random.Generator(np.random.PCG64(seed)))])
    return scorer


def _init(frame, box, cfg):
    return track_init(frame, box, cfg, _scorer(cfg, box))


def _run(scenario, **cfg_kwargs):
    frames = generate_sequence(scenario)
    cfg = TrackerConfig(**cfg_kwargs)
    return run_sequence(frames, scenario.target_box(0), cfg, _scorer(cfg, scenario.target_box(0), 99))


# ---------------------------------------------------------------------------
# sequence generation
# ---------------------------------------------------------------------------


def test_static_noiseless_frames_identical():
    frames = generate_sequence(STATIC)
    for frame in frames[1:]:
        np.testing.assert_array_equal(frame.values, frames[0].values)


def test_generation_is_bit_identical_for_equal_seeds():
    scenario = Scenario(
        num_frames=20, velocity_x=0.3, osc_amp_y=2.0, noise_level=0.1,
        distractor_count=2, seed=7,
    )
    a = generate_sequence(scenario)
    b = generate_sequence(scenario)
    assert len(a) == len(b) == scenario.num_frames
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)


def test_ground_truth_matches_motion_closed_form():
    scenario = Scenario(
        num_frames=40, start_x=14.0, start_y=18.0, velocity_x=0.3,
        velocity_y=0.22, osc_amp_x=2.5, osc_amp_y=2.0, osc_period=29.0,
        noise_level=0.05, distractor_count=2, seed=3,
    )
    for t in range(scenario.num_frames):
        phase = 2.0 * math.pi * t / scenario.osc_period
        cx = scenario.start_x + scenario.velocity_x * t + scenario.osc_amp_x * math.sin(phase)
        cy = scenario.start_y + scenario.velocity_y * t + scenario.osc_amp_y * math.sin(phase)
        gx, gy, gw, gh = scenario.target_box(t)
        assert abs(gx - cx) <= 1e-12 and abs(gy - cy) <= 1e-12
        assert (gw, gh) == (scenario.target_w, scenario.target_h)


def test_occluded_frames_lack_target_signature():
    scenario = Scenario(num_frames=10, occlusions=((4, 7),))
    frames = generate_sequence(scenario)
    for t in (4, 5, 6):
        assert np.all(frames[t].values == 0.0)
    assert frames[3].values.max() > 0.5


def test_scenario_validation():
    with pytest.raises(DomainError):
        Scenario(num_frames=0)
    with pytest.raises(DomainError):
        Scenario(blob_radius=0.0)
    with pytest.raises(DomainError):
        Scenario(distractor_similarity=1.5)
    with pytest.raises(DomainError):
        Scenario(occlusions=((5, 5),))
    with pytest.raises(DomainError):
        Scenario(noise_level=-0.1)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_density_peaks_at_annotated_center():
    frames = generate_sequence(STATIC)
    state = _init(frames[0], STATIC.target_box(0), TrackerConfig())
    _, _, dens = track_step(state, frames[0])
    assert read_peak(dens)[0] == (state.region // 2, state.region // 2)


def test_init_augmented_support_layout():
    state = _init(generate_sequence(STATIC)[0], STATIC.target_box(0), TrackerConfig())
    assert len(state.support) == 6  # base, flip, four shifts
    assert sum(s.weight for s in state.support) == pytest.approx(1.0)


def test_init_deterministic_for_equal_seeds():
    frame = generate_sequence(STATIC)[0]
    cfg = TrackerConfig(scorer_init="train", bb_samples=32, bb_epochs=10)

    def build():
        return track_init(frame, STATIC.target_box(0), cfg, _scorer(cfg, STATIC.target_box(0), 17))

    a, b = build(), build()
    np.testing.assert_array_equal(a.kernel.values, b.kernel.values)
    np.testing.assert_array_equal(a.scorer.mu, b.scorer.mu)


BOX = (20.0, 20.0, 6.0, 4.0)
SHORT_TRAINING = dict(scorer_init="train", bb_samples=32, bb_epochs=8)


@pytest.mark.parametrize("family", ["quadratic"])
def test_init_scorers_match_each_config_alone(family):
    # Lockstep construction gives each config the scorer it would get
    # alone from an equally seeded generator, bit for bit.
    cfgs = [
        TrackerConfig(loss_model=loss, sigma_bb=sigma, scorer_tau=tau, **SHORT_TRAINING)
        for loss, sigma, tau in (("l2", 0.05, 0.2), ("kl", 0.05, 0.2), ("kl", 0.1, 0.3), ("nll", 0.05, 0.2))
    ]
    rng = np.random.Generator(np.random.PCG64(18))
    [together] = init_scorers(cfgs, [(BOX, rng)])
    for cfg, got in zip(cfgs, together):
        alone_rng = np.random.Generator(np.random.PCG64(18))
        [[want]] = init_scorers([cfg], [(BOX, alone_rng)])
        assert np.array_equal(got.mu, want.mu)
        assert got.tau == want.tau == cfg.scorer_tau
        assert alone_rng.bit_generator.state == rng.bit_generator.state


def test_init_scorers_train_a_shared_job_once(monkeypatch):
    # Configs that differ only outside box training share one trained job,
    # and each still gets the scorer it would get alone.
    from prtrack import tracker

    cfgs = [
        TrackerConfig(loss_model=loss, sigma_tc=sigma_tc, **SHORT_TRAINING)
        for loss, sigma_tc in (("kl", 0.5), ("l2", 1.5), ("kl", 1.5), ("kl", 15.0))
    ]
    passed = []

    def recording(jobs, *args, **schedule):
        passed.append(list(jobs))
        return train_box_scorer(jobs, *args, **schedule)

    monkeypatch.setattr(tracker, "train_box_scorer", recording)
    [together] = init_scorers(cfgs, [(BOX, np.random.Generator(np.random.PCG64(19)))])
    assert [[job[0] for job in jobs] for jobs in passed] == [["kl", "l2"]]
    for cfg, got in zip(cfgs, together):
        assert np.array_equal(got.mu, _scorer(cfg, BOX, seed=19).mu)


def test_init_with_a_given_scorer_matches_building_it():
    frame, box = generate_sequence(STATIC)[0], STATIC.target_box(0)
    cfg = TrackerConfig(**SHORT_TRAINING)
    [[scorer]] = init_scorers([cfg], [(box, np.random.Generator(np.random.PCG64(20)))])
    given = track_init(frame, box, cfg, scorer)
    assert given.scorer is scorer


@pytest.mark.parametrize(
    "field,value",
    [
        ("scorer_init", "fit"),
        ("bb_samples", 64),
        ("bb_epochs", 9),
        ("bb_learning_rate", 0.1),
        ("bb_lr_decay", 0.25),
        ("proposal_weights", (0.25, 0.75)),
        ("proposal_sigmas", (0.05, 0.4)),
    ],
)
def test_init_scorers_rejects_configs_that_disagree_on_box_settings(field, value):
    cfgs = [TrackerConfig(**SHORT_TRAINING), TrackerConfig(**{**SHORT_TRAINING, field: value})]
    rng = np.random.Generator(np.random.PCG64(21))
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match=field):
        init_scorers(cfgs, [(BOX, rng)])
    assert rng.bit_generator.state == state


def test_init_scorers_of_a_group_match_each_cell_alone():
    # Cells with their own boxes and streams train together; each cell's
    # scorers equal the ones it gets alone, and each stream ends where it
    # would alone.
    cfgs = [
        TrackerConfig(loss_model=loss, sigma_bb=sigma, scorer_tau=tau, **SHORT_TRAINING)
        for loss, sigma, tau in (("rl2", 0.05, 0.2), ("kl", 0.05, 0.2), ("kl", 0.1, 0.3), ("nll", 0.05, 0.25))
    ]
    boxes = [BOX, (14.0, 9.5, 3.0, 7.5), (31.0, 22.0, 9.0, 5.0)]
    streams = [np.random.Generator(np.random.PCG64(22 + i)) for i in range(len(boxes))]
    group = init_scorers(cfgs, list(zip(boxes, streams)))
    assert [len(row) for row in group] == [len(cfgs)] * len(boxes)
    for i, (box, stream, got) in enumerate(zip(boxes, streams, group)):
        alone_rng = np.random.Generator(np.random.PCG64(22 + i))
        [want] = init_scorers(cfgs, [(box, alone_rng)])
        for g, w, cfg in zip(got, want, cfgs):
            assert np.array_equal(g.mu, w.mu)
            assert g.tau == w.tau == cfg.scorer_tau
        assert alone_rng.bit_generator.state == stream.bit_generator.state


def test_trained_scorers_match_their_pinned_digest():
    # The centers that default box training gives the four loss models on
    # three cells of different sizes, bit for bit: the pinned CSV digests
    # can hold while the centers move in their last bits.
    cfgs = [TrackerConfig(loss_model=loss, scorer_init="train") for loss in ("l2", "rl2", "nll", "kl")]
    boxes = [BOX, (14.0, 9.5, 3.0, 7.5), (31.0, 22.0, 9.0, 5.0)]
    cells = [(box, np.random.Generator(np.random.PCG64(70 + i))) for i, box in enumerate(boxes)]
    centers = np.array([[scorer.mu for scorer in row] for row in init_scorers(cfgs, cells)])
    digest = hashlib.sha256(centers.tobytes()).hexdigest()
    assert digest == "b491dda99d06708589976f70c49d41177e65aa571af25f567ae2980aee4646e2"


def test_search_region_is_odd_and_fits_the_kernel():
    assert search_region(TrackerConfig(), 6.0, 6.0) == 31
    assert search_region(TrackerConfig(), 6.0, 4.0) == 25
    assert search_region(TrackerConfig(search_scale=1.0, kernel_size=9), 2.0, 2.0) == 9
    with pytest.raises(DomainError, match="not finite"):
        search_region(TrackerConfig(search_scale=math.inf), 6.0, 6.0)
    with pytest.raises(DomainError, match="not finite"):
        search_region(TrackerConfig(), 1e200, 1e200)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("miss_threshold_mass", "x", "must be a real number"),
        ("miss_threshold_score", None, "must be a real number"),
        ("sigma_bb", True, "must be a real number"),
        ("sigma_tc", "1.5", "must be a real number"),
        pytest.param("refine_tol", 10**400, "is outside the floating-point range", id="refine_tol-10**400"),
    ],
)
def test_tracker_config_checks_field_types(field, value, message):
    with pytest.raises(DomainError, match=f"{field} {message}"):
        TrackerConfig(**{field: value})


def test_tracker_config_accepts_integers_and_numpy_reals_for_real_fields():
    cfg = TrackerConfig(sigma_bb=np.float64(0.05), search_scale=5, miss_threshold_mass=np.int64(0))
    assert cfg.search_scale == 5


def test_init_rejects_degenerate_box():
    with pytest.raises(DomainError):
        track_init(generate_sequence(STATIC)[0], (20.0, 20.0, 0.0, 6.0), TrackerConfig(), None)


def test_sigma_rule_and_miss_mode_resolution():
    cfg = TrackerConfig()
    assert cfg.resolved_sigma_tc(6.0, 6.0) == pytest.approx(1.5)
    assert cfg.resolved_sigma_tc(4.0, 9.0) == pytest.approx(1.5)
    assert TrackerConfig(sigma_tc=0.8).resolved_sigma_tc(6.0, 6.0) == 0.8
    # The miss gate follows the loss family: kl and nll read the 3x3 peak
    # mass, l2 and rl2 the raw peak score.  Each config sets one threshold
    # that misses every frame and one that misses none.
    frames = generate_sequence(STATIC)
    for model, mass_gate in (("kl", True), ("nll", True), ("l2", False), ("rl2", False)):
        for mass_threshold, score_threshold in ((1.0, -1e300), (0.0, 1e300)):
            cfg = TrackerConfig(
                loss_model=model,
                miss_threshold_mass=mass_threshold,
                miss_threshold_score=score_threshold,
            )
            state, _, _ = track_step(_init(frames[0], STATIC.target_box(0), cfg), frames[1])
            assert state.missing == ((mass_threshold == 1.0) == mass_gate), (model, mass_threshold)


def test_tracker_config_validation():
    with pytest.raises(DomainError):
        TrackerConfig(loss_model="huber")
    with pytest.raises(DomainError):
        TrackerConfig(kernel_size=4)
    with pytest.raises(DomainError):
        TrackerConfig(search_scale=0.5)
    with pytest.raises(DomainError):
        TrackerConfig(gamma_decay=1.5)


def test_tracker_config_builds_box_settings_once(monkeypatch):
    # The box proposal is built with the config; training and tracking build none.
    from prtrack import tracker

    cfg = TrackerConfig(scorer_init="train", bb_epochs=3, bb_samples=8)
    np.testing.assert_array_equal(cfg.bb_proposal.sigmas, cfg.proposal_sigmas)
    monkeypatch.setattr(tracker, "MixtureProposal", None)
    scenario = Scenario(num_frames=4, start_x=20.0, start_y=20.0)
    scorer = _scorer(cfg, scenario.target_box(0), 98)
    run = run_sequence(generate_sequence(scenario), scenario.target_box(0), cfg, scorer)
    assert len(run.boxes) == 4


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_static_tracking_follows_ground_truth():
    run = _run(STATIC)
    metrics_ious = [iou_brute(box, gt) for box, gt in zip(run.boxes, _truth(STATIC))]
    assert min(metrics_ious) >= 0.99
    assert not any(run.missing)


def test_repeated_frame_reports_identical_box():
    frames = generate_sequence(STATIC)
    state = _init(frames[0], STATIC.target_box(0), TrackerConfig(update_interval=50))
    state, box1, _ = track_step(state, frames[1])
    state, box2, _ = track_step(state, frames[1])
    assert box1 == box2


def test_occlusion_sets_missing_and_freezes_box():
    scenario = Scenario(
        num_frames=70, start_x=20.0, start_y=20.0,
        velocity_x=0.15, velocity_y=0.10, noise_level=0.05,
        occlusions=((30, 42),), seed=5,
    )
    run = _run(scenario)
    occluded = range(30, 42)
    assert all(run.missing[t] for t in occluded)
    frozen = run.boxes[30]
    for t in occluded:
        assert run.boxes[t] == frozen
    # The tracker reacquires the target once the signature returns.
    assert not run.missing[-1]
    assert iou_brute(run.boxes[-1], scenario.target_box(scenario.num_frames - 1)) > 0.5


def test_non_finite_scores_skip_frame():
    frames = generate_sequence(STATIC)
    state = _init(frames[0], STATIC.target_box(0), TrackerConfig())
    before = state.current_box
    state.kernel = Kernel2D(np.full(state.kernel.values.shape, 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        state, box, dens = track_step(state, frames[1])
    assert state.missing
    assert box == before
    assert np.ptp(dens.grid.values) == 0.0


def test_memory_capacity_and_anchor_retention():
    scenario = Scenario(num_frames=30, velocity_x=0.2, noise_level=0.02, seed=11)
    frames = generate_sequence(scenario)
    cfg = TrackerConfig(memory_capacity=4)
    state = _init(frames[0], scenario.target_box(0), cfg)
    anchor = state.support[0]
    for frame in frames[1:]:
        state, _, _ = track_step(state, frame)
        assert len(state.support) <= cfg.memory_capacity
        assert state.support[0] is anchor
        assert state.sample_frames[0] == 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_op_step_function_single_frame():
    metrics = evaluate([(0.0, 0.0, 2.0, 2.0)], [(0.5, 0.0, 2.0, 2.0)])  # IoU exactly 0.6
    assert metrics.op_at(0.5) == 1.0
    assert metrics.op_at(0.75) == 0.0


def test_perfect_track_auc_is_100_over_101():
    gts = [(float(i), 0.0, 2.0, 3.0) for i in range(7)]
    metrics = evaluate(gts, gts)
    assert metrics.auc == pytest.approx(100.0 / 101.0, abs=1e-12)


def test_evaluate_matches_recount_oracle():
    rng = np.random.Generator(np.random.PCG64(60))
    gts, boxes = [], []
    for i in range(25):
        gt = (float(i), float(i) * 0.5, 4.0, 5.0)
        off = rng.uniform(-2.0, 2.0, 2)
        gts.append(gt)
        boxes.append((gt[0] + off[0], gt[1] + off[1], 4.0, 5.0))
    metrics = evaluate(gts, boxes)
    op, auc = recount_op_auc([iou_brute(b, g) for b, g in zip(boxes, gts)])
    np.testing.assert_array_equal(metrics.op, op)
    assert metrics.auc == pytest.approx(auc, abs=1e-15)
    assert np.all(np.diff(metrics.op) <= 0)
    assert 0.0 <= metrics.auc <= 1.0


def test_evaluate_length_mismatch():
    with pytest.raises(DimensionError):
        evaluate([(0.0, 0.0, 1.0, 1.0)] * 3, [(0.0, 0.0, 1.0, 1.0)] * 2)


def test_metrics_threshold_lookup_bounds():
    metrics = evaluate([(0.0, 0.0, 1.0, 1.0)], [(0.0, 0.0, 1.0, 1.0)])
    with pytest.raises(DomainError):
        metrics.op_at(1.5)


def test_run_is_deterministic_end_to_end():
    scenario = Scenario(num_frames=15, velocity_x=0.25, noise_level=0.05, seed=21)
    frames, truth = generate_sequence(scenario), _truth(scenario)
    cfg = TrackerConfig()
    a = run_sequence(frames, truth[0], cfg, _scorer(cfg, truth[0], 1))
    b = run_sequence(frames, truth[0], cfg, _scorer(cfg, truth[0], 1))
    assert a.boxes == b.boxes
    assert a.missing == b.missing
    assert evaluate(truth, a.boxes).auc == evaluate(truth, b.boxes).auc
