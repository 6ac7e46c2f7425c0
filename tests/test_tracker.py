"""Sequence synthesis, two-stage tracking, and overlap metrics."""

import math

import numpy as np
import pytest

from _oracles import iou_brute, recount_op_auc
from prtrack.center_optimizer import TargetModel
from prtrack.density import read_peak
from prtrack.errors import DimensionError, DomainError
from prtrack.gridmath import FeatureMap, Kernel2D
from prtrack.tracker import (
    Frame,
    Scenario,
    SyntheticSequence,
    TrackerConfig,
    evaluate,
    generate_sequence,
    init_scorers,
    run_sequence,
    search_region,
    track_init,
    track_step,
    write_track_csv,
)

STATIC = Scenario(name="static", num_frames=30, start_x=20.0, start_y=20.0)


def _run(scenario, **cfg_kwargs):
    seq = generate_sequence(scenario)
    cfg = TrackerConfig(**cfg_kwargs)
    run = run_sequence(seq, cfg, np.random.Generator(np.random.PCG64(99)))
    return seq, run


# ---------------------------------------------------------------------------
# sequence generation
# ---------------------------------------------------------------------------


def test_static_noiseless_frames_identical():
    seq = generate_sequence(STATIC)
    first = seq.frames[0].features.values
    for frame in seq.frames[1:]:
        np.testing.assert_array_equal(frame.features.values, first)


def test_generation_is_bit_identical_for_equal_seeds():
    scenario = Scenario(
        num_frames=20, velocity_x=0.3, osc_amp_y=2.0, noise_level=0.1,
        distractor_count=2, seed=7,
    )
    a = generate_sequence(scenario)
    b = generate_sequence(scenario)
    for fa, fb in zip(a.frames, b.frames):
        np.testing.assert_array_equal(fa.features.values, fb.features.values)
        assert fa.ground_truth_box == fb.ground_truth_box


def test_ground_truth_matches_motion_closed_form():
    scenario = Scenario(
        num_frames=40, start_x=14.0, start_y=18.0, velocity_x=0.3,
        velocity_y=0.22, osc_amp_x=2.5, osc_amp_y=2.0, osc_period=29.0,
        noise_level=0.05, distractor_count=2, seed=3,
    )
    seq = generate_sequence(scenario)
    for t, frame in enumerate(seq.frames):
        phase = 2.0 * math.pi * t / scenario.osc_period
        cx = scenario.start_x + scenario.velocity_x * t + scenario.osc_amp_x * math.sin(phase)
        cy = scenario.start_y + scenario.velocity_y * t + scenario.osc_amp_y * math.sin(phase)
        gx, gy, gw, gh = frame.ground_truth_box
        assert abs(gx - cx) <= 1e-12 and abs(gy - cy) <= 1e-12
        assert (gw, gh) == (scenario.target_w, scenario.target_h)


def test_occluded_frames_lack_target_signature():
    scenario = Scenario(num_frames=10, occlusions=((4, 7),))
    seq = generate_sequence(scenario)
    for t in (4, 5, 6):
        assert np.all(seq.frames[t].features.values == 0.0)
    assert seq.frames[3].features.values.max() > 0.5


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
    seq = generate_sequence(STATIC)
    cfg = TrackerConfig()
    state = track_init(seq.frames[0], seq.frames[0].ground_truth_box, cfg)
    _, _, dens = track_step(state, seq.frames[0])
    assert read_peak(dens)[0] == (state.region // 2, state.region // 2)


def test_init_without_augmentation_keeps_single_sample():
    seq = generate_sequence(STATIC)
    cfg = TrackerConfig(augment=False)
    state = track_init(seq.frames[0], seq.frames[0].ground_truth_box, cfg)
    assert len(state.support) == 1


def test_init_augmented_support_layout():
    seq = generate_sequence(STATIC)
    state = track_init(seq.frames[0], seq.frames[0].ground_truth_box, TrackerConfig())
    assert len(state.support) == 6  # base, flip, four shifts
    assert sum(s.weight for s in state.support) == pytest.approx(1.0)


def test_init_deterministic_for_equal_seeds():
    seq = generate_sequence(STATIC)
    frame = seq.frames[0]
    cfg = TrackerConfig(scorer_init="train", bb_samples=32, bb_epochs=10)

    def build():
        rng = np.random.Generator(np.random.PCG64(17))
        return track_init(frame, frame.ground_truth_box, cfg, rng)

    a, b = build(), build()
    np.testing.assert_array_equal(a.model.weights.values, b.model.weights.values)
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


def test_init_with_a_given_scorer_matches_building_it():
    seq = generate_sequence(STATIC)
    frame = seq.frames[0]
    cfg = TrackerConfig(**SHORT_TRAINING)
    [[scorer]] = init_scorers([cfg], [(frame.ground_truth_box, np.random.Generator(np.random.PCG64(20)))])
    given = track_init(frame, frame.ground_truth_box, cfg, scorer=scorer)
    built = track_init(frame, frame.ground_truth_box, cfg, np.random.Generator(np.random.PCG64(20)))
    assert given.scorer is scorer
    assert np.array_equal(built.scorer.mu, scorer.mu)


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
        ("augment", "no", "must be a boolean"),
        ("subcell", 1, "must be a boolean"),
    ],
)
def test_tracker_config_checks_field_types(field, value, message):
    with pytest.raises(DomainError, match=f"{field} {message}"):
        TrackerConfig(**{field: value})


def test_tracker_config_accepts_integers_and_numpy_reals_for_real_fields():
    cfg = TrackerConfig(sigma_bb=np.float64(0.05), search_scale=5, miss_threshold_mass=np.int64(0))
    assert cfg.search_scale == 5


def test_init_rejects_degenerate_box():
    seq = generate_sequence(STATIC)
    with pytest.raises(DomainError):
        track_init(seq.frames[0], (20.0, 20.0, 0.0, 6.0), TrackerConfig())


def test_sigma_rule_and_miss_mode_resolution():
    cfg = TrackerConfig()
    assert cfg.resolved_sigma_tc(6.0, 6.0) == pytest.approx(1.5)
    assert cfg.resolved_sigma_tc(4.0, 9.0) == pytest.approx(1.5)
    assert TrackerConfig(sigma_tc=0.8).resolved_sigma_tc(6.0, 6.0) == 0.8
    # The miss gate follows the loss family: kl and nll read the 3x3 peak
    # mass, l2 and rl2 the raw peak score.  Each config sets one threshold
    # that misses every frame and one that misses none.
    seq = generate_sequence(STATIC)
    first = seq.frames[0]
    for model, mass_gate in (("kl", True), ("nll", True), ("l2", False), ("rl2", False)):
        for mass_threshold, score_threshold in ((1.0, -1e300), (0.0, 1e300)):
            cfg = TrackerConfig(
                loss_model=model,
                miss_threshold_mass=mass_threshold,
                miss_threshold_score=score_threshold,
            )
            state, _, _ = track_step(track_init(first, first.ground_truth_box, cfg), seq.frames[1])
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
    # The settings objects are built with the config; tracking builds none.
    from prtrack import tracker

    cfg = TrackerConfig(scorer_init="train", bb_epochs=3, bb_samples=8)
    assert (cfg.bb_sgd.epochs, cfg.refine_config.steps) == (3, cfg.refine_steps)
    np.testing.assert_array_equal(cfg.bb_proposal.sigmas, cfg.proposal_sigmas)
    for name in ("MixtureProposal", "SGDConfig", "RefConfig"):
        monkeypatch.setattr(tracker, name, None)
    seq = generate_sequence(Scenario(name="static", num_frames=4, start_x=20.0, start_y=20.0))
    run = run_sequence(seq, cfg, np.random.Generator(np.random.PCG64(98)))
    assert len(run.boxes) == 4


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def test_static_tracking_follows_ground_truth():
    seq, run = _run(STATIC)
    metrics_ious = [
        iou_brute(box, frame.ground_truth_box)
        for box, frame in zip(run.boxes, seq.frames)
    ]
    assert min(metrics_ious) >= 0.99
    assert not any(run.missing)


def test_static_integer_center_without_subcell_is_exact():
    seq, run = _run(STATIC, subcell=False)
    for box, frame in zip(run.boxes, seq.frames):
        assert box == pytest.approx(frame.ground_truth_box, abs=1e-12)


def test_repeated_frame_reports_identical_box():
    seq = generate_sequence(STATIC)
    state = track_init(seq.frames[0], seq.frames[0].ground_truth_box,
                       TrackerConfig(update_interval=50))
    state, box1, _ = track_step(state, seq.frames[1])
    state, box2, _ = track_step(state, seq.frames[1])
    assert box1 == box2


def test_occlusion_sets_missing_and_freezes_box():
    scenario = Scenario(
        name="occlusion", num_frames=70, start_x=20.0, start_y=20.0,
        velocity_x=0.15, velocity_y=0.10, noise_level=0.05,
        occlusions=((30, 42),), seed=5,
    )
    seq, run = _run(scenario)
    occluded = range(30, 42)
    assert all(run.missing[t] for t in occluded)
    frozen = run.boxes[30]
    for t in occluded:
        assert run.boxes[t] == frozen
    # The tracker reacquires the target once the signature returns.
    assert not run.missing[-1]
    assert iou_brute(run.boxes[-1], seq.frames[-1].ground_truth_box) > 0.5


def test_non_finite_scores_skip_frame():
    seq = generate_sequence(STATIC)
    state = track_init(seq.frames[0], seq.frames[0].ground_truth_box, TrackerConfig())
    before = state.current_box
    k = state.model.weights.values.shape
    state.model = TargetModel(Kernel2D(np.full(k, 1e308)))
    with np.errstate(over="ignore", invalid="ignore"):
        state, box, dens = track_step(state, seq.frames[1])
    assert state.missing
    assert box == before
    assert np.ptp(dens.grid.values) == 0.0


def test_memory_capacity_and_anchor_retention():
    scenario = Scenario(num_frames=30, velocity_x=0.2, noise_level=0.02, seed=11)
    seq = generate_sequence(scenario)
    cfg = TrackerConfig(memory_capacity=4)
    state = track_init(seq.frames[0], seq.frames[0].ground_truth_box, cfg)
    anchor = state.support[0]
    for frame in seq.frames[1:]:
        state, _, _ = track_step(state, frame)
        assert len(state.support) <= cfg.memory_capacity
        assert state.support[0] is anchor
        assert state.sample_frames[0] == 0


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _toy_sequence(gt_boxes):
    feats = FeatureMap(np.zeros((1, 4, 4)))
    frames = tuple(Frame(feats, gt) for gt in gt_boxes)
    return SyntheticSequence(frames)


def test_op_step_function_single_frame():
    seq = _toy_sequence([(0.0, 0.0, 2.0, 2.0)])
    metrics = evaluate(seq, [(0.5, 0.0, 2.0, 2.0)])  # IoU exactly 0.6
    assert metrics.op_at(0.5) == 1.0
    assert metrics.op_at(0.75) == 0.0


def test_perfect_track_auc_is_100_over_101():
    gts = [(float(i), 0.0, 2.0, 3.0) for i in range(7)]
    metrics = evaluate(_toy_sequence(gts), gts)
    assert metrics.auc == pytest.approx(100.0 / 101.0, abs=1e-12)


def test_evaluate_matches_recount_oracle():
    rng = np.random.Generator(np.random.PCG64(60))
    gts, boxes = [], []
    for i in range(25):
        gt = (float(i), float(i) * 0.5, 4.0, 5.0)
        off = rng.uniform(-2.0, 2.0, 2)
        gts.append(gt)
        boxes.append((gt[0] + off[0], gt[1] + off[1], 4.0, 5.0))
    metrics = evaluate(_toy_sequence(gts), boxes)
    op, auc = recount_op_auc([iou_brute(b, g) for b, g in zip(boxes, gts)])
    np.testing.assert_array_equal(metrics.op, op)
    assert metrics.auc == pytest.approx(auc, abs=1e-15)
    assert np.all(np.diff(metrics.op) <= 0)
    assert 0.0 <= metrics.auc <= 1.0


def test_evaluate_length_mismatch():
    seq = _toy_sequence([(0.0, 0.0, 1.0, 1.0)] * 3)
    with pytest.raises(DimensionError):
        evaluate(seq, [(0.0, 0.0, 1.0, 1.0)] * 2)


def test_metrics_threshold_lookup_bounds():
    seq = _toy_sequence([(0.0, 0.0, 1.0, 1.0)])
    metrics = evaluate(seq, [(0.0, 0.0, 1.0, 1.0)])
    with pytest.raises(DomainError):
        metrics.op_at(1.5)


def test_run_is_deterministic_end_to_end():
    scenario = Scenario(num_frames=15, velocity_x=0.25, noise_level=0.05, seed=21)
    seq = generate_sequence(scenario)
    cfg = TrackerConfig()
    a = run_sequence(seq, cfg, np.random.Generator(np.random.PCG64(1)))
    b = run_sequence(seq, cfg, np.random.Generator(np.random.PCG64(1)))
    assert a.boxes == b.boxes
    assert a.missing == b.missing
    assert evaluate(seq, a.boxes).auc == evaluate(seq, b.boxes).auc


def test_trace_csv_round_trip(tmp_path):
    seq, run = _run(Scenario(num_frames=6, start_x=20.0, start_y=20.0))
    path = tmp_path / "track.csv"
    write_track_csv(run, seq, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "frame,cx,cy,w,h,iou,missing,peak_mass"
    assert len(lines) == len(seq.frames) + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[5]) == pytest.approx(1.0)  # init frame is the annotation
    assert first[6] == "0"
