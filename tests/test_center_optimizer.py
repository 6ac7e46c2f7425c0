"""Objective, gradient, curvature and solver checks for the online learner."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from _oracles import fd_gradient, optimize_reference
from test_gridmath import _run_in_thread
from prtrack import tracker
from prtrack.center_optimizer import (
    OptimizerConfig,
    OptStep,
    _Problem,
    SupportSample,
    gradient,
    hessian_quadratic_form,
    init_weights,
    objective,
    optimize,
)
from prtrack.errors import DimensionError, DomainError, NumericError
from prtrack.gridmath import FeatureMap, Grid2D, Kernel2D, _Workspace, conv_apply
from prtrack.losses import LOSS_MODELS, kl_grid_loss
from prtrack.tracker import Scenario, TrackerConfig

CFG = OptimizerConfig(regularization=1e-2, iterations=5)


def _kernel(values):
    return Kernel2D(np.asarray(values, dtype=np.float64))


def _random_support(rng, n=3, channels=2, h=5, w=6, normalize=True):
    support = []
    for _ in range(n):
        z = FeatureMap(rng.normal(0.0, 1.0, (channels, h, w)))
        p = rng.uniform(0.01, 1.0, (h, w))
        if normalize:
            p /= p.sum()
        support.append(SupportSample(z, Grid2D(p), weight=float(rng.uniform(0.2, 1.0))))
    return support


def _identity_pair_support(p):
    """Two cells scored independently: channel c of a 1x1 kernel hits cell c."""
    z = np.zeros((2, 1, 2))
    z[0, 0, 0] = 1.0
    z[1, 0, 1] = 1.0
    return [SupportSample(FeatureMap(z), Grid2D(np.asarray(p, dtype=np.float64)))]


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_empty_support_is_ridge_only():
    rng = np.random.Generator(np.random.PCG64(20))
    w = rng.normal(0.0, 1.0, (2, 3, 3))
    got = objective(_kernel(w), [], CFG)
    assert got == pytest.approx(0.5 * CFG.regularization * (w**2).sum(), rel=1e-14)


def test_objective_zero_weights_uniform_labels():
    rng = np.random.Generator(np.random.PCG64(21))
    z = FeatureMap(rng.normal(0.0, 1.0, (3, 4, 5)))
    p = Grid2D(np.full((4, 5), 1.0 / 20.0))
    got = objective(_kernel(np.zeros((3, 1, 1))), [SupportSample(z, p)], CFG)
    assert got == pytest.approx(math.log(20.0), abs=1e-12)


def test_objective_matches_straight_line_recomputation():
    rng = np.random.Generator(np.random.PCG64(22))
    support = _random_support(rng)
    w = rng.normal(0.0, 0.5, (2, 3, 3))
    got = objective(_kernel(w), support, CFG)

    want = 0.5 * CFG.regularization * (w**2).sum()
    for sample in support:
        s = conv_apply(sample.features, Kernel2D(w)).values
        p = sample.label_grid.values / sample.label_grid.values.sum()
        want += sample.weight * (math.log(np.exp(s).sum()) - (p * s).sum())
    assert got == pytest.approx(want, abs=1e-10)


def test_objective_rejects_channel_mismatch():
    rng = np.random.Generator(np.random.PCG64(23))
    support = _random_support(rng, channels=3)
    with pytest.raises(DimensionError):
        objective(_kernel(np.zeros((2, 1, 1))), support, CFG)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_uniform_scores_one_hot_label():
    # Scores [0, 0] against p = [1, 0]: softmax minus label is [-1/2, 1/2],
    # and the identity features route one cell into each kernel channel.
    support = _identity_pair_support([[1.0, 0.0]])
    cfg = OptimizerConfig(regularization=0.0)
    g = gradient(_kernel(np.zeros((2, 1, 1))), support, cfg)
    np.testing.assert_allclose(g.values.ravel(), [-0.5, 0.5], atol=1e-15)


def test_gradient_empty_support_is_ridge():
    rng = np.random.Generator(np.random.PCG64(24))
    w = rng.normal(0.0, 1.0, (1, 3, 3))
    g = gradient(_kernel(w), [], CFG)
    np.testing.assert_allclose(g.values, CFG.regularization * w, atol=1e-15)


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_gradient_matches_finite_differences(loss_model):
    rng = np.random.Generator(np.random.PCG64(25))
    support = _random_support(rng)
    cfg = OptimizerConfig(regularization=1e-2, loss_model=loss_model)
    w0 = rng.normal(0.0, 0.5, (2, 3, 3))

    def f(wflat):
        return objective(_kernel(wflat.reshape(w0.shape)), support, cfg)

    got = gradient(_kernel(w0), support, cfg).values
    fd = fd_gradient(f, w0.ravel(), eps=1e-5).reshape(w0.shape)
    scale = max(1.0, float(np.abs(fd).max()))
    assert float(np.abs(fd - got).max()) <= 1e-6 * scale


def test_ce_gradient_sums_to_one_minus_label_mass():
    # kl_grid_loss with raw labels and unit cells is the solver's softmax
    # cross entropy; its score gradient softmax(s) - p sums to 1 - p.sum().
    rng = np.random.Generator(np.random.PCG64(26))
    s = Grid2D(rng.normal(0.0, 1.0, (4, 5)))
    for mass in (1.0, 0.6):
        p = rng.uniform(0.01, 1.0, (4, 5))
        p *= mass / p.sum()
        grad = kl_grid_loss(s, Grid2D(p), renormalize=False).grad_scores.values
        assert grad.sum() == pytest.approx(1.0 - mass, abs=1e-12)


# ---------------------------------------------------------------------------
# hessian quadratic form
# ---------------------------------------------------------------------------


def test_quadratic_form_empty_support():
    rng = np.random.Generator(np.random.PCG64(27))
    g = rng.normal(0.0, 1.0, (2, 3, 3))
    got = hessian_quadratic_form(_kernel(np.zeros_like(g)), Kernel2D(g), [], CFG)
    assert got == pytest.approx(CFG.regularization * (g**2).sum(), rel=1e-14)


def test_quadratic_form_uniform_softmax_variance():
    # p_hat = [1/2, 1/2] and v = [1, -1]: E[v^2] - (E[v])^2 = 1.
    support = _identity_pair_support([[0.5, 0.5]])
    cfg = OptimizerConfig(regularization=0.0)
    g = Kernel2D(np.array([1.0, -1.0]).reshape(2, 1, 1))
    got = hessian_quadratic_form(_kernel(np.zeros((2, 1, 1))), g, support, cfg)
    assert got == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_quadratic_form_matches_directional_fd(loss_model):
    rng = np.random.Generator(np.random.PCG64(28))
    support = _random_support(rng)
    cfg = OptimizerConfig(regularization=1e-2, loss_model=loss_model)
    w0 = rng.normal(0.0, 0.5, (2, 3, 3))
    g = rng.normal(0.0, 1.0, (2, 3, 3))
    if loss_model == "rl2":
        # Keep scores clear of the hinge kink so the curvature is smooth.
        cfg = OptimizerConfig(regularization=1e-2, loss_model="rl2", rl2_threshold=-10.0)

    got = hessian_quadratic_form(_kernel(w0), Kernel2D(g), support, cfg)
    eps = 1e-6

    def grad_at(wv):
        return gradient(_kernel(wv), support, cfg).values

    hv = (grad_at(w0 + eps * g) - grad_at(w0 - eps * g)) / (2.0 * eps)
    want = float((g * hv).sum())
    assert got == pytest.approx(want, rel=1e-5)


def test_quadratic_form_is_psd_without_ridge():
    rng = np.random.Generator(np.random.PCG64(29))
    cfg = OptimizerConfig(regularization=0.0)
    for _ in range(25):
        support = _random_support(rng, n=2, h=4, w=4)
        w = rng.normal(0.0, 1.0, (2, 3, 3))
        g = rng.normal(0.0, 1.0, (2, 3, 3))
        assert hessian_quadratic_form(_kernel(w), Kernel2D(g), support, cfg) >= -1e-12


def test_quadratic_form_ridge_floor():
    rng = np.random.Generator(np.random.PCG64(30))
    for _ in range(25):
        support = _random_support(rng, n=2, h=4, w=4)
        w = rng.normal(0.0, 1.0, (2, 3, 3))
        g = rng.normal(0.0, 1.0, (2, 3, 3))
        got = hessian_quadratic_form(_kernel(w), Kernel2D(g), support, CFG)
        assert got >= CFG.regularization * (g**2).sum() - 1e-12


def test_quadratic_form_shape_mismatch():
    with pytest.raises(DimensionError):
        hessian_quadratic_form(
            _kernel(np.zeros((1, 3, 3))), Kernel2D(np.zeros((1, 1, 1))), [], CFG
        )


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_pure_ridge_one_step_exact():
    # With no data term the objective is quadratic; the Newton step 1/lam
    # lands on the exact minimizer.  lam = 0.25 keeps the arithmetic exact.
    rng = np.random.Generator(np.random.PCG64(31))
    w0 = rng.normal(0.0, 1.0, (2, 3, 3))
    cfg = OptimizerConfig(regularization=0.25, iterations=1)
    kernel, trace = optimize(_kernel(w0), [], cfg)
    assert np.all(kernel.values == 0.0)
    assert trace[0].step_length == pytest.approx(4.0, rel=1e-15)
    assert trace[-1].objective == 0.0


def test_optimize_trace_non_increasing():
    rng = np.random.Generator(np.random.PCG64(32))
    support = _random_support(rng, n=1)
    cfg = OptimizerConfig(regularization=1e-2, iterations=10)
    _, trace = optimize(_kernel(rng.normal(0.0, 0.5, (2, 3, 3))), support, cfg)
    objs = [row.objective for row in trace]
    assert len(objs) == 11
    for before, after in zip(objs, objs[1:]):
        assert after <= before + 1e-12


@pytest.mark.parametrize("seed", range(100))
def test_optimize_never_steps_uphill(seed):
    rng = np.random.Generator(np.random.PCG64(4000 + seed))
    support = _random_support(rng, n=2, h=4, w=4)
    loss_model = ("l2", "rl2", "nll", "kl")[seed % 4]
    cfg = OptimizerConfig(regularization=1e-2, iterations=3, loss_model=loss_model)
    _, trace = optimize(_kernel(rng.normal(0.0, 1.0, (2, 3, 3))), support, cfg)
    for before, after in zip(trace, trace[1:]):
        assert after.objective <= before.objective + 1e-12


def test_optimize_matches_brute_force_descent():
    # 9 cells, 2-channel 1x1 kernel: the kernel is a 2-vector, so plain
    # gradient descent with a tiny fixed step is a usable optimum oracle.
    rng = np.random.Generator(np.random.PCG64(33))
    z = rng.normal(0.0, 1.0, (2, 3, 3))
    p = rng.uniform(0.01, 1.0, (3, 3))
    p /= p.sum()
    lam = 1.0
    support = [SupportSample(FeatureMap(z), Grid2D(p))]
    cfg = OptimizerConfig(regularization=lam, iterations=10)
    kernel, trace = optimize(_kernel(np.zeros((2, 1, 1))), support, cfg)

    w = np.zeros(2)
    for _ in range(100_000):
        s = np.tensordot(w, z, axes=(0, 0))
        e = np.exp(s - s.max())
        phat = e / e.sum()
        gs = phat - p
        g = np.array([(gs * z[0]).sum(), (gs * z[1]).sum()]) + lam * w
        w -= 1e-3 * g
    s = np.tensordot(w, z, axes=(0, 0))
    oracle = math.log(np.exp(s).sum()) - (p * s).sum() + 0.5 * lam * (w**2).sum()

    assert trace[-1].objective <= oracle + 1e-6
    assert abs(trace[-1].objective - oracle) <= 1e-6


def test_optimize_requires_positive_regularization():
    cfg = OptimizerConfig(regularization=0.0, iterations=1)
    with pytest.raises(DomainError):
        optimize(_kernel(np.zeros((1, 1, 1))), [], cfg)


def test_optimize_reports_non_finite_objective():
    w0 = np.full((1, 1, 1), 1e200)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="iteration 0"):
        optimize(_kernel(w0), [], OptimizerConfig(iterations=1))


def test_optimize_memory_holds_few_column_matrices():
    # Tracker-sized memory: 15 samples of 4x31x31 under a 5x5 kernel.  The
    # row unfold is ~5x its sample (~174 KB), so caching one per sample
    # would trace ~2.6 MB.  The solver may hold a few unfolds at a time plus
    # score-sized grids per sample (scores, curvature direction and state,
    # trial scores), however many iterations it runs.
    rng = np.random.Generator(np.random.PCG64(37))
    support = _random_support(rng, n=15, channels=4, h=31, w=31)
    kernel = _kernel(rng.normal(0.0, 0.1, (4, 5, 5)))
    unfold_bytes = _Workspace(support[0].features.values.shape, (4, 5, 5)).unfolded.nbytes
    grid_bytes = 31 * 31 * 8
    for iterations in (2, 10):
        tracemalloc.start()
        try:
            optimize(kernel, support, OptimizerConfig(iterations=iterations))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * unfold_bytes + 4 * len(support) * grid_bytes


def test_a_repeated_solve_allocates_less_than_one_stack():
    # The tracker-sized case above.  A solve takes its stacks and workspace
    # from the scratch its thread already holds, so once one solve has run,
    # an identical one peaks below a single (N, H * W) stack; building its
    # own stacks and workspace instead would peak near 1 MB.
    rng = np.random.Generator(np.random.PCG64(37))
    support = _random_support(rng, n=15, channels=4, h=31, w=31)
    kernel = _kernel(rng.normal(0.0, 0.1, (4, 5, 5)))
    cfg = OptimizerConfig(iterations=2)
    optimize(kernel, support, cfg)
    tracemalloc.start()
    try:
        optimize(kernel, support, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < len(support) * 31 * 31 * 8


def _saturated_case():
    # Weights large enough to saturate the softmax: the Newton step overshoots
    # and the line search halves it (checked by the reference's counts).
    rng = np.random.Generator(np.random.PCG64(38))
    support = _random_support(rng)
    w0 = rng.normal(0.0, 3.0, (2, 3, 3))
    return support, w0, OptimizerConfig(regularization=1e-2, iterations=6, loss_model="kl")


def _assert_matches_reference(w0, support, cfg):
    kernel, trace = optimize(_kernel(w0), support, cfg)
    want, steps, halvings = optimize_reference(_kernel(w0), support, cfg)
    got = kernel.values
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * float(np.abs(want).max()))
    rows = trace[:-1]
    assert [row.step_length > 0.0 for row in rows] == [step > 0.0 for step in steps]
    np.testing.assert_allclose([row.step_length for row in rows], steps, rtol=1e-10)
    return halvings


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_optimize_matches_reference_loop(loss_model):
    rng = np.random.Generator(np.random.PCG64(38))
    support = _random_support(rng)
    w0 = rng.normal(0.0, 0.5, (2, 3, 3))
    cfg = OptimizerConfig(regularization=1e-2, iterations=6, loss_model=loss_model)
    _assert_matches_reference(w0, support, cfg)


def test_optimize_matches_reference_loop_when_backtracking():
    support, w0, cfg = _saturated_case()
    halvings = _assert_matches_reference(w0, support, cfg)
    assert sum(halvings) > 0


def test_optimize_matches_reference_loop_at_zero_gradient():
    # Zero features and zero weights: the data term has no pull on the
    # kernel and the ridge gradient vanishes, so the solve ends after its
    # first iteration without a step.
    z = FeatureMap(np.zeros((2, 4, 4)))
    p = Grid2D(np.full((4, 4), 1.0 / 16.0))
    support = [SupportSample(z, p)]
    cfg = OptimizerConfig(regularization=1e-2, iterations=3)
    _assert_matches_reference(np.zeros((2, 3, 3)), support, cfg)
    _, trace = optimize(_kernel(np.zeros((2, 3, 3))), support, cfg)
    assert [row.iteration for row in trace] == [0, 1]
    assert all(row.step_length == 0.0 and row.grad_norm == 0.0 for row in trace)


def _counting_trials(monkeypatch, values=None):
    """Count the line-search trials; values, when given, replaces their sample losses."""
    made = []
    trial = _Problem.trial

    def counting(prob, *args):
        made.append(args)
        losses = trial(prob, *args)
        return losses if values is None else [values] * len(losses)

    monkeypatch.setattr(_Problem, "trial", counting)
    return made


def test_optimize_stops_when_the_line_search_fails(monkeypatch):
    # Trials that never descend: the first search makes its 40 trials and
    # the solve ends there with the input kernel, instead of repeating the
    # same search every iteration.
    rng = np.random.Generator(np.random.PCG64(44))
    support = _random_support(rng)
    kernel = _kernel(rng.normal(0.0, 0.5, (2, 3, 3)))
    made = _counting_trials(monkeypatch, values=math.inf)
    got, trace = optimize(kernel, support, replace(CFG, iterations=5))
    assert len(made) == 40
    assert np.array_equal(got.values, kernel.values)
    g = gradient(kernel, support, CFG).values
    gnorm = math.sqrt(float((g * g).sum()))
    assert trace == [OptStep(0, trace[0].objective, 0.0, gnorm), OptStep(1, trace[0].objective, 0.0, gnorm)]
    assert trace[0].objective == objective(kernel, support, CFG)


@pytest.mark.parametrize("loss_model", ["l2", "kl"])
def test_converged_solve_ignores_its_remaining_budget(monkeypatch, loss_model):
    # Once no halving lowers the objective the solve ends, so a larger
    # iteration budget changes nothing and costs no trials.
    rng = np.random.Generator(np.random.PCG64(45))
    support = _random_support(rng)
    kernel = _kernel(rng.normal(0.0, 0.5, (2, 3, 3)))
    made = _counting_trials(monkeypatch)
    solves = []
    for iterations in (300, 1000):
        del made[:]
        cfg = OptimizerConfig(regularization=1e-2, iterations=iterations, loss_model=loss_model)
        solves.append(optimize(kernel, support, cfg))
        run = len(solves[-1][1]) - 1
        assert run < 300 and solves[-1][1][-2].step_length == 0.0
        assert len(made) <= run + 40
    _assert_same_solve(*solves)


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_tracker_solves_never_end_early(monkeypatch, loss_model):
    # At the tracker's default iteration counts every solve runs its whole
    # budget and steps in every iteration, so the stop moves no tracked
    # output.  Each iteration steps on its first trial, except for two
    # halvings in the kl first-frame solve, whose Newton step overshoots.
    made = _counting_trials(monkeypatch)
    runs, trials = [], []

    def recording(*args):
        before = len(made)
        kernel, trace = optimize(*args)
        runs.append(len(trace) - 1)
        trials.append(len(made) - before)
        assert all(row.step_length > 0.0 for row in trace[:-1])
        return kernel, trace

    monkeypatch.setattr(tracker, "optimize", recording)
    cfg = TrackerConfig(loss_model=loss_model)
    scenario = Scenario(num_frames=21, velocity_x=0.3, noise_level=0.05)
    frames = tracker.generate_sequence(scenario)
    [[scorer]] = tracker.init_scorers([cfg], [(scenario.target_box(0), np.random.Generator(np.random.PCG64(98)))])
    tracker.run_sequence(frames, scenario.target_box(0), cfg, scorer)
    assert runs == [cfg.init_iterations] + [cfg.online_iterations] * 4
    overshoots = 2 if loss_model == "kl" else 0
    assert trials == [runs[0] + overshoots] + runs[1:]


def _counting_unfolds(monkeypatch):
    built = []
    unfold = _Workspace.unfold

    def counting(ws, *args):
        built.append(args)
        return unfold(ws, *args)

    monkeypatch.setattr(_Workspace, "unfold", counting)
    return built


def test_optimize_unfolds_each_sample_twice_per_iteration(monkeypatch):
    # Backtracking trials reuse the carried scores, so one optimize call of
    # k iterations builds at most 2k(N - 1) + 1 unfolds, however many
    # halvings happen.
    support, w0, cfg = _saturated_case()
    _, _, halvings = optimize_reference(_kernel(w0), support, cfg)
    assert sum(halvings) > 0
    built = _counting_unfolds(monkeypatch)
    optimize(_kernel(w0), support, cfg)
    assert len(built) <= 2 * cfg.iterations * (len(support) - 1) + 1


def _fresh(support):
    """New sample objects with the same fields."""
    return [SupportSample(s.features, s.label_grid, s.weight, s.center_rc) for s in support]


def _assert_same_solve(got, want):
    (got_kernel, got_trace), (want_kernel, want_trace) = got, want
    assert np.array_equal(got_kernel.values, want_kernel.values)
    assert got_trace == want_trace


def test_consecutive_solves_each_start_fresh(monkeypatch):
    # Each solve scores every sample in its first pass, whatever an earlier
    # solve on the same samples did: a k-iteration solve that steps every
    # iteration unfolds 2k(N - 1) + 1 times, and it equals a solve on new
    # sample objects bit for bit.
    rng = np.random.Generator(np.random.PCG64(41))
    support = _random_support(rng, n=4)
    cfg = OptimizerConfig(regularization=1e-2, iterations=3)
    kernel = _kernel(rng.normal(0.0, 0.5, (2, 3, 3)))
    n, k = len(support), cfg.iterations
    built = _counting_unfolds(monkeypatch)
    for _ in range(2):
        del built[:]
        got = optimize(kernel, support, cfg)
        assert len(built) == 2 * k * (n - 1) + 1
        assert all(row.step_length > 0.0 for row in got[1][:-1])
        _assert_same_solve(got, optimize(kernel, _fresh(support), cfg))
        kernel = got[0]


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_optimize_final_row_is_the_last_accepted_trial(loss_model):
    # The end objective is the last accepted trial's, which the next
    # iteration of a longer solve starts from; after a step no pass scores
    # the new kernel, so its gradient norm is NaN.
    rng = np.random.Generator(np.random.PCG64(42))
    support = _random_support(rng)
    w0 = rng.normal(0.0, 0.5, (2, 3, 3))
    cfg = OptimizerConfig(regularization=1e-2, iterations=3, loss_model=loss_model)
    kernel, trace = optimize(_kernel(w0), support, cfg)
    _, longer = optimize(_kernel(w0), support, replace(cfg, iterations=4))
    end, last = trace[-1], trace[-2]
    assert last.step_length > 0.0
    assert end == OptStep(3, longer[3].objective, 0.0, end.grad_norm)
    assert end.objective <= last.objective
    assert math.isnan(end.grad_norm)
    assert end.objective == pytest.approx(objective(kernel, support, cfg), rel=1e-12)


def test_optimize_without_iterations_evaluates_once():
    rng = np.random.Generator(np.random.PCG64(43))
    support = _random_support(rng)
    kernel = _kernel(rng.normal(0.0, 0.5, (2, 3, 3)))
    cfg = OptimizerConfig(iterations=0)
    got, trace = optimize(kernel, support, cfg)
    assert np.array_equal(got.values, kernel.values)
    g = gradient(kernel, support, cfg).values
    assert trace == [OptStep(0, objective(kernel, support, cfg), 0.0, math.sqrt(float((g * g).sum())))]


def test_support_with_mixed_grid_shapes_is_rejected():
    rng = np.random.Generator(np.random.PCG64(43))
    support = _random_support(rng, n=2, h=5, w=6) + _random_support(rng, n=1, h=6, w=6)
    kernel = _kernel(rng.normal(0.0, 0.5, (2, 3, 3)))
    calls = [
        lambda: optimize(kernel, support, CFG),
        lambda: objective(kernel, support, CFG),
        lambda: gradient(kernel, support, CFG),
        lambda: hessian_quadratic_form(kernel, kernel, support, CFG),
        lambda: init_weights(support, (3, 3)),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match="share one grid shape"):
            call()


# ---------------------------------------------------------------------------
# per-thread scratch
# ---------------------------------------------------------------------------


def _plain(result):
    """A call's result with its kernel or grid as an array; optimize's trace stays as it is."""
    if isinstance(result, tuple):
        return _plain(result[0]), result[1]
    return result.values if isinstance(result, (Kernel2D, Grid2D)) else result


def _assert_identical(got, want):
    if isinstance(want, tuple):
        _assert_identical(got[0], want[0])
        assert got[1] == want[1]
    elif isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want


def _scratch_calls():
    """Solver and correlation calls whose support size, grid size and loss model change between calls."""
    rng = np.random.Generator(np.random.PCG64(47))
    calls = []
    for n, size in [(6, 31), (15, 31), (6, 31), (6, 21), (6, 31)]:
        support = _random_support(rng, n=n, channels=4, h=size, w=size)
        kernel = _kernel(rng.normal(0.0, 0.1, (4, 5, 5)))
        direction = _kernel(rng.normal(0.0, 0.1, (4, 5, 5)))
        features = support[0].features
        calls.append(lambda s=support: init_weights(s, (5, 5)))
        for loss_model in LOSS_MODELS:
            cfg = OptimizerConfig(regularization=1e-2, iterations=3, loss_model=loss_model)
            calls += [
                lambda k=kernel, s=support, c=cfg: optimize(k, s, c),
                lambda z=features, k=kernel: conv_apply(z, k),
                lambda k=kernel, s=support, c=cfg: objective(k, s, c),
                lambda k=kernel, s=support, c=cfg: gradient(k, s, c),
                lambda k=kernel, d=direction, s=support, c=cfg: hessian_quadratic_form(k, d, s, c),
            ]
    return calls


def test_reused_scratch_leaks_nothing_between_calls():
    # One thread runs every call in turn, reusing its scratch through changes
    # of support size (6, 15, 6), grid (31, 21, 31) and loss model.  Each
    # result, kept until the end, equals the same call's on a fresh thread,
    # so no call reads what an earlier one left and nothing returned aliases
    # the scratch.
    calls = _scratch_calls()
    in_turn = _run_in_thread(lambda: [_plain(call()) for call in calls])
    for call, got in zip(calls, in_turn):
        _assert_identical(got, _run_in_thread(lambda: _plain(call())))


def test_threads_solving_at_once_never_share_scratch():
    # Two threads solve different problems of one shape at once, so a shared
    # scratch would be reused rather than rebuilt, switching the interpreter
    # between them as often as it can.  Each thread's results equal its
    # serial ones bit for bit.
    rng = np.random.Generator(np.random.PCG64(48))
    jobs = []
    for loss_model in ["kl", "rl2"]:
        support = _random_support(rng, n=15, channels=4, h=31, w=31)
        kernel = _kernel(rng.normal(0.0, 0.1, (4, 5, 5)))
        cfg = OptimizerConfig(regularization=1e-2, iterations=3, loss_model=loss_model)
        jobs.append(lambda s=support, k=kernel, c=cfg: [_plain(optimize(k, s, c)) for _ in range(8)])
    serial = [_run_in_thread(job) for job in jobs]
    start = threading.Barrier(len(jobs))
    results = [None] * len(jobs)

    def run(t):
        start.wait(timeout=60)
        results[t] = jobs[t]()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(t,)) for t in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got, want in zip(results, serial):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            _assert_identical(a, b)


# ---------------------------------------------------------------------------
# init_weights
# ---------------------------------------------------------------------------


def test_init_weights_delta_label_copies_feature_patch():
    rng = np.random.Generator(np.random.PCG64(34))
    z = rng.normal(0.0, 1.0, (1, 5, 5))
    delta = np.zeros((5, 5))
    delta[2, 3] = 1.0
    kernel = init_weights([SupportSample(FeatureMap(z), Grid2D(delta))], (3, 3))
    w = kernel.values[0]
    patch = z[0, 1:4, 2:5]
    # Proportional to the feature patch under the delta, peak response 1.
    np.testing.assert_allclose(w * patch[0, 0], patch * w[0, 0], atol=1e-12)
    resp = conv_apply(FeatureMap(z), kernel).values
    assert resp.max() == pytest.approx(1.0, rel=1e-12)


def test_init_weights_zero_features_fall_back_to_unit_scale():
    z = FeatureMap(np.zeros((1, 4, 4)))
    p = Grid2D(np.full((4, 4), 1.0 / 16.0))
    kernel = init_weights([SupportSample(z, p)], (3, 3))
    assert np.all(kernel.values == 0.0)


def test_init_weights_two_copies_equal_double_weight():
    rng = np.random.Generator(np.random.PCG64(35))
    z = FeatureMap(rng.normal(0.0, 1.0, (2, 5, 5)))
    p = rng.uniform(0.01, 1.0, (5, 5))
    p /= p.sum()
    one = SupportSample(z, Grid2D(p), weight=1.0)
    double = SupportSample(z, Grid2D(p), weight=2.0)
    a = init_weights([one, one], (3, 3)).values
    b = init_weights([double], (3, 3)).values
    np.testing.assert_allclose(a, b, atol=1e-14)


def test_init_weights_empty_support():
    with pytest.raises(DomainError):
        init_weights([], (3, 3))


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_support_sample_validation():
    z = FeatureMap(np.zeros((1, 3, 3)))
    with pytest.raises(DimensionError):
        SupportSample(z, Grid2D(np.zeros((4, 4))))
    with pytest.raises(DomainError):
        SupportSample(z, Grid2D(np.zeros((3, 3))), weight=-0.5)


def test_optimizer_config_validation():
    with pytest.raises(DomainError):
        OptimizerConfig(regularization=-1.0)
    with pytest.raises(DomainError):
        OptimizerConfig(iterations=-1)
    with pytest.raises(DomainError):
        OptimizerConfig(loss_model="hinge")
    for threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="rl2_threshold"):
            OptimizerConfig(loss_model="rl2", rl2_threshold=threshold)
