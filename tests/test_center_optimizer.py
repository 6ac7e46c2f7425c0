"""Objective, gradient, curvature and solver checks for the online learner."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from _oracles import fd_gradient, optimize_reference
from prtrack.center_optimizer import (
    OptimizerConfig,
    SupportSample,
    TargetModel,
    gradient,
    hessian_quadratic_form,
    init_weights,
    objective,
    optimize,
    write_trace_csv,
)
from prtrack.errors import DimensionError, DomainError, NumericError
from prtrack.gridmath import FeatureMap, Grid2D, Kernel2D, _Workspace, conv_apply
from prtrack.losses import kl_grid_loss

CFG = OptimizerConfig(regularization=1e-2, iterations=5)


def _model(values):
    return TargetModel(Kernel2D(np.asarray(values, dtype=np.float64)))


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
    got = objective(_model(w), [], CFG)
    assert got == pytest.approx(0.5 * CFG.regularization * (w**2).sum(), rel=1e-14)


def test_objective_zero_weights_uniform_labels():
    rng = np.random.Generator(np.random.PCG64(21))
    z = FeatureMap(rng.normal(0.0, 1.0, (3, 4, 5)))
    p = Grid2D(np.full((4, 5), 1.0 / 20.0))
    got = objective(_model(np.zeros((3, 1, 1))), [SupportSample(z, p)], CFG)
    assert got == pytest.approx(math.log(20.0), abs=1e-12)


def test_objective_matches_straight_line_recomputation():
    rng = np.random.Generator(np.random.PCG64(22))
    support = _random_support(rng)
    w = rng.normal(0.0, 0.5, (2, 3, 3))
    got = objective(_model(w), support, CFG)

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
        objective(_model(np.zeros((2, 1, 1))), support, CFG)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------


def test_gradient_uniform_scores_one_hot_label():
    # Scores [0, 0] against p = [1, 0]: softmax minus label is [-1/2, 1/2],
    # and the identity features route one cell into each kernel channel.
    support = _identity_pair_support([[1.0, 0.0]])
    cfg = OptimizerConfig(regularization=0.0)
    g = gradient(_model(np.zeros((2, 1, 1))), support, cfg)
    np.testing.assert_allclose(g.values.ravel(), [-0.5, 0.5], atol=1e-15)


def test_gradient_empty_support_is_ridge():
    rng = np.random.Generator(np.random.PCG64(24))
    w = rng.normal(0.0, 1.0, (1, 3, 3))
    g = gradient(_model(w), [], CFG)
    np.testing.assert_allclose(g.values, CFG.regularization * w, atol=1e-15)


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_gradient_matches_finite_differences(loss_model):
    rng = np.random.Generator(np.random.PCG64(25))
    support = _random_support(rng)
    cfg = OptimizerConfig(regularization=1e-2, loss_model=loss_model)
    w0 = rng.normal(0.0, 0.5, (2, 3, 3))

    def f(wflat):
        return objective(_model(wflat.reshape(w0.shape)), support, cfg)

    got = gradient(_model(w0), support, cfg).values
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
    got = hessian_quadratic_form(_model(np.zeros_like(g)), Kernel2D(g), [], CFG)
    assert got == pytest.approx(CFG.regularization * (g**2).sum(), rel=1e-14)


def test_quadratic_form_uniform_softmax_variance():
    # p_hat = [1/2, 1/2] and v = [1, -1]: E[v^2] - (E[v])^2 = 1.
    support = _identity_pair_support([[0.5, 0.5]])
    cfg = OptimizerConfig(regularization=0.0)
    g = Kernel2D(np.array([1.0, -1.0]).reshape(2, 1, 1))
    got = hessian_quadratic_form(_model(np.zeros((2, 1, 1))), g, support, cfg)
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

    got = hessian_quadratic_form(_model(w0), Kernel2D(g), support, cfg)
    eps = 1e-6

    def grad_at(wv):
        return gradient(_model(wv), support, cfg).values

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
        assert hessian_quadratic_form(_model(w), Kernel2D(g), support, cfg) >= -1e-12


def test_quadratic_form_ridge_floor():
    rng = np.random.Generator(np.random.PCG64(30))
    for _ in range(25):
        support = _random_support(rng, n=2, h=4, w=4)
        w = rng.normal(0.0, 1.0, (2, 3, 3))
        g = rng.normal(0.0, 1.0, (2, 3, 3))
        got = hessian_quadratic_form(_model(w), Kernel2D(g), support, CFG)
        assert got >= CFG.regularization * (g**2).sum() - 1e-12


def test_quadratic_form_shape_mismatch():
    with pytest.raises(DimensionError):
        hessian_quadratic_form(
            _model(np.zeros((1, 3, 3))), Kernel2D(np.zeros((1, 1, 1))), [], CFG
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
    model, trace = optimize(_model(w0), [], cfg)
    assert np.all(model.weights.values == 0.0)
    assert trace[0].step_length == pytest.approx(4.0, rel=1e-15)
    assert trace[-1].objective == 0.0


def test_optimize_trace_non_increasing():
    rng = np.random.Generator(np.random.PCG64(32))
    support = _random_support(rng, n=1)
    cfg = OptimizerConfig(regularization=1e-2, iterations=10)
    _, trace = optimize(_model(rng.normal(0.0, 0.5, (2, 3, 3))), support, cfg)
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
    _, trace = optimize(_model(rng.normal(0.0, 1.0, (2, 3, 3))), support, cfg)
    for before, after in zip(trace, trace[1:]):
        assert after.objective <= before.objective + 1e-12


def test_optimize_matches_brute_force_descent():
    # 9 cells, 2-channel 1x1 kernel: the model is a 2-vector, so plain
    # gradient descent with a tiny fixed step is a usable optimum oracle.
    rng = np.random.Generator(np.random.PCG64(33))
    z = rng.normal(0.0, 1.0, (2, 3, 3))
    p = rng.uniform(0.01, 1.0, (3, 3))
    p /= p.sum()
    lam = 1.0
    support = [SupportSample(FeatureMap(z), Grid2D(p))]
    cfg = OptimizerConfig(regularization=lam, iterations=10)
    model, trace = optimize(_model(np.zeros((2, 1, 1))), support, cfg)

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
        optimize(_model(np.zeros((1, 1, 1))), [], cfg)


def test_optimize_reports_non_finite_objective():
    w0 = np.full((1, 1, 1), 1e200)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="iteration 0"):
        optimize(_model(w0), [], OptimizerConfig(iterations=1))


def test_optimize_memory_holds_few_column_matrices():
    # Tracker-sized memory: 15 samples of 4x31x31 under a 5x5 kernel.  The
    # row unfold is ~5x its sample (~174 KB), so caching one per sample
    # would trace ~2.6 MB.  The solver may hold a few unfolds at a time plus
    # score-sized grids per sample (scores, curvature direction and state,
    # trial scores), however many iterations it runs.
    rng = np.random.Generator(np.random.PCG64(37))
    support = _random_support(rng, n=15, channels=4, h=31, w=31)
    model = _model(rng.normal(0.0, 0.1, (4, 5, 5)))
    unfold_bytes = _Workspace(support[0].features.values.shape, (4, 5, 5)).unfolded.nbytes
    grid_bytes = 31 * 31 * 8
    for iterations in (2, 10):
        tracemalloc.start()
        try:
            optimize(model, support, OptimizerConfig(iterations=iterations))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * unfold_bytes + 4 * len(support) * grid_bytes


def _saturated_case():
    # Weights large enough to saturate the softmax: the Newton step overshoots
    # and the line search halves it (checked by the reference's counts).
    rng = np.random.Generator(np.random.PCG64(38))
    support = _random_support(rng)
    w0 = rng.normal(0.0, 3.0, (2, 3, 3))
    return support, w0, OptimizerConfig(regularization=1e-2, iterations=6, loss_model="kl")


def _assert_matches_reference(w0, support, cfg):
    model, trace = optimize(_model(w0), support, cfg)
    want, steps, halvings = optimize_reference(_model(w0), support, cfg)
    got = model.weights.values
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
    # kernel and the ridge gradient vanishes, so no step is taken.
    z = FeatureMap(np.zeros((2, 4, 4)))
    p = Grid2D(np.full((4, 4), 1.0 / 16.0))
    support = [SupportSample(z, p)]
    cfg = OptimizerConfig(regularization=1e-2, iterations=3)
    _assert_matches_reference(np.zeros((2, 3, 3)), support, cfg)
    _, trace = optimize(_model(np.zeros((2, 3, 3))), support, cfg)
    assert all(row.step_length == 0.0 and row.grad_norm == 0.0 for row in trace)


def test_optimize_unfolds_each_sample_twice_per_iteration(monkeypatch):
    # Backtracking trials reuse the kept scores, so one optimize call of k
    # iterations builds at most 2k + 1 unfolds per sample, however many
    # halvings happen.
    support, w0, cfg = _saturated_case()
    _, _, halvings = optimize_reference(_model(w0), support, cfg)
    assert sum(halvings) > 0
    built = []

    unfold = _Workspace.unfold

    def counting(ws, *args):
        built.append(args)
        return unfold(ws, *args)

    monkeypatch.setattr(_Workspace, "unfold", counting)
    optimize(_model(w0), support, cfg)
    assert len(built) <= len(support) * (2 * cfg.iterations + 1)


def _fresh(support):
    """Copies of the samples that keep nothing from earlier solves."""
    return [SupportSample(s.features, s.label_grid, s.weight, s.center_rc) for s in support]


def _assert_same_solve(got, want):
    (got_model, got_trace), (want_model, want_trace) = got, want
    assert np.array_equal(got_model.weights.values, want_model.weights.values)
    assert got_trace == want_trace


@pytest.mark.parametrize("loss_model", ["l2", "rl2", "nll", "kl"])
def test_optimize_reuses_what_the_last_solve_left(loss_model):
    # The weights do not enter what a sample keeps, so reweighting between
    # solves (as the tracker does) keeps the reuse exact.
    rng = np.random.Generator(np.random.PCG64(39))
    support = _random_support(rng, n=4)
    cfg = OptimizerConfig(regularization=1e-2, iterations=3, loss_model=loss_model)
    model, _ = optimize(_model(rng.normal(0.0, 0.5, (2, 3, 3))), support, cfg)
    support[1].weight = 0.1
    _assert_same_solve(optimize(model, support, cfg), optimize(model, _fresh(support), cfg))


@pytest.mark.parametrize(
    "change", ["kernel copy", "read-only kernel copy", "edited kernel", "loss model", "rl2 threshold", "features"]
)
def test_optimize_ignores_kept_evaluations_that_do_not_match(change):
    rng = np.random.Generator(np.random.PCG64(40))
    support = _random_support(rng, n=4)
    cfg = OptimizerConfig(regularization=1e-2, iterations=2, loss_model="rl2")
    model, _ = optimize(_model(rng.normal(0.0, 0.5, (2, 3, 3))), support, cfg)
    if change == "kernel copy":
        model = _model(model.weights.values.copy())
    elif change == "read-only kernel copy":
        kernel = model.weights.values.copy()
        kernel.flags.writeable = False
        model = _model(kernel)
    elif change == "edited kernel":
        # Scores kept under a writable array do not count: it can change in place.
        kernel = model.weights.values.copy()
        for sample in support:
            sample.keep(kernel, conv_apply(sample.features, Kernel2D(kernel)).values)
        kernel *= 1.5
        model = _model(kernel)
    elif change == "loss model":
        cfg = OptimizerConfig(regularization=1e-2, iterations=2, loss_model="l2")
    elif change == "rl2 threshold":
        cfg = OptimizerConfig(regularization=1e-2, iterations=2, loss_model="rl2", rl2_threshold=0.5)
    else:
        support[2].features = FeatureMap(rng.normal(0.0, 1.0, support[2].features.values.shape))
    _assert_same_solve(optimize(model, support, cfg), optimize(model, _fresh(support), cfg))


def test_optimize_on_what_a_solve_left_skips_the_first_pass_unfolds(monkeypatch):
    # A k-iteration call unfolds N * (2k + 1) times on fresh samples and
    # N * 2k times on samples a solve left their scores and pullbacks; a
    # sample that kept only its scores needs one unfold for its adjoint.
    rng = np.random.Generator(np.random.PCG64(41))
    support = _random_support(rng)
    cfg = OptimizerConfig(regularization=1e-2, iterations=3)
    model = _model(rng.normal(0.0, 0.5, (2, 3, 3)))
    built = []

    unfold = _Workspace.unfold

    def counting(ws, *args):
        built.append(args)
        return unfold(ws, *args)

    monkeypatch.setattr(_Workspace, "unfold", counting)
    model, first = optimize(model, support, cfg)
    n, k = len(support), cfg.iterations
    assert len(built) == n * (2 * k + 1)
    scored_only = _fresh(support[:1])[0]
    scored_only.keep(model.weights.values, conv_apply(scored_only.features, model.weights).values)
    del built[:]
    support = [scored_only] + support[1:]
    got = optimize(model, support, cfg)
    assert len(built) == n * 2 * k + 1
    # Every step is taken, so no pass is skipped for an unmoved kernel.
    assert all(row.step_length > 0.0 for row in first[:-1] + got[1][:-1])
    _assert_same_solve(got, optimize(model, _fresh(support), cfg))


def test_optimize_returns_a_read_only_kernel():
    rng = np.random.Generator(np.random.PCG64(42))
    model, _ = optimize(_model(rng.normal(0.0, 0.5, (2, 3, 3))), _random_support(rng), CFG)
    with pytest.raises(ValueError):
        model.weights.values[0, 0, 0] = 1.0


def test_support_with_mixed_grid_shapes_is_rejected():
    rng = np.random.Generator(np.random.PCG64(43))
    support = _random_support(rng, n=2, h=5, w=6) + _random_support(rng, n=1, h=6, w=6)
    model = _model(rng.normal(0.0, 0.5, (2, 3, 3)))
    calls = [
        lambda: optimize(model, support, CFG),
        lambda: objective(model, support, CFG),
        lambda: gradient(model, support, CFG),
        lambda: hessian_quadratic_form(model, model.weights, support, CFG),
        lambda: init_weights(support, (3, 3)),
    ]
    for call in calls:
        with pytest.raises(DimensionError, match="share one grid shape"):
            call()


# ---------------------------------------------------------------------------
# init_weights
# ---------------------------------------------------------------------------


def test_init_weights_delta_label_copies_feature_patch():
    rng = np.random.Generator(np.random.PCG64(34))
    z = rng.normal(0.0, 1.0, (1, 5, 5))
    delta = np.zeros((5, 5))
    delta[2, 3] = 1.0
    model = init_weights([SupportSample(FeatureMap(z), Grid2D(delta))], (3, 3))
    w = model.weights.values[0]
    patch = z[0, 1:4, 2:5]
    # Proportional to the feature patch under the delta, peak response 1.
    np.testing.assert_allclose(w * patch[0, 0], patch * w[0, 0], atol=1e-12)
    resp = conv_apply(FeatureMap(z), model.weights).values
    assert resp.max() == pytest.approx(1.0, rel=1e-12)


def test_init_weights_zero_features_fall_back_to_unit_scale():
    z = FeatureMap(np.zeros((1, 4, 4)))
    p = Grid2D(np.full((4, 4), 1.0 / 16.0))
    model = init_weights([SupportSample(z, p)], (3, 3))
    assert np.all(model.weights.values == 0.0)


def test_init_weights_two_copies_equal_double_weight():
    rng = np.random.Generator(np.random.PCG64(35))
    z = FeatureMap(rng.normal(0.0, 1.0, (2, 5, 5)))
    p = rng.uniform(0.01, 1.0, (5, 5))
    p /= p.sum()
    one = SupportSample(z, Grid2D(p), weight=1.0)
    double = SupportSample(z, Grid2D(p), weight=2.0)
    a = init_weights([one, one], (3, 3)).weights.values
    b = init_weights([double], (3, 3)).weights.values
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


def test_trace_csv_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(36))
    support = _random_support(rng, n=1)
    _, trace = optimize(_model(rng.normal(0.0, 0.5, (2, 3, 3))), support, CFG)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iteration", "objective", "step_length", "grad_norm"]
    assert len(rows) == len(trace) + 1
    for row, step in zip(rows[1:], trace):
        assert int(row[0]) == step.iteration
        assert float(row[1]) == step.objective
        assert float(row[2]) == step.step_length
        assert float(row[3]) == step.grad_norm
