"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to see the lines as
they are checked; the assertions behave identically without -s.
"""

import math
import time

import numpy as np

from _oracles import fd_directional, fd_gradient, iou_brute
from prtrack.center_optimizer import (
    LOSS_MODELS,
    OptimizerConfig,
    SupportSample,
    gradient,
    hessian_quadratic_form,
    objective,
    optimize,
)
from prtrack.gridmath import FeatureMap, Grid2D, Kernel2D
from prtrack.harness import cmd_compare_losses, cmd_sigma_sweep, load_config, resolve_scenario
from prtrack.losses import kl_grid_loss, kl_mc_loss, l2_loss, nll_loss, robust_l2_loss
from prtrack.tracker import TrackerConfig, generate_sequence, init_scorers, run_sequence


def _criterion(num: int, label: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def _rel(reference: np.ndarray, candidate: np.ndarray) -> float:
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(candidate))))
    return float(np.max(np.abs(reference - candidate))) / scale


def _random_scores(rng):
    h = int(rng.integers(2, 6))
    w = int(rng.integers(2, 6))
    area = float(rng.choice([0.25, 1.0, 2.25]))
    return Grid2D(rng.standard_normal((h, w))), h, w, area


def _random_support(rng, channels=2, side=4, count=2):
    samples = []
    for _ in range(count):
        feats = FeatureMap(rng.standard_normal((channels, side, side)))
        labels = Grid2D(rng.uniform(0.0, 1.0, (side, side)) + 1e-3)
        samples.append(SupportSample(feats, labels, weight=float(rng.uniform(0.2, 1.0))))
    return samples


def _random_opt_instance(rng, model):
    support = _random_support(rng)
    w = rng.standard_normal((2, 1, 1))
    # rl2's hinge is kinked at s = 0; push it out of reach so finite
    # differences probe a smooth point.
    threshold = -10.0 if model == "rl2" else 0.05
    cfg = OptimizerConfig(
        regularization=float(rng.uniform(0.1, 1.0)),
        loss_model=model,
        rl2_threshold=threshold,
    )
    return support, w, cfg


# ---------------------------------------------------------------------------
# 1. analytic gradients vs central finite differences
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(101))
    worst = {}

    errs = []
    for _ in range(100):
        scores, h, w, area = _random_scores(rng)
        labels = Grid2D(rng.standard_normal((h, w)))
        out = l2_loss(scores, labels, area)
        fd = fd_gradient(lambda v: l2_loss(Grid2D(v), labels, area).value, scores.values)
        errs.append(_rel(fd, out.grad_scores.values))
    worst["l2"] = max(errs)

    errs = []
    for _ in range(100):
        _, h, w, area = _random_scores(rng)
        # Keep every score at least 0.05 from the hinge at zero.
        scores = Grid2D(rng.uniform(0.05, 1.0, (h, w)) * rng.choice([-1.0, 1.0], (h, w)))
        labels = Grid2D(np.where(rng.uniform(size=(h, w)) < 0.5, rng.uniform(0.2, 1.0, (h, w)), 0.0))
        out = robust_l2_loss(scores, labels, 0.05, area)
        fd = fd_gradient(lambda v: robust_l2_loss(Grid2D(v), labels, 0.05, area).value, scores.values)
        errs.append(_rel(fd, out.grad_scores.values))
    worst["rl2"] = max(errs)

    errs = []
    for _ in range(100):
        scores, h, w, area = _random_scores(rng)
        spacing = math.sqrt(area)
        coord = (int(rng.integers(0, h)) * spacing, int(rng.integers(0, w)) * spacing)
        out = nll_loss(scores, coord, area)
        fd = fd_gradient(lambda v: nll_loss(Grid2D(v), coord, area).value, scores.values)
        errs.append(_rel(fd, out.grad_scores.values))
    worst["nll"] = max(errs)

    errs = []
    for i in range(100):
        scores, h, w, area = _random_scores(rng)
        labels = Grid2D(rng.uniform(0.0, 1.0, (h, w)) + 1e-6)
        renorm = bool(i % 2)
        out = kl_grid_loss(scores, labels, area, renormalize=renorm)
        fd = fd_gradient(
            lambda v: kl_grid_loss(Grid2D(v), labels, area, renormalize=renorm).value,
            scores.values,
        )
        errs.append(_rel(fd, out.grad_scores.values))
    worst["kl_grid"] = max(errs)

    errs = []
    for _ in range(100):
        k = int(rng.integers(4, 12))
        s = rng.standard_normal(k)
        p = rng.uniform(0.0, 1.0, k)
        q = rng.uniform(0.1, 2.0, k)
        out = kl_mc_loss(s, p, q)
        fd = fd_gradient(lambda v: kl_mc_loss(v, p, q).value, s)
        errs.append(_rel(fd, out.grad_scores))
    worst["kl_mc"] = max(errs)

    errs = []
    for i in range(100):
        support, w, cfg = _random_opt_instance(rng, LOSS_MODELS[i % 4])
        an = gradient(Kernel2D(w), support, cfg).values
        fd = fd_gradient(lambda v: objective(Kernel2D(v), support, cfg), w)
        errs.append(_rel(fd, an))
    worst["objective"] = max(errs)

    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    _criterion(
        1,
        "analytic gradients match finite differences (6 families x 100)",
        peak <= 1e-6 and elapsed < 30.0,
        f"max rel err {peak:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. curvature quadratic form vs differentiated gradients, plus the PSD floor
# ---------------------------------------------------------------------------


def test_criterion_02_hessian_suite():
    rng = np.random.Generator(np.random.PCG64(202))
    worst_rel = 0.0
    worst_margin = math.inf
    for i in range(100):
        support, w, cfg = _random_opt_instance(rng, LOSS_MODELS[i % 4])
        v = rng.standard_normal(w.shape)
        model = Kernel2D(w)
        an = hessian_quadratic_form(model, Kernel2D(v), support, cfg)
        fd = fd_directional(
            lambda x: float((gradient(Kernel2D(x), support, cfg).values * v).sum()),
            w,
            v,
        )
        worst_rel = max(worst_rel, abs(fd - an) / max(1.0, abs(an)))
        floor = cfg.regularization * float((v * v).sum())
        worst_margin = min(worst_margin, an - floor)
        bare = OptimizerConfig(
            regularization=0.0, loss_model=cfg.loss_model, rl2_threshold=cfg.rl2_threshold
        )
        worst_margin = min(worst_margin, hessian_quadratic_form(model, Kernel2D(v), support, bare))
    _criterion(
        2,
        "curvature form matches differentiated gradient; PSD floor holds",
        worst_rel <= 1e-5 and worst_margin >= -1e-12,
        f"max rel err {worst_rel:.2e}, min margin {worst_margin:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. divergence value + discrete label entropy is a nonnegative divergence
# ---------------------------------------------------------------------------


def test_criterion_03_entropy_identity():
    rng = np.random.Generator(np.random.PCG64(303))
    min_floor = math.inf
    max_resid = 0.0
    for _ in range(100):
        scores, h, w, _ = _random_scores(rng)
        labels = Grid2D(rng.uniform(0.0, 1.0, (h, w)) + 1e-6)
        m = labels.values / labels.values.sum()
        entropy_term = float((m * np.log(m)).sum())
        min_floor = min(min_floor, kl_grid_loss(scores, labels, 1.0).value + entropy_term)
        exact = kl_grid_loss(Grid2D(np.log(m)), labels, 1.0).value + entropy_term
        max_resid = max(max_resid, abs(exact))
    _criterion(
        3,
        "kl value plus label-grid entropy >= 0; == 0 at the label scores",
        min_floor >= -1e-10 and max_resid <= 1e-10,
        f"min floor {min_floor:.2e}, max residual {max_resid:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. Newton step exactness and monotone descent
# ---------------------------------------------------------------------------


def test_criterion_04_newton_exactness_and_descent():
    rng = np.random.Generator(np.random.PCG64(404))
    worst_dist = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.05, 4.0))
        c = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3)) * 2 - 1
        w0 = rng.standard_normal((c, k, k))
        cfg = OptimizerConfig(regularization=lam, iterations=1)
        model, _ = optimize(Kernel2D(w0), [], cfg)
        worst_dist = max(worst_dist, float(np.abs(model.values).max()))

    worst_uphill = -math.inf
    for i in range(100):
        support, w, cfg = _random_opt_instance(rng, LOSS_MODELS[i % 4])
        cfg = OptimizerConfig(
            regularization=cfg.regularization,
            iterations=8,
            loss_model=cfg.loss_model,
            rl2_threshold=cfg.rl2_threshold,
        )
        _, trace = optimize(Kernel2D(w), support, cfg)
        objs = [row.objective for row in trace]
        worst_uphill = max(worst_uphill, float(np.max(np.diff(objs))))
    _criterion(
        4,
        "ridge-only solve is one-step exact; traces never go uphill",
        worst_dist < 1e-12 and worst_uphill <= 1e-12,
        f"max |w1| {worst_dist:.2e}, max uphill {worst_uphill:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. solver agrees with a long small-step gradient-descent oracle
# ---------------------------------------------------------------------------


def test_criterion_05_gd_oracle():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(505))
    feats = [rng.standard_normal((2, 3, 3)) for _ in range(2)]
    labels = [rng.uniform(0.0, 1.0, (3, 3)) + 1e-3 for _ in range(2)]
    gammas = [1.0, 0.7]
    support = [
        SupportSample(FeatureMap(z), Grid2D(l), weight=g)
        for z, l, g in zip(feats, labels, gammas)
    ]
    lam = 1.0
    cfg = OptimizerConfig(regularization=lam, iterations=60, loss_model="kl")
    w0 = rng.standard_normal((2, 1, 1))
    model, _ = optimize(Kernel2D(w0), support, cfg)
    final = objective(model, support, cfg)

    # Both samples stacked: rows are (sample, cell), columns are channels,
    # so each step is one product forward and one back.
    zmat = np.stack(feats).reshape(2, 2, 9).transpose(0, 2, 1).reshape(18, 2)
    pmat = np.stack([l / l.sum() for l in labels]).reshape(2, 9)
    gcol = np.array(gammas)[:, None]

    def oracle_softmax(wv):
        s = (zmat @ wv).reshape(2, 9)
        m = s.max(axis=1, keepdims=True)
        e = np.exp(s - m)
        total = e.sum(axis=1, keepdims=True)
        return s, m, e / total, total

    wv = w0[:, 0, 0].copy()
    for _ in range(100_000):
        _, _, q, _ = oracle_softmax(wv)
        wv -= 1e-3 * (lam * wv + (gcol * (q - pmat)).ravel() @ zmat)
    s, m, _, total = oracle_softmax(wv)
    per_sample = m + np.log(total) - (pmat * s).sum(axis=1, keepdims=True)
    oracle = 0.5 * lam * float(wv @ wv) + float((gcol * per_sample).sum())

    elapsed = time.perf_counter() - t0
    gap = abs(final - oracle)
    _criterion(
        5,
        "9-cell 2-channel solve within 1e-6 of a 1e5-step GD oracle",
        gap <= 1e-6 and elapsed < 10.0,
        f"|gap| {gap:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. sampled estimator's cross term matches dense grid quadrature
# ---------------------------------------------------------------------------


def test_criterion_06_mc_consistency():
    t0 = time.perf_counter()
    sig_label, sig_prop = 1.2, 2.5
    center = np.array([7.2, 7.2])

    def score(y0, y1):
        return np.cos(0.4 * y0) + 0.15 * y1 + 3.0

    def pdf(y0, y1, sig):
        d2 = (y0 - center[0]) ** 2 + (y1 - center[1]) ** 2
        return np.exp(-d2 / (2.0 * sig * sig)) / (2.0 * math.pi * sig * sig)

    # Both cross terms are linear in the label density, so evaluating the
    # library losses at p and at 0 isolates them exactly.
    n = 401
    spacing = 14.4 / (n - 1)
    coords = np.arange(n) * spacing
    y0, y1 = np.meshgrid(coords, coords, indexing="ij")
    s_grid = Grid2D(score(y0, y1))
    p_grid = Grid2D(pdf(y0, y1, sig_label))
    zero = Grid2D(np.zeros((n, n)))
    area = spacing * spacing
    grid_term = (
        kl_grid_loss(s_grid, zero, area, renormalize=False).value
        - kl_grid_loss(s_grid, p_grid, area, renormalize=False).value
    )

    rng = np.random.Generator(np.random.PCG64(11))
    draws = center + sig_prop * rng.standard_normal((100_000, 2))
    s = score(draws[:, 0], draws[:, 1])
    p = pdf(draws[:, 0], draws[:, 1], sig_label)
    q = pdf(draws[:, 0], draws[:, 1], sig_prop)
    mc_term = kl_mc_loss(s, np.zeros_like(p), q).value - kl_mc_loss(s, p, q).value

    elapsed = time.perf_counter() - t0
    rel = abs(mc_term - grid_term) / abs(grid_term)
    _criterion(
        6,
        "1e5-draw sampled cross term matches grid quadrature within 1%",
        rel <= 0.01 and elapsed < 60.0,
        f"rel dev {rel:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. one-hot label grid reduces the divergence loss to the nll loss
# ---------------------------------------------------------------------------


def test_criterion_07_delta_label_equivalence():
    rng = np.random.Generator(np.random.PCG64(707))
    worst = 0.0
    for _ in range(100):
        scores, h, w, area = _random_scores(rng)
        i, j = int(rng.integers(0, h)), int(rng.integers(0, w))
        onehot = np.zeros((h, w))
        onehot[i, j] = 1.0 / area
        spacing = math.sqrt(area)
        kl = kl_grid_loss(scores, Grid2D(onehot), area)
        nll = nll_loss(scores, (i * spacing, j * spacing), area)
        worst = max(
            worst,
            abs(kl.value - nll.value),
            float(np.max(np.abs(kl.grad_scores.values - nll.grad_scores.values))),
        )
    _criterion(
        7,
        "one-hot label grid: kl loss equals nll loss",
        worst <= 1e-12,
        f"max |kl - nll| {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 8. tracking sanity on the static and occlusion scenarios
# ---------------------------------------------------------------------------


def _track_preset(name: str):
    scenario = resolve_scenario(name, seed=3)
    cfg = TrackerConfig()
    [[scorer]] = init_scorers([cfg], [(scenario.target_box(0), np.random.Generator(np.random.PCG64(11)))])
    return scenario, run_sequence(generate_sequence(scenario), scenario.target_box(0), cfg, scorer)


def test_criterion_08_tracking_sanity():
    scenario, run = _track_preset("static")
    ious = [
        iou_brute(np.asarray(b), np.asarray(scenario.target_box(t)))
        for t, b in enumerate(run.boxes)
    ]
    static_ok = len(ious) == 100 and min(ious) >= 0.99

    oscenario, orun = _track_preset("occlusion")
    occluded = range(30, 42)
    final_iou = iou_brute(
        np.asarray(orun.boxes[-1]), np.asarray(oscenario.target_box(oscenario.num_frames - 1))
    )
    occl_ok = (
        all(orun.missing[t] for t in occluded)
        and not orun.missing[-1]
        and final_iou > 0.5
    )

    _, run2 = _track_preset("static")
    _, orun2 = _track_preset("occlusion")
    deterministic = (
        np.array_equal(np.asarray(run.boxes), np.asarray(run2.boxes))
        and np.array_equal(np.asarray(orun.boxes), np.asarray(orun2.boxes))
        and orun.missing == orun2.missing
    )

    _criterion(
        8,
        "static IoU >= 0.99 x100; occlusion flagged + recovered; deterministic",
        static_ok and occl_ok and deterministic,
        f"min static IoU {min(ious):.4f}, recovery IoU {final_iou:.3f}",
    )


# ---------------------------------------------------------------------------
# 9. loss-model comparison on the distractor suite
# ---------------------------------------------------------------------------


def test_criterion_09_loss_ordering(tmp_path):
    t0 = time.perf_counter()
    path = cmd_compare_losses(load_config(None), seed=1, out_dir=tmp_path, jobs=4)
    lines = path.read_text().strip().splitlines()[1:]
    auc = {row.split(",")[0]: float(row.split(",")[1]) for row in lines}
    elapsed = time.perf_counter() - t0
    _criterion(
        9,
        "distractor suite AUC ordering: kl > l2 and kl >= nll",
        auc["kl"] > auc["l2"] and auc["kl"] >= auc["nll"] and elapsed < 300.0,
        f"kl {auc['kl']:.3f}, l2 {auc['l2']:.3f}, nll {auc['nll']:.3f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. label-width sweep has an interior maximum at the default
# ---------------------------------------------------------------------------


def test_criterion_10_sigma_sweep_interior_max(tmp_path):
    t0 = time.perf_counter()
    path = cmd_sigma_sweep(load_config(None), seed=1, out_dir=tmp_path, jobs=4)
    lines = path.read_text().strip().splitlines()[1:]
    auc = {float(row.split(",")[0]): float(row.split(",")[1]) for row in lines}
    elapsed = time.perf_counter() - t0
    default = 1.5
    ok = auc[default] > auc[0.00015] and auc[default] > auc[15.0] and elapsed < 300.0
    _criterion(
        10,
        "sigma sweep peaks at the default width, not at either extreme",
        ok,
        f"tiny {auc[0.00015]:.3f}, default {auc[default]:.3f}, huge {auc[15.0]:.3f}, {elapsed:.0f}s",
    )
