"""Value and gradient checks for the four regression objectives."""

import math

import numpy as np
import pytest

from _oracles import fd_gradient
from prtrack.errors import DimensionError, DomainError
from prtrack.gridmath import Grid2D, log_sum_exp
from prtrack.losses import (
    kl_grid_loss,
    kl_mc_loss,
    l2_loss,
    nll_loss,
    robust_l2_loss,
)


def _grid(values):
    return Grid2D(np.asarray(values, dtype=np.float64))


def _rand_grid(rng, h=6, w=7, scale=1.0):
    return Grid2D(rng.normal(0.0, scale, (h, w)))


# ---------------------------------------------------------------------------
# l2
# ---------------------------------------------------------------------------


def test_l2_exact_fit_is_zero():
    rng = np.random.Generator(np.random.PCG64(0))
    a = _rand_grid(rng)
    out = l2_loss(a, a)
    assert out.value == 0.0
    assert np.all(out.grad_scores.values == 0.0)


def test_l2_single_residual():
    out = l2_loss(_grid([[1.0, 0.0]]), _grid([[0.0, 0.0]]), cell_area=1.0)
    assert out.value == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(out.grad_scores.values, [[2.0, 0.0]], atol=1e-15)


def test_l2_value_scales_with_cell_area():
    rng = np.random.Generator(np.random.PCG64(1))
    s, a = _rand_grid(rng), _rand_grid(rng)
    v1 = l2_loss(s, a, cell_area=1.0).value
    v4 = l2_loss(s, a, cell_area=0.25).value
    assert v4 == pytest.approx(0.25 * v1, rel=1e-14)


def test_l2_shape_mismatch():
    with pytest.raises(DimensionError):
        l2_loss(_grid(np.zeros((3, 4))), _grid(np.zeros((4, 3))))


def test_l2_rejects_nonpositive_cell_area():
    with pytest.raises(DomainError):
        l2_loss(_grid([[0.0]]), _grid([[0.0]]), cell_area=0.0)


# ---------------------------------------------------------------------------
# robust l2
# ---------------------------------------------------------------------------


def test_robust_l2_quadratic_branch():
    out = robust_l2_loss(_grid([[0.5]]), _grid([[0.8]]), threshold=0.25)
    assert out.value == pytest.approx(0.09, abs=1e-15)


def test_robust_l2_hinge_inactive():
    out = robust_l2_loss(_grid([[-0.3]]), _grid([[0.1]]), threshold=0.25)
    assert out.value == 0.0
    assert np.all(out.grad_scores.values == 0.0)


def test_robust_l2_hinge_active():
    out = robust_l2_loss(_grid([[0.3]]), _grid([[0.1]]), threshold=0.25)
    assert out.value == pytest.approx(0.09, abs=1e-15)
    np.testing.assert_allclose(out.grad_scores.values, [[0.6]], atol=1e-15)


def test_robust_l2_equals_l2_when_all_labels_near():
    rng = np.random.Generator(np.random.PCG64(2))
    s = _rand_grid(rng)
    a = Grid2D(rng.uniform(0.3, 1.0, (6, 7)))
    plain = l2_loss(s, a, cell_area=0.5)
    robust = robust_l2_loss(s, a, threshold=0.25, cell_area=0.5)
    assert robust.value == pytest.approx(plain.value, rel=1e-14)
    np.testing.assert_allclose(robust.grad_scores.values, plain.grad_scores.values)


def test_robust_l2_shape_mismatch():
    with pytest.raises(DimensionError):
        robust_l2_loss(_grid(np.zeros((2, 2))), _grid(np.zeros((2, 3))), threshold=0.1)


# ---------------------------------------------------------------------------
# nll
# ---------------------------------------------------------------------------


def test_nll_uniform_scores():
    out = nll_loss(_grid(np.zeros((2, 2))), (0.0, 1.0), cell_area=1.0)
    assert out.value == pytest.approx(math.log(4.0), abs=1e-12)


def test_nll_confident_correct_prediction_tends_to_zero():
    values = []
    for c in (5.0, 20.0, 60.0):
        s = np.zeros((3, 3))
        s[1, 2] = c
        values.append(nll_loss(_grid(s), (1.0, 2.0)).value)
    assert values[0] > values[1] > values[2]
    assert values[-1] == pytest.approx(0.0, abs=1e-8)


def test_nll_snaps_to_nearest_cell():
    s = np.zeros((3, 3))
    s[1, 2] = 2.0
    exact = nll_loss(_grid(s), (1.0, 2.0)).value
    snapped = nll_loss(_grid(s), (0.9, 2.1)).value
    assert snapped == exact


def test_nll_cell_spacing_follows_cell_area():
    # With A = 0.25 the spacing is 0.5, so (1.0, 0.5) addresses cell (2, 1).
    s = np.zeros((4, 4))
    s[2, 1] = 3.0
    out = nll_loss(_grid(s), (1.0, 0.5), cell_area=0.25)
    want = math.log(0.25) + log_sum_exp(_grid(s)) - 3.0
    assert out.value == pytest.approx(want, abs=1e-12)


def test_nll_rejects_coordinate_off_grid():
    with pytest.raises(DomainError):
        nll_loss(_grid(np.zeros((3, 3))), (5.0, 0.0))


def test_nll_gradient_sums_to_zero():
    # softmax mass 1 minus the one-hot leaves zero net gradient.
    rng = np.random.Generator(np.random.PCG64(3))
    out = nll_loss(_rand_grid(rng), (2.0, 3.0))
    assert out.grad_scores.values.sum() == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# kl on the grid
# ---------------------------------------------------------------------------


def test_kl_grid_uniform_matches_entropy_floor():
    # Identical uniform distributions: value ln 4, divergence exactly 0.
    scores = _grid(np.zeros((2, 2)))
    labels = _grid(np.full((2, 2), 0.25))
    out = kl_grid_loss(scores, labels, cell_area=1.0)
    assert out.value == pytest.approx(math.log(4.0), abs=1e-12)
    p_cell = 0.25
    floor = -4.0 * p_cell * math.log(p_cell)
    assert out.value - floor == pytest.approx(0.0, abs=1e-12)


def test_kl_grid_shift_invariance():
    rng = np.random.Generator(np.random.PCG64(4))
    s = _rand_grid(rng)
    p = Grid2D(rng.uniform(0.01, 1.0, (6, 7)))
    base = kl_grid_loss(s, p, cell_area=0.5).value
    shifted = kl_grid_loss(Grid2D(s.values + 11.75), p, cell_area=0.5).value
    assert shifted == pytest.approx(base, abs=1e-10)


def test_kl_grid_divergence_nonnegative():
    # value + A*sum p log p is the divergence itself, so it never dips
    # below zero; at A = 1 the cell-mass form sum (Ap) log (Ap) coincides.
    rng = np.random.Generator(np.random.PCG64(5))
    for _ in range(20):
        s = _rand_grid(rng, 5, 5, scale=2.0)
        a = float(rng.choice([0.25, 0.5, 1.0]))
        p = rng.uniform(0.01, 1.0, (5, 5))
        p /= p.sum() * a
        out = kl_grid_loss(s, Grid2D(p), cell_area=a)
        assert out.value + a * (p * np.log(p)).sum() >= -1e-10
        if a == 1.0:
            mass = a * p
            assert out.value + (mass * np.log(mass)).sum() >= -1e-10


def test_kl_grid_delta_label_equals_nll():
    rng = np.random.Generator(np.random.PCG64(6))
    s = _rand_grid(rng, 5, 6)
    a = 0.25
    delta = np.zeros((5, 6))
    delta[3, 4] = 1.0 / a
    spacing = math.sqrt(a)
    grid_out = kl_grid_loss(s, Grid2D(delta), cell_area=a)
    nll_out = nll_loss(s, (3.0 * spacing, 4.0 * spacing), cell_area=a)
    assert grid_out.value == pytest.approx(nll_out.value, abs=1e-12)
    np.testing.assert_allclose(
        grid_out.grad_scores.values, nll_out.grad_scores.values, atol=1e-12
    )


def test_kl_grid_convex_in_scores():
    rng = np.random.Generator(np.random.PCG64(7))
    p = rng.uniform(0.01, 1.0, (5, 5))
    p /= p.sum() * 0.5
    labels = Grid2D(p)
    for _ in range(20):
        s1 = _rand_grid(rng, 5, 5, scale=2.0)
        s2 = _rand_grid(rng, 5, 5, scale=2.0)
        t = rng.uniform()
        mix = Grid2D(t * s1.values + (1.0 - t) * s2.values)
        lm = kl_grid_loss(mix, labels, cell_area=0.5).value
        l1 = kl_grid_loss(s1, labels, cell_area=0.5).value
        l2 = kl_grid_loss(s2, labels, cell_area=0.5).value
        assert lm <= t * l1 + (1.0 - t) * l2 + 1e-10


def test_kl_grid_raw_mass_mode():
    rng = np.random.Generator(np.random.PCG64(8))
    s = _rand_grid(rng, 4, 4)
    p = rng.uniform(0.1, 1.0, (4, 4))
    a = 1.0
    raw = kl_grid_loss(s, Grid2D(p), cell_area=a, renormalize=False).value
    norm = kl_grid_loss(s, Grid2D(p), cell_area=a, renormalize=True).value
    mass = p.sum() * a
    # Only the label-weighted term changes; it scales with the raw mass.
    lse = log_sum_exp(s)
    assert raw - lse == pytest.approx(mass * (norm - lse), rel=1e-12)


def test_kl_grid_rejects_negative_labels():
    with pytest.raises(DomainError):
        kl_grid_loss(_grid(np.zeros((2, 2))), _grid([[0.5, -0.1], [0.3, 0.3]]))


def test_kl_grid_rejects_empty_grids():
    empty = _grid(np.zeros((0, 3)))
    for renormalize in (True, False):
        with pytest.raises(DomainError):
            kl_grid_loss(empty, empty, renormalize=renormalize)


def test_kl_grid_shape_mismatch():
    with pytest.raises(DimensionError):
        kl_grid_loss(_grid(np.zeros((2, 2))), _grid(np.zeros((2, 3))))


# ---------------------------------------------------------------------------
# kl via importance sampling
# ---------------------------------------------------------------------------


def test_kl_mc_single_sample_identity():
    out = kl_mc_loss([0.0], [1.0], [1.0])
    assert out.value == pytest.approx(0.0, abs=1e-15)


def test_kl_mc_constant_scores_proposal_matches_label():
    rng = np.random.Generator(np.random.PCG64(9))
    p = rng.uniform(0.2, 3.0, 16)
    want = math.log(np.mean(1.0 / p))
    for c in (-2.5, 0.0, 3.7):
        s = np.full(16, c)
        out = kl_mc_loss(s, p, p)
        assert out.value == pytest.approx(want, abs=1e-12)


def test_kl_mc_large_scores_and_densities_stay_finite():
    out = kl_mc_loss([1000.0, 1001.0], [4052.8, 0.4], [2026.6, 2026.6])
    assert math.isfinite(out.value)
    assert np.isfinite(out.grad_scores).all()


def test_kl_mc_rejects_bad_inputs():
    with pytest.raises(DomainError):
        kl_mc_loss([0.0], [1.0], [0.0])
    with pytest.raises(DomainError):
        kl_mc_loss([0.0], [1.0], [-1.0])
    with pytest.raises(DimensionError):
        kl_mc_loss([0.0, 1.0], [1.0], [1.0, 1.0])
    with pytest.raises(DimensionError):
        kl_mc_loss([], [], [])
    with pytest.raises(DomainError):
        kl_mc_loss([np.nan], [1.0], [1.0])


def test_kl_mc_stacked_rows_match_one_row_calls():
    # A (jobs, cells, draws) stack: each job names its label (or None, a
    # zero label), each cell brings its own proposal row, and every (job,
    # cell) value and gradient is bit for bit the one-row call's.
    rng = np.random.Generator(np.random.PCG64(11))
    k = 40
    s = rng.normal(0.0, 2.0, (5, 2, k))
    p = rng.uniform(0.0, 3.0, (3, 2, k))
    q = rng.uniform(0.1, 2.0, (2, k))
    label_rows = [0, None, 1, 2, 0]
    out = kl_mc_loss(s, p, q, label_rows)
    assert out.value.shape == (5, 2) and out.grad_scores.shape == (5, 2, k)
    for j, i in enumerate(label_rows):
        for c in range(2):
            want = kl_mc_loss(s[j, c], np.zeros(k) if i is None else p[i, c], q[c])
            assert out.value[j, c] == want.value
            assert np.array_equal(out.grad_scores[j, c], want.grad_scores)
    # By default job j uses label j.
    by_row = kl_mc_loss(s[:2], p[:2], q)
    for j in range(2):
        for c in range(2):
            assert by_row.value[j, c] == kl_mc_loss(s[j, c], p[j, c], q[c]).value


def test_kl_mc_rejects_bad_proposal_rows():
    # One proposal row per cell, and every stack on the same cells and draws.
    s, p, q = np.zeros((2, 2, 3)), np.ones((1, 2, 3)), np.ones((2, 3))
    for bad_q in (q[0], q[:1], np.ones((3, 3)), np.ones((2, 4)), q[None]):
        with pytest.raises(DimensionError, match="stacks"):
            kl_mc_loss(s, p, bad_q, [0, 0])
    with pytest.raises(DimensionError, match="stacks"):
        kl_mc_loss(s, p[:, :1], q, [0, 0])
    with pytest.raises(DimensionError, match="label_rows"):
        kl_mc_loss(s, p, q, [0, 1])
    with pytest.raises(DimensionError, match="label_rows"):
        kl_mc_loss(s, p, q, [0])


def _gauss2(y, c, sigma):
    d2 = ((y - c) ** 2).sum(axis=-1)
    return np.exp(-0.5 * d2 / sigma**2) / (2.0 * math.pi * sigma**2)


def test_kl_mc_estimates_grid_objective():
    # Importance-sampled terms against dense-grid quadrature of the same
    # continuous objective: smooth bounded scores, Gaussian label, wider
    # Gaussian proposal, 1e5 draws.
    rng = np.random.Generator(np.random.PCG64(10))
    center = np.array([5.0, 5.0])
    sigma_p, sigma_q = 1.2, 2.5

    def score_fn(y):
        return np.cos(0.4 * y[..., 0]) + 0.15 * y[..., 1]

    ys = rng.normal(center, sigma_q, size=(100_000, 2))
    s = score_fn(ys)
    p = _gauss2(ys, center, sigma_p)
    q = _gauss2(ys, center, sigma_q)
    out = kl_mc_loss(s, p, q)

    # Independent longdouble evaluation of both terms.
    sl = s.astype(np.longdouble)
    first = float(np.log(np.mean(np.exp(sl) / q)))
    second = float(np.mean(sl * p / q))
    assert out.value == pytest.approx(first - second, abs=1e-10)

    # Dense quadrature over +-6 sigma of the label Gaussian.
    ax = np.linspace(center[0] - 6 * sigma_p, center[0] + 6 * sigma_p, 401)
    gy, gx = np.meshgrid(ax, ax, indexing="ij")
    pts = np.stack([gy, gx], axis=-1)
    cell = (ax[1] - ax[0]) ** 2
    grid_second = float((score_fn(pts) * _gauss2(pts, center, sigma_p)).sum() * cell)
    assert second == pytest.approx(grid_second, rel=0.01)


# ---------------------------------------------------------------------------
# gradients against finite differences
# ---------------------------------------------------------------------------


def _fd_check(f, x, grad, rel=1e-6):
    fd = fd_gradient(f, x, eps=1e-5)
    scale = max(1.0, float(np.abs(fd).max()))
    assert float(np.abs(fd - np.asarray(grad)).max()) <= rel * scale


@pytest.mark.parametrize("seed", range(100))
def test_gradients_match_finite_differences(seed):
    rng = np.random.Generator(np.random.PCG64(1000 + seed))
    h, w = 4, 5
    area = float(rng.choice([0.25, 0.5, 1.0]))
    s0 = rng.normal(0.0, 1.5, (h, w))

    a = rng.normal(0.0, 1.0, (h, w))
    _fd_check(
        lambda x: l2_loss(Grid2D(x), Grid2D(a), area).value,
        s0,
        l2_loss(Grid2D(s0), Grid2D(a), area).grad_scores.values,
    )

    # Keep background scores away from the hinge kink at 0.
    labels = rng.uniform(0.0, 1.0, (h, w))
    s_r = np.where(np.abs(s0) < 0.05, 0.25, s0)
    _fd_check(
        lambda x: robust_l2_loss(Grid2D(x), Grid2D(labels), 0.3, area).value,
        s_r,
        robust_l2_loss(Grid2D(s_r), Grid2D(labels), 0.3, area).grad_scores.values,
    )

    spacing = math.sqrt(area)
    coord = (2.0 * spacing, 3.0 * spacing)
    _fd_check(
        lambda x: nll_loss(Grid2D(x), coord, area).value,
        s0,
        nll_loss(Grid2D(s0), coord, area).grad_scores.values,
    )

    p = rng.uniform(0.01, 1.0, (h, w))
    _fd_check(
        lambda x: kl_grid_loss(Grid2D(x), Grid2D(p), area).value,
        s0,
        kl_grid_loss(Grid2D(s0), Grid2D(p), area).grad_scores.values,
    )

    k = 12
    sv = rng.normal(0.0, 1.5, k)
    pv = rng.uniform(0.0, 2.0, k)
    qv = rng.uniform(0.1, 3.0, k)
    _fd_check(
        lambda x: kl_mc_loss(x, pv, qv).value,
        sv,
        kl_mc_loss(sv, pv, qv).grad_scores,
    )
