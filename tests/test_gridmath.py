import math

import numpy as np
import pytest

from prtrack.errors import DimensionError, DomainError
from prtrack.gridmath import (
    FeatureMap,
    Grid2D,
    Kernel2D,
    _Workspace,
    conv_adjoint,
    conv_apply,
    dump_grid,
    load_grid,
    log_sum_exp,
    softmax,
)

from _oracles import conv_adjoint_brute, conv_brute


def test_grid_rejects_nan():
    with pytest.raises(DomainError):
        Grid2D(np.array([[1.0, np.nan]]))


def test_kernel_rejects_even_dims():
    with pytest.raises(DimensionError):
        Kernel2D(np.zeros((1, 2, 3)))
    with pytest.raises(DimensionError):
        Kernel2D(np.zeros((1, 3, 4)))


def test_conv_apply_identity_kernel_scaling():
    z = FeatureMap(np.ones((1, 3, 3)))
    w = Kernel2D(np.full((1, 1, 1), 2.0))
    out = conv_apply(z, w)
    assert out.values.shape == (3, 3)
    assert np.array_equal(out.values, np.full((3, 3), 2.0))


def test_conv_apply_zero_input():
    z = FeatureMap(np.zeros((1, 3, 3)))
    w = Kernel2D(np.arange(9, dtype=float).reshape(1, 3, 3))
    assert np.array_equal(conv_apply(z, w).values, np.zeros((3, 3)))


def test_conv_apply_matches_brute_force_loop():
    rng = np.random.Generator(np.random.PCG64(11))
    z = rng.standard_normal((1, 5, 5))
    w = rng.standard_normal((1, 3, 3))
    got = conv_apply(FeatureMap(z), Kernel2D(w)).values
    want = conv_brute(z, w)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_conv_apply_matches_brute_force_multichannel():
    rng = np.random.Generator(np.random.PCG64(12))
    z = rng.standard_normal((3, 7, 6))
    w = rng.standard_normal((3, 5, 3))
    got = conv_apply(FeatureMap(z), Kernel2D(w)).values
    np.testing.assert_allclose(got, conv_brute(z, w), rtol=0, atol=1e-12)


def test_conv_apply_channel_mismatch():
    with pytest.raises(DimensionError):
        conv_apply(FeatureMap(np.zeros((2, 4, 4))), Kernel2D(np.zeros((1, 3, 3))))


def test_conv_apply_kernel_too_large():
    with pytest.raises(DimensionError):
        conv_apply(FeatureMap(np.zeros((1, 3, 3))), Kernel2D(np.zeros((1, 5, 5))))


def test_conv_apply_linear_in_kernel():
    rng = np.random.Generator(np.random.PCG64(13))
    z = FeatureMap(rng.standard_normal((2, 6, 6)))
    w1 = rng.standard_normal((2, 3, 3))
    w2 = rng.standard_normal((2, 3, 3))
    a, b = 0.7, -1.9
    lhs = conv_apply(z, Kernel2D(a * w1 + b * w2)).values
    rhs = a * conv_apply(z, Kernel2D(w1)).values + b * conv_apply(z, Kernel2D(w2)).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_conv_adjoint_zero_input():
    z = FeatureMap(np.zeros((2, 4, 4)))
    u = Grid2D(np.ones((4, 4)))
    assert np.array_equal(conv_adjoint(z, u, (3, 3)).values, np.zeros((2, 3, 3)))


def test_conv_adjoint_scalar_case():
    z = FeatureMap(np.full((1, 1, 1), 3.0))
    u = Grid2D(np.full((1, 1), 2.0))
    assert conv_adjoint(z, u, (1, 1)).values[0, 0, 0] == 6.0


def test_conv_adjoint_identity():
    # <conv(z, w), u> == <w, adjoint(z, u)> for random seed-fixed triples.
    rng = np.random.Generator(np.random.PCG64(14))
    for _ in range(20):
        c = int(rng.integers(1, 4))
        h = int(rng.integers(3, 9))
        wd = int(rng.integers(3, 9))
        kh = int(rng.choice([k for k in (1, 3, 5) if k <= h]))
        kw = int(rng.choice([k for k in (1, 3, 5) if k <= wd]))
        z = FeatureMap(rng.standard_normal((c, h, wd)))
        w = Kernel2D(rng.standard_normal((c, kh, kw)))
        u = Grid2D(rng.standard_normal((h, wd)))
        lhs = float(np.vdot(conv_apply(z, w).values, u.values))
        rhs = float(np.vdot(w.values, conv_adjoint(z, u, (kh, kw)).values))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@pytest.mark.parametrize("shape,kernel", [((3, 7, 5), (5, 3)), ((2, 4, 9), (3, 7))])
def test_conv_adjoint_matches_brute_force_loop(shape, kernel):
    rng = np.random.Generator(np.random.PCG64(18))
    z = rng.standard_normal(shape)
    u = rng.standard_normal(shape[1:])
    got = conv_adjoint(FeatureMap(z), Grid2D(u), kernel).values
    np.testing.assert_allclose(got, conv_adjoint_brute(z, u, *kernel), rtol=0, atol=1e-12)


def test_full_map_kernel_matches_brute_force():
    # A kernel as large as the map: every output cell sees the padding.
    rng = np.random.Generator(np.random.PCG64(19))
    z = rng.standard_normal((2, 5, 7))
    w = rng.standard_normal((2, 5, 7))
    u = rng.standard_normal((5, 7))
    got = conv_apply(FeatureMap(z), Kernel2D(w)).values
    np.testing.assert_allclose(got, conv_brute(z, w), rtol=0, atol=1e-12)
    adj = conv_adjoint(FeatureMap(z), Grid2D(u), (5, 7)).values
    np.testing.assert_allclose(adj, conv_adjoint_brute(z, u, 5, 7), rtol=0, atol=1e-12)


def _workspace_shapes():
    """(C, H, W, kh, kw) cases: 1x1 kernels, kernels the size of the map, non-square maps, random."""
    yield from [(1, 1, 1, 1, 1), (3, 4, 9, 1, 1), (2, 5, 7, 5, 7), (1, 9, 3, 9, 3), (2, 6, 11, 3, 11)]
    rng = np.random.Generator(np.random.PCG64(20))
    for _ in range(25):
        h, w = (int(v) for v in rng.integers(1, 12, size=2))
        kh, kw = (int(rng.choice(np.arange(1, n + 1, 2))) for n in (h, w))
        yield int(rng.integers(1, 4)), h, w, kh, kw


def _workspace_pass(ws, z, k, u):
    """Scores of k and the pullback of u on map z, then the scores once more after the adjoint."""
    ws.unfold(z)
    scores = np.full(u.size, np.nan)
    ws.correlate(ws.arrange(k), scores)
    pull = ws.adjoint(u.ravel())
    again = np.full(u.size, np.nan)
    ws.correlate(ws.arrange(k), again)
    return scores.reshape(u.shape), pull, again.reshape(u.shape)


@pytest.mark.parametrize("shape", list(_workspace_shapes()))
def test_reused_workspace_is_exact(shape):
    # One workspace runs samples A, B, then A again.  Each result equals a
    # fresh workspace's and the one-shot primitives' bit for bit, and the
    # brute-force loops within their usual tolerance, so no border is left
    # dirty and the unfold survives the buffer the product and adjoint share.
    c, h, w, kh, kw = shape
    rng = np.random.Generator(np.random.PCG64(21))
    samples = [
        (rng.standard_normal((c, h, w)), rng.standard_normal((c, kh, kw)), rng.standard_normal((h, w)))
        for _ in range(2)
    ]
    ws = _Workspace((c, h, w), (c, kh, kw))
    for z, k, u in (samples[0], samples[1], samples[0]):
        scores, pull, again = _workspace_pass(ws, z, k, u)
        fresh_scores, fresh_pull, _ = _workspace_pass(_Workspace((c, h, w), (c, kh, kw)), z, k, u)
        assert np.array_equal(scores, fresh_scores) and np.array_equal(again, scores)
        assert np.array_equal(pull, fresh_pull)
        assert np.array_equal(scores, conv_apply(FeatureMap(z), Kernel2D(k)).values)
        assert np.array_equal(pull, conv_adjoint(FeatureMap(z), Grid2D(u), (kh, kw)).values)
        np.testing.assert_allclose(scores, conv_brute(z, k), rtol=0, atol=1e-12)
        np.testing.assert_allclose(pull, conv_adjoint_brute(z, u, kh, kw), rtol=0, atol=1e-12)


def test_conv_adjoint_size_mismatch():
    z = FeatureMap(np.zeros((1, 4, 4)))
    with pytest.raises(DimensionError):
        conv_adjoint(z, Grid2D(np.zeros((3, 4))), (3, 3))


def test_log_sum_exp_two_zeros():
    assert log_sum_exp(Grid2D(np.zeros((1, 2))), 1.0) == pytest.approx(math.log(2), abs=1e-12)


def test_log_sum_exp_huge_scores_no_overflow():
    v = log_sum_exp(Grid2D(np.full((1, 2), 1000.0)), 1.0)
    assert math.isfinite(v)
    assert v == pytest.approx(1000.0 + math.log(2), abs=1e-9)


def test_log_sum_exp_area_cancels():
    assert log_sum_exp(Grid2D(np.zeros((2, 2))), 0.25) == pytest.approx(0.0, abs=1e-12)


def test_log_sum_exp_area_factorizes():
    rng = np.random.Generator(np.random.PCG64(15))
    g = Grid2D(rng.standard_normal((4, 5)))
    for a in (0.01, 0.5, 3.0):
        assert log_sum_exp(g, a) == pytest.approx(math.log(a) + log_sum_exp(g, 1.0), abs=1e-12)


def test_log_sum_exp_empty_grid():
    with pytest.raises(DomainError):
        log_sum_exp(Grid2D(np.zeros((0, 3))), 1.0)


def test_softmax_uniform():
    out = softmax(Grid2D(np.zeros((2, 2)))).values
    np.testing.assert_allclose(out, np.full((2, 2), 0.25), atol=1e-15)


def test_softmax_analytic_two_cell():
    out = softmax(Grid2D(np.array([[0.0, math.log(3.0)]]))).values
    np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-12)


def test_softmax_shift_invariant_and_normalized():
    rng = np.random.Generator(np.random.PCG64(16))
    g = rng.standard_normal((5, 4))
    base = softmax(Grid2D(g)).values
    shifted = softmax(Grid2D(g + 123.456)).values
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    assert base.min() >= 0.0
    assert abs(base.sum() - 1.0) <= 1e-12


def test_dump_load_round_trip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(17))
    g = Grid2D(rng.standard_normal((3, 4)))
    path = tmp_path / "grid.txt"
    dump_grid(g, path)
    header = path.read_text().splitlines()[0]
    assert header == "3 4"
    back = load_grid(path)
    # 9 significant digits survive the round trip to that precision.
    np.testing.assert_allclose(back.values, g.values, rtol=1e-8, atol=1e-12)


def test_load_grid_rejects_malformed_body(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 2\n3\n")
    with pytest.raises(DimensionError):
        load_grid(path)
