import math

import numpy as np
import pytest

from prtrack.errors import DimensionError, DomainError
from prtrack.labels import (
    MixtureProposal,
    gaussian_density,
    gaussian_normalizer,
    iou_xywh,
    label_grid,
    proposal_density,
    proposal_sample,
)

PAPER_MIXTURE = MixtureProposal([0.5, 0.5], [0.05, 0.5], 4)


def test_label_requires_positive_sigma():
    with pytest.raises(DomainError):
        label_grid([0.0, 0.0], 0.0, (3, 3))
    with pytest.raises(DomainError):
        gaussian_density(0.0, -1.0, 4)


def test_mixture_weights_must_sum_to_one():
    with pytest.raises(DomainError):
        MixtureProposal([0.3, 0.3], [0.05, 0.5], 4)


def test_label_grid_peak_value():
    g = label_grid([2.0, 2.0], 1.0, (5, 5))
    assert g.values[2, 2] == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-12)
    assert g.values[2, 2] == pytest.approx(0.1591549, abs=1e-7)


def test_label_grid_far_center_decays():
    g = label_grid([100.0, 100.0], 1.0, (4, 4))
    assert float(g.values.max()) < 1e-12


def test_label_grid_offset_closed_form():
    # sigma = 2, cell at offset (1,1) from the center.
    g = label_grid([1.0, 1.0], 2.0, (5, 5))
    want = math.exp(-0.25) / (8.0 * math.pi)
    assert g.values[2, 2] == pytest.approx(want, abs=1e-12)
    assert want == pytest.approx(0.0309875, abs=1e-7)


def test_label_grid_matches_pointwise_closed_form():
    rng = np.random.Generator(np.random.PCG64(31))
    center = rng.uniform(1.0, 5.0, size=2)
    sigma = 1.3
    g = label_grid(center, sigma, (7, 7))
    for r in range(7):
        for c in range(7):
            d2 = (r - center[0]) ** 2 + (c - center[1]) ** 2
            want = math.exp(-d2 / (2 * sigma * sigma)) / (2 * math.pi * sigma * sigma)
            assert g.values[r, c] == pytest.approx(want, abs=1e-12)


def test_label_grid_cell_scaling():
    # Cells are unit squares: cell (i, j) sits at (i, j), also for a center
    # between cells.
    g = label_grid([0.5, 0.5], 1.0, (4, 4))
    d2 = (2 - 0.5) ** 2 + (3 - 0.5) ** 2
    want = math.exp(-d2 / 2.0) / (2.0 * math.pi)
    assert g.values[2, 3] == pytest.approx(want, abs=1e-12)


def test_label_grid_mass_near_one_when_supported():
    # Support (+-4 sigma) inside the grid -> discrete mass within 2% of 1.
    for sigma in (1.0, 1.5, 0.8):
        n = int(math.ceil(10 * sigma)) | 1
        mid = float(n // 2)
        g = label_grid([mid, mid], sigma, (n, n))
        assert float(g.values.sum()) == pytest.approx(1.0, rel=0.02)


def test_label_grid_validation():
    with pytest.raises(DimensionError):
        label_grid([1.0, 1.0, 1.0], 1.0, (3, 3))
    with pytest.raises(DomainError):
        label_grid([math.nan, 1.0], 1.0, (3, 3))
    with pytest.raises(DimensionError):
        label_grid([1.0, 1.0], 1.0, (0, 3))
    with pytest.raises(DomainError, match="normalizer"):
        label_grid([1.0, 1.0], 1e-200, (3, 3))


def test_gaussian_density_4d_paper_sigma():
    v = gaussian_density(0.0, 0.05, 4)
    assert v == pytest.approx((2.0 * math.pi * 0.0025) ** -2, rel=1e-12)
    assert v == pytest.approx(4052.847, abs=1e-3)


def test_gaussian_density_2d_peak():
    assert gaussian_density(0.0, 1.0, 2) == pytest.approx(1.0 / (2 * math.pi), abs=1e-12)


def test_gaussian_density_tail_vanishes():
    assert gaussian_density(2 * 100.0**2, 0.7, 2) == pytest.approx(0.0, abs=1e-300)


def test_gaussian_density_decreasing_in_distance():
    prev = gaussian_density(0.0, 1.1, 2)
    for r in (0.5, 1.0, 2.0, 4.0):
        cur = gaussian_density(r * r, 1.1, 2)
        assert cur < prev
        prev = cur


def test_proposal_sample_mean_law_of_large_numbers():
    # The draws are offsets from the annotation, centered on it.
    q = MixtureProposal([1.0], [0.3], 4)
    rng = np.random.Generator(np.random.PCG64(32))
    draws = proposal_sample(q, rng, size=100_000)
    bound = 4 * 0.3 / math.sqrt(100_000)
    assert np.abs(draws.mean(axis=0)).max() <= bound


def test_proposal_sample_degenerate_sigma():
    q = MixtureProposal([1.0], [1e-12], 4)
    rng = np.random.Generator(np.random.PCG64(33))
    for _ in range(10):
        assert np.abs(proposal_sample(q, rng, size=1)).max() <= 1e-10


def test_proposal_sample_paper_mixture_variance():
    rng = np.random.Generator(np.random.PCG64(34))
    draws = proposal_sample(PAPER_MIXTURE, rng, size=100_000)
    want = 0.5 * 0.05**2 + 0.5 * 0.5**2
    assert want == pytest.approx(0.12625, abs=1e-12)
    np.testing.assert_allclose(draws.var(axis=0), want, rtol=0.05)


@pytest.mark.parametrize(
    "weights,sigmas",
    [([1.0], [0.3]), ([0.5, 0.5], [0.05, 0.5]), ([0.2, 0.3, 0.5], [0.01, 0.1, 1.0])],
)
@pytest.mark.parametrize("size", [1, 7, 768])
def test_proposal_sample_matches_choice_stream(weights, sigmas, size):
    # The draws are rng.choice(p=weights) then standard_normal, bit for bit,
    # and leave the generator where that pair of calls leaves it.
    q = MixtureProposal(weights, sigmas, 4)
    rng_a = np.random.Generator(np.random.PCG64(38))
    rng_b = np.random.Generator(np.random.PCG64(38))
    for _ in range(3):
        got = proposal_sample(q, rng_a, size=size)
        comp = rng_b.choice(len(weights), size=size, p=np.asarray(weights))
        want = np.asarray(sigmas)[comp, None] * rng_b.standard_normal((size, 4))
        np.testing.assert_array_equal(got, want)
        assert got.shape == (size, 4)
        assert got.T.flags.c_contiguous  # coordinate-major
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_proposal_sample_uses_no_choice():
    class NoChoice:
        def __init__(self, rng):
            self.random = rng.random
            self.standard_normal = rng.standard_normal

    draws = proposal_sample(PAPER_MIXTURE, NoChoice(np.random.Generator(np.random.PCG64(39))), size=5)
    assert draws.shape == (5, 4)


@pytest.mark.parametrize("sigma,dim", [(1e-300, 2), (1e-160, 2), (1e-100, 4), (1e200, 2), (math.inf, 4)])
def test_non_finite_normalizer_rejected_when_built(sigma, dim):
    with pytest.raises(DomainError, match="normalizer"):
        gaussian_normalizer(sigma, dim)
    with pytest.raises(DomainError, match="normalizer"):
        gaussian_density(np.zeros(3), sigma, dim)
    with pytest.raises(DomainError, match="normalizer"):
        MixtureProposal([0.5, 0.5], [0.5, sigma], dim)


def test_densities_keep_their_values_for_valid_widths():
    # Bit for bit the textbook expression, from tiny to wide widths.
    rng = np.random.Generator(np.random.PCG64(40))
    ys = rng.standard_normal((64, 4))
    for sigma in (1e-75, 1e-3, 0.05, 0.5, 3.0, 1e50):
        d2 = (ys**2).sum(axis=1)
        want = (2.0 * math.pi * sigma * sigma) ** -2.0 * np.exp(-d2 / (2.0 * sigma * sigma))
        np.testing.assert_array_equal(gaussian_density(d2, sigma, 4), want)
        np.testing.assert_array_equal(proposal_density(MixtureProposal([1.0], [sigma], 4), d2), want)
        assert gaussian_normalizer(sigma, 4) == (2.0 * math.pi * sigma * sigma) ** -2.0


def test_proposal_density_at_center():
    v = proposal_density(PAPER_MIXTURE, 0.0)
    want = 0.5 * (2 * math.pi * 0.05**2) ** -2 + 0.5 * (2 * math.pi * 0.5**2) ** -2
    assert v == pytest.approx(want, rel=1e-12)


def test_proposal_density_mixture_collapse():
    q = MixtureProposal([0.5, 0.5], [0.4, 0.4], 4)
    rng = np.random.Generator(np.random.PCG64(35))
    for _ in range(5):
        d2 = float(np.square(rng.standard_normal(4)).sum())
        single = gaussian_density(d2, 0.4, 4)
        assert proposal_density(q, d2) == pytest.approx(single, rel=1e-12)


def test_proposal_density_far_tail_wide_component():
    wide = gaussian_density(3.0**2, 0.5, 4)
    ratio = proposal_density(PAPER_MIXTURE, 3.0**2) / wide
    assert ratio == pytest.approx(0.5, abs=1e-6)


def test_proposal_density_strictly_positive():
    rng = np.random.Generator(np.random.PCG64(36))
    for _ in range(50):
        # Stay inside the float64-representable tail of the wider component.
        d2 = float(np.square(rng.uniform(-6, 6, size=4)).sum())
        assert proposal_density(PAPER_MIXTURE, d2) > 0.0


def test_iou_identity_and_disjoint():
    a = np.array([0.0, 0.0, 1.0, 1.0])
    b = np.array([10.0, 10.0, 1.0, 1.0])
    assert iou_xywh(a, a) == pytest.approx(1.0, abs=1e-12)
    assert iou_xywh(a, b) == pytest.approx(0.0, abs=1e-12)


def test_iou_half_offset():
    a = np.array([0.0, 0.0, 1.0, 1.0])
    b = np.array([0.5, 0.0, 1.0, 1.0])
    assert iou_xywh(a, b) == pytest.approx(0.5 / 1.5, abs=1e-9)


def test_iou_symmetry():
    rng = np.random.Generator(np.random.PCG64(37))
    for _ in range(20):
        a = np.array([*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3, 2)])
        b = np.array([*rng.uniform(-2, 2, 2), *rng.uniform(0.5, 3, 2)])
        assert iou_xywh(a, b) == pytest.approx(iou_xywh(b, a), abs=1e-14)
        assert 0.0 <= float(iou_xywh(a, b)) <= 1.0
