import math

import numpy as np
import pytest

from prtrack.density import GridDensity, normalize, read_peak
from prtrack.errors import DomainError
from prtrack.gridmath import Grid2D


def test_normalize_uniform_sixteen_cells():
    d = normalize(Grid2D(np.full((4, 4), 2.5)))
    np.testing.assert_allclose(d.grid.values, np.full((4, 4), 1.0 / 16.0), atol=1e-15)


def test_normalize_matches_exp_sum_oracle():
    rng = np.random.Generator(np.random.PCG64(21))
    s = rng.standard_normal((6, 5)) * 3.0
    d = normalize(Grid2D(s))
    # Extended-precision reference via longdouble exp/sum.
    e = np.exp(s.astype(np.longdouble))
    want = (e / e.sum()).astype(np.float64)
    np.testing.assert_allclose(d.grid.values, want, atol=1e-12)


def test_normalize_shift_invariant():
    rng = np.random.Generator(np.random.PCG64(23))
    s = rng.standard_normal((4, 4))
    base = normalize(Grid2D(s)).grid.values
    shifted = normalize(Grid2D(s + 57.0)).grid.values
    np.testing.assert_allclose(base, shifted, atol=1e-12)


def test_density_mass_gate():
    with pytest.raises(DomainError):
        GridDensity(Grid2D(np.full((2, 2), 0.3)))


def test_density_rejects_negative_values():
    vals = np.array([[1.2, -0.2], [0.0, 0.0]])
    with pytest.raises(DomainError):
        GridDensity(Grid2D(vals))


def test_argmax_single_peak():
    s = np.zeros((4, 5))
    s[2, 3] = 5.0
    assert read_peak(normalize(Grid2D(s)))[0] == (2, 3)


def test_argmax_uniform_tie_break():
    assert read_peak(normalize(Grid2D(np.zeros((3, 3)))))[0] == (0, 0)


def test_argmax_row_major_tie_break():
    s = np.zeros((6, 6))
    s[2, 3] = 4.0
    s[5, 1] = 4.0
    assert read_peak(normalize(Grid2D(s)))[0] == (2, 3)


def test_argmax_invariant_under_normalization():
    rng = np.random.Generator(np.random.PCG64(24))
    for _ in range(20):
        s = rng.standard_normal((5, 8))
        d = normalize(Grid2D(s))
        want = np.unravel_index(int(np.argmax(s)), s.shape)
        assert read_peak(d)[0] == tuple(want)


def test_expected_state_symmetric_peak():
    s = np.zeros((5, 5))
    s[2, 2] = 3.0
    r, c = read_peak(normalize(Grid2D(s)))[2]
    assert (r, c) == pytest.approx((2.0, 2.0), abs=1e-12)


def test_expected_state_point_mass():
    vals = np.zeros((3, 3))
    vals[1, 2] = 1.0
    d = GridDensity(Grid2D(vals))
    assert read_peak(d)[2] == pytest.approx((1.0, 2.0), abs=1e-15)


def test_expected_state_matches_weighted_mean_oracle():
    rng = np.random.Generator(np.random.PCG64(25))
    s = rng.standard_normal((6, 6))
    s[3, 2] += 4.0  # force an interior peak
    d = normalize(Grid2D(s))
    patch = d.grid.values[2:5, 1:4]
    rows = np.array([2.0, 3.0, 4.0])
    cols = np.array([1.0, 2.0, 3.0])
    want_r = float((patch.sum(axis=1) * rows).sum() / patch.sum())
    want_c = float((patch.sum(axis=0) * cols).sum() / patch.sum())
    got = read_peak(d)[2]
    assert got == pytest.approx((want_r, want_c), abs=1e-12)


def test_expected_state_clips_at_border():
    s = np.zeros((4, 4))
    s[0, 0] = 6.0
    r, c = read_peak(normalize(Grid2D(s)))[2]
    assert 0.0 <= r <= 1.0 and 0.0 <= c <= 1.0


def test_expected_state_stays_in_neighborhood():
    rng = np.random.Generator(np.random.PCG64(26))
    for _ in range(30):
        d = normalize(Grid2D(rng.standard_normal((7, 7))))
        (r0, c0), _, (r, c) = read_peak(d)
        assert abs(r - r0) <= 1.0 + 1e-12
        assert abs(c - c0) <= 1.0 + 1e-12


def _patch_oracle(vals, r0, c0):
    """(mass, (mean_row, mean_col)) of the clipped 3x3 patch at (r0, c0), by loops.

    The mass adds the cells, taken row-major, in NumPy's order for a sum:
    one running sum below eight cells, and for nine the eight-lane pairwise
    tree plus the ninth.  Row and column sums are running sums.
    """
    h, w = vals.shape
    rows = range(max(r0 - 1, 0), min(r0 + 2, h))
    cols = range(max(c0 - 1, 0), min(c0 + 2, w))
    a = [vals[i, j] for i in rows for j in cols]
    if len(a) == 9:
        mass = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])) + a[8]
    else:
        mass = 0.0
        for v in a:
            mass += v
    mean_r = 0.0
    for i in rows:
        row = 0.0
        for j in cols:
            row += vals[i, j]
        mean_r += row * i
    mean_c = 0.0
    for j in cols:
        col = 0.0
        for i in rows:
            col += vals[i, j]
        mean_c += col * j
    return mass, (mean_r / mass, mean_c / mass)


def test_read_peak_matches_a_loop_oracle_on_borders_corners_and_ties():
    rng = np.random.Generator(np.random.PCG64(27))
    for _ in range(40):
        h, w = (int(n) for n in rng.integers(2, 10, size=2))
        corners = [(0, 0), (0, w - 1), (h - 1, 0), (h - 1, w - 1)]
        borders = [(0, w // 2), (h - 1, w // 2), (h // 2, 0), (h // 2, w - 1)]
        for peak in [*corners, *borders, (h // 2, w // 2), "tie"]:
            s = rng.standard_normal((h, w))
            if peak == "tie":
                tied = rng.choice(h * w, size=2, replace=False)
                s.flat[tied] = s.max() + 2.0
                peak = divmod(int(tied.min()), w)  # the row-major first
            else:
                s[peak] = s.max() + 2.0
            d = normalize(Grid2D(s))
            got, mass, mean = read_peak(d)
            assert got == peak
            assert (mass, mean) == _patch_oracle(d.grid.values, *peak)
