"""Tests for the shift-difference orientation estimate.

Hand values of v, h, d and theta1 check `oracles.orientation_direct`;
every theta is also checked on `patch_angles`, which must agree with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from inpaintkit.directionality import D_THRESHOLD, patch_angles

from oracles import orientation_direct, shift_diff_direct


def _checkerboard(n: int) -> np.ndarray:
    i, j = np.indices((n, n))
    return ((i + j) % 2).astype(np.float64)


def _hstripes(n: int, period: int = 2) -> np.ndarray:
    i = np.arange(n)
    row = (i % period < period // 2).astype(np.float64)
    return np.repeat(row[:, None], n, axis=1)


def test_shift_diff_hand_values():
    board = _checkerboard(2)
    # shifting columns by one flips every cell of a checkerboard
    assert shift_diff_direct(board, 1, 0) == 4.0
    assert shift_diff_direct(board, 0, 1) == 4.0
    # shifting both wraps back onto itself
    assert shift_diff_direct(board, 1, 1) == 0.0


def test_shift_diff_is_zero_on_constant_patches():
    p = np.full((5, 5), 0.3)
    assert shift_diff_direct(p, 1, 0) == 0.0
    assert shift_diff_direct(p, 0, 1) == 0.0
    assert shift_diff_direct(p, 1, 1) == 0.0


def test_shift_diff_direction_conventions():
    # horizontal stripes have no column-shift response and a full
    # row-shift response; vertical stripes are the transpose
    stripes = _hstripes(8)
    assert shift_diff_direct(stripes, 1, 0) == 0.0
    assert shift_diff_direct(stripes, 0, 1) == 64.0
    assert shift_diff_direct(stripes.T, 1, 0) == 64.0
    assert shift_diff_direct(stripes.T, 0, 1) == 0.0


def test_constant_patch_points_at_90():
    p = np.full((16, 16), 0.37)
    v, h, d, theta1, theta = orientation_direct(p)
    assert v == 0.0 and h == 0.0
    assert d == 1.0
    assert theta1 == 90.0
    assert theta == 90.0
    assert patch_angles(p[None])[0] == 90.0


def test_horizontal_stripes_point_at_90_exactly():
    p = _hstripes(16)
    v, h, d, theta1, theta = orientation_direct(p)
    assert v == 0.0
    assert h == 256.0
    assert theta1 == 90.0
    assert d == 1.0
    assert theta == 90.0
    assert patch_angles(p[None])[0] == 90.0


def test_vertical_stripes_point_near_0():
    p = _hstripes(16).T
    v, h, d, theta1, theta = orientation_direct(p)
    assert h == 0.0
    assert v == 256.0
    assert theta1 == pytest.approx(90.0 / 257.0, abs=1e-12)
    assert theta == pytest.approx(90.0 / 257.0, abs=1e-12)
    assert patch_angles(p[None])[0] == pytest.approx(90.0 / 257.0, abs=1e-12)


def test_equal_structure_patch_hits_theta1_branch_exactly():
    # bands of width 2 across the anti-diagonal: v = h = 128, diag = 256,
    # so d = 1 exactly and theta = theta1 = 90 * 129 / 257
    i, j = np.indices((16, 16))
    p = (((i + j) % 4) < 2).astype(np.float64)
    v, h, d, theta1, theta = orientation_direct(p)
    assert v == 128.0 and h == 128.0
    assert d == 1.0
    assert theta == pytest.approx(90.0 * 129.0 / 257.0, abs=1e-12)
    assert theta == pytest.approx(theta1, abs=1e-12)
    assert patch_angles(p[None])[0] == pytest.approx(theta1, abs=1e-12)


def test_checkerboard_takes_the_low_d_branch():
    p = _checkerboard(16)
    v, h, d, theta1, theta = orientation_direct(p)
    assert v == 256.0 and h == 256.0
    assert d == pytest.approx(1.0 / 513.0, abs=1e-15)
    assert d < D_THRESHOLD
    assert theta == pytest.approx(-theta1, abs=1e-12)
    assert patch_angles(p[None])[0] == pytest.approx(-theta1, abs=1e-12)


def test_transpose_swaps_v_and_h():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 17))
        p = rng.uniform(size=(n, n))
        av, ah, _, a_theta1, _ = orientation_direct(p)
        bv, bh, _, b_theta1, _ = orientation_direct(p.T)
        assert av == pytest.approx(bh, abs=1e-9)
        assert ah == pytest.approx(bv, abs=1e-9)
        # theta1 pair sums to a symmetric function of v + h
        total = 90.0 * (av + ah + 2.0) / (av + ah + 1.0)
        assert a_theta1 + b_theta1 == pytest.approx(total, abs=1e-12)


def test_d_never_exceeds_one_and_theta_stays_in_range():
    # |P(r, c) - P(r+1, c+1)| <= |P(r, c) - P(r, c+1)| + |P(r, c+1) - P(r+1, c+1)|,
    # so diag <= v + h and d <= 1 always
    rng = np.random.default_rng(22)
    stack = rng.uniform(size=(200, 8, 8))
    for p in stack:
        _, _, d, _, theta = orientation_direct(p)
        assert d <= 1.0 + 1e-12
        assert -90.0 < theta <= 90.0
    angles = patch_angles(stack)
    assert np.all((-90.0 < angles) & (angles <= 90.0))


@pytest.mark.parametrize(
    ("patch", "d_exact", "theta"),
    [
        # one 0 among 1s: v = h = diag = 2, so d = 3/5 sits on the threshold itself
        ([[0.0, 1.0], [1.0, 1.0]], 0.6, -54.0),
        # two 1s on an anti-diagonal: v = h = diag = 4, d = 5/9 and theta1 = 50
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]], 5.0 / 9.0, -50.0),
    ],
)
def test_d_between_one_half_and_the_threshold_takes_the_low_d_branch(patch, d_exact, theta):
    # the branch test is d > 0.6, strictly; with a threshold of 0.5 these would
    # take the other branch and point at -90 + 90 d + theta1 instead
    p = np.array(patch)
    _, _, d, theta1, expected = orientation_direct(p)
    assert d == d_exact and 0.5 < d <= D_THRESHOLD
    assert expected == theta == -theta1
    assert patch_angles(p[None])[0] == theta


def test_theta_rounded_past_90_wraps_to_just_above_minus_90():
    # rows constant but for one ulp: v = 2 ulp(0.02) is lost against h + 1, so
    # theta1 and d round one step past 90 and 1, and the unreduced theta past 90
    p = np.array([[0.02, np.nextafter(0.02, 1.0)], [0.2, 0.2]])
    _, _, d, theta1, theta = orientation_direct(p)
    assert d > 1.0 and theta1 > 90.0
    unreduced = -90.0 + (90.0 * d + theta1)
    assert unreduced > 90.0
    assert theta == unreduced - 180.0
    assert patch_angles(p[None])[0] == theta
    assert -90.0 < theta < -89.9


def test_a_stack_that_is_not_three_dimensional_is_refused():
    with pytest.raises(ValueError, match=r"expected a \(P, H, W\) stack of patches, got shape \(4, 4\)"):
        patch_angles(_checkerboard(4))


def test_a_complex_stack_is_refused():
    with pytest.raises(ValueError, match="^expected a real patch stack, got complex"):
        patch_angles(_checkerboard(4)[None] + 0j)


@pytest.mark.parametrize(("value", "count"), [(np.nan, 1), (np.inf, 1), (-np.inf, 2)], ids=["nan", "inf", "two-inf"])
def test_a_non_finite_stack_is_refused_with_its_count(value, count):
    # a NaN would give a NaN angle in silence, and an inf one an invalid subtraction
    stack = np.stack([_checkerboard(4), np.zeros((4, 4))])
    stack[1, 2, 3] = value
    if count == 2:
        stack[0, 0, 0] = value
    with pytest.raises(ValueError, match=f"^image has {count} non-finite pixel"):
        patch_angles(stack)


def test_an_empty_stack_has_no_angles():
    angles = patch_angles(np.zeros((0, 4, 5)))
    assert angles.shape == (0,) and angles.dtype == np.float64
