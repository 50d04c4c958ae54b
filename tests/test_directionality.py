"""Tests for the shift-difference orientation estimate."""

from __future__ import annotations

import numpy as np
import pytest

from inpaintkit.directionality import D_THRESHOLD, patch_metrics, shift_diff


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
    assert shift_diff(board, 1, 0) == 4.0
    assert shift_diff(board, 0, 1) == 4.0
    # shifting both wraps back onto itself
    assert shift_diff(board, 1, 1) == 0.0


def test_shift_diff_is_zero_on_constant_patches():
    p = np.full((5, 5), 0.3)
    assert shift_diff(p, 1, 0) == 0.0
    assert shift_diff(p, 0, 1) == 0.0
    assert shift_diff(p, 1, 1) == 0.0


def test_shift_diff_direction_conventions():
    # horizontal stripes have no column-shift response and a full
    # row-shift response; vertical stripes are the transpose
    stripes = _hstripes(8)
    assert shift_diff(stripes, 1, 0) == 0.0
    assert shift_diff(stripes, 0, 1) == 64.0
    assert shift_diff(stripes.T, 1, 0) == 64.0
    assert shift_diff(stripes.T, 0, 1) == 0.0


def test_constant_patch_points_at_90():
    m = patch_metrics(np.full((16, 16), 0.37))
    assert m.v == 0.0 and m.h == 0.0
    assert m.d == 1.0
    assert m.theta1 == 90.0
    assert m.theta == 90.0


def test_horizontal_stripes_point_at_90_exactly():
    m = patch_metrics(_hstripes(16))
    assert m.v == 0.0
    assert m.h == 256.0
    assert m.theta1 == 90.0
    assert m.d == 1.0
    assert m.theta == 90.0


def test_vertical_stripes_point_near_0():
    m = patch_metrics(_hstripes(16).T)
    assert m.h == 0.0
    assert m.v == 256.0
    assert m.theta1 == pytest.approx(90.0 / 257.0, abs=1e-12)
    assert m.theta == pytest.approx(90.0 / 257.0, abs=1e-12)


def test_equal_structure_patch_hits_theta1_branch_exactly():
    # bands of width 2 across the anti-diagonal: v = h = 128, diag = 256,
    # so d = 1 exactly and theta = theta1 = 90 * 129 / 257
    i, j = np.indices((16, 16))
    p = (((i + j) % 4) < 2).astype(np.float64)
    m = patch_metrics(p)
    assert m.v == 128.0 and m.h == 128.0
    assert m.d == 1.0
    assert m.theta == pytest.approx(90.0 * 129.0 / 257.0, abs=1e-12)
    assert m.theta == pytest.approx(m.theta1, abs=1e-12)


def test_checkerboard_takes_the_low_d_branch():
    m = patch_metrics(_checkerboard(16))
    assert m.v == 256.0 and m.h == 256.0
    assert m.d == pytest.approx(1.0 / 513.0, abs=1e-15)
    assert m.d < D_THRESHOLD
    assert m.theta == pytest.approx(-m.theta1, abs=1e-12)


def test_transpose_swaps_v_and_h():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(3, 17))
        p = rng.uniform(size=(n, n))
        a = patch_metrics(p)
        b = patch_metrics(p.T)
        assert a.v == pytest.approx(b.h, abs=1e-9)
        assert a.h == pytest.approx(b.v, abs=1e-9)
        # theta1 pair sums to a symmetric function of v + h
        total = 90.0 * (a.v + a.h + 2.0) / (a.v + a.h + 1.0)
        assert a.theta1 + b.theta1 == pytest.approx(total, abs=1e-12)


def test_d_never_exceeds_one_and_theta_stays_in_range():
    # |P(r, c) - P(r+1, c+1)| <= |P(r, c) - P(r, c+1)| + |P(r, c+1) - P(r+1, c+1)|,
    # so diag <= v + h and d <= 1 always
    rng = np.random.default_rng(22)
    for _ in range(200):
        p = rng.uniform(size=(8, 8))
        m = patch_metrics(p)
        assert m.d <= 1.0 + 1e-12
        assert -90.0 < m.theta <= 90.0

