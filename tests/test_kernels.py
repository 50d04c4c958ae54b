"""Tests for the kernel constants, the array bicubic sampler and kernel rotation.

The sampler is private: rotate_kernel calls it once for a whole array of
angles. It is pinned here on its own against frozen values and the
independent oracles.bicubic_direct, and rotate_kernel is pinned against
oracles.rotate_kernel_direct for scalar and array input.
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from inpaintkit.kernels import _bicubic, diag_kernel, diamond_kernel, normalize, rotate_kernel

from oracles import bicubic_direct, quarter_turn, rotate_kernel_direct

# frozen from oracles.bicubic_direct before the sampler was tested;
# vertical ramp grid with rows 0, 0.5, 1
_RAMP = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, 1.0, 1.0]])
_RAMP_CASES = [
    ((1.0, 1.0), 0.5),
    ((1.0, 0.5), 0.21875),
    ((0.5, 0.5), 0.21875),
    ((1.5, 1.0), 0.5),
    ((1.25, 1.75), 0.91015625),
    ((0.0, 2.0), 1.0),
]
_RAND45_CASES = [
    ((2.3, 1.7), 0.8368971213782909),
    ((0.4, 0.2), 0.6350984287622041),
    ((3.6, 2.9), 0.6152405777516953),
]


def test_kernel_constants():
    kd = diamond_kernel()
    assert kd.shape == (3, 3)
    assert kd[0, 1] == kd[1, 0] == kd[1, 2] == kd[2, 1] == 0.25
    assert kd[1, 1] == 0.0 and kd[0, 0] == 0.0
    assert kd.sum() == 1.0

    kg = diag_kernel()
    assert kg[0, 0] == kg[2, 2] == 0.38
    assert kg[1, 1] == 0.0
    assert np.isclose(kg.sum(), 1.0)
    # fresh arrays every call: mutating one must not leak into the next
    kd[0, 1] = 99.0
    assert diamond_kernel()[0, 1] == 0.25


def test_normalize_scales_to_unit_sum():
    k = normalize(np.full((3, 3), 2.0))
    assert np.allclose(k, 1.0 / 9.0)
    assert np.isclose(k.sum(), 1.0)


def test_normalize_scales_each_kernel_of_a_stack():
    stack = np.stack([np.full((3, 3), 2.0), diag_kernel() * 3.0])
    out = normalize(stack)
    assert out.shape == (2, 3, 3)
    assert np.array_equal(out[0], normalize(stack[0]))
    assert np.array_equal(out[1], normalize(stack[1]))


def test_normalize_rejects_degenerate_kernels():
    with pytest.raises(ValueError, match="degenerate kernel"):
        normalize(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="9 negative or non-finite weight"):
        normalize(np.full((3, 3), -1.0))
    # a NaN or infinite weight is refused, with the count of them, before the sum
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="9 negative or non-finite weight"):
            normalize(np.full((3, 3), bad))
        with pytest.raises(ValueError, match="2 negative or non-finite weight"):
            normalize(np.stack([diag_kernel(), np.where(diag_kernel() > 0.1, bad, diag_kernel())]))


def test_bicubic_reproduces_grid_nodes():
    rng = np.random.default_rng(3)
    g = rng.uniform(size=(4, 6))
    for r in range(4):
        for c in range(6):
            assert _bicubic(g, float(c), float(r)) == pytest.approx(g[r, c], abs=1e-12)


def test_bicubic_constant_grid_is_constant_everywhere():
    g = np.full((3, 3), 0.37)
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = float(rng.uniform(-1.0, 3.0))
        y = float(rng.uniform(-1.0, 3.0))
        assert _bicubic(g, x, y) == pytest.approx(0.37, abs=1e-12)


def test_bicubic_center_of_ramp_is_the_mean():
    # at the grid centre all taps are interior, so the vertical ramp
    # interpolates exactly to the arithmetic mean of its endpoints
    assert _bicubic(_RAMP, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize(("point", "expected"), _RAMP_CASES)
def test_bicubic_frozen_ramp_values(point, expected):
    x, y = point
    assert _bicubic(_RAMP, x, y) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(("point", "expected"), _RAND45_CASES)
def test_bicubic_frozen_random_grid_values(point, expected):
    rng = np.random.default_rng(1234)
    g = rng.uniform(size=(4, 5))
    x, y = point
    assert _bicubic(g, x, y) == pytest.approx(expected, abs=1e-12)


def test_bicubic_matches_direct_evaluator_on_random_cases():
    rng = np.random.default_rng(99)
    for _ in range(200):
        g = rng.uniform(size=(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        x = float(rng.uniform(-1.5, g.shape[1] + 0.5))
        y = float(rng.uniform(-1.5, g.shape[0] + 0.5))
        assert _bicubic(g, x, y) == pytest.approx(bicubic_direct(g, x, y), abs=1e-12)


def test_rotate_minus_45_is_the_diagonal_kernel():
    # theta = -45 makes the rotation angle exactly zero
    assert np.allclose(rotate_kernel(-45.0), diag_kernel(), atol=1e-15)


@pytest.mark.parametrize(
    ("theta", "turns"),
    [(-45.0, 0), (45.0, 1), (135.0, 2), (225.0, 3), (-135.0, -1)],
)
def test_rotate_right_angles_match_quarter_turns(theta, turns):
    assert np.allclose(rotate_kernel(theta), quarter_turn(diag_kernel(), turns), atol=1e-12)


def test_rotate_45_puts_mass_on_the_anti_diagonal():
    k = rotate_kernel(45.0)
    assert k[0, 2] == pytest.approx(0.38, abs=1e-12)
    assert k[2, 0] == pytest.approx(0.38, abs=1e-12)
    assert k[0, 0] == pytest.approx(0.04, abs=1e-12)


def test_rotated_kernels_are_valid_averaging_kernels():
    for i in range(240):
        theta = -180.0 + i * 1.5
        k = rotate_kernel(theta)
        assert k.shape == (3, 3)
        assert np.all(k >= 0.0)
        assert abs(k.sum() - 1.0) <= 1e-9


def test_rotation_is_180_degree_periodic():
    rng = np.random.default_rng(11)
    for theta in rng.uniform(-90.0, 90.0, size=25):
        assert np.allclose(rotate_kernel(float(theta)), rotate_kernel(float(theta) + 180.0), atol=1e-12)


def test_rotated_center_weight_stays_small():
    # the source kernel has a zero centre; rotation never makes the
    # centre cell the dominant weight
    for i in range(72):
        k = rotate_kernel(-180.0 + i * 5.0)
        assert k[1, 1] < k.max()


def test_rotate_kernel_matches_direct_bicubic_for_array_and_scalar_input():
    thetas = np.linspace(-180.0, 180.0, 721)
    stack = rotate_kernel(thetas)
    assert stack.shape == (721, 3, 3)
    for theta, k in zip(thetas, stack):
        expected = rotate_kernel_direct(float(theta))
        assert np.max(np.abs(k - expected)) <= 1e-12
        assert np.array_equal(rotate_kernel(float(theta)), k)
    assert rotate_kernel(np.array([[10.0, 20.0], [30.0, 40.0]])).shape == (2, 2, 3, 3)


@pytest.mark.parametrize(
    ("theta", "count"),
    [(np.nan, 1), (np.inf, 1), (-np.inf, 1), (np.array([[0.0, np.nan], [30.0, np.inf]]), 2)],
    ids=["nan", "inf", "-inf", "array"],
)
def test_rotate_kernel_refuses_non_finite_angles(theta, count):
    # refused before any work: rotating a NaN angle would warn and then index with -2**63
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{count} NaN or infinite angle"):
            rotate_kernel(theta)


@pytest.mark.parametrize("theta", [30.0 + 0j, np.zeros(3, dtype=np.complex64), [0.0, 45j]], ids=["scalar", "array", "list"])
def test_rotate_kernel_refuses_complex_angles(theta):
    # a cast to float64 would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match="^expected a real angle, got complex"):
        rotate_kernel(theta)


@pytest.mark.parametrize("kernel", [diamond_kernel() + 0j, diamond_kernel() + 0.1j, diamond_kernel()[None].astype(np.complex64)])
def test_normalize_refuses_complex_weights(kernel):
    # refused before any weight is checked, even with a zero imaginary part
    with pytest.raises(ValueError, match="^expected a real kernel, got complex"):
        normalize(kernel)


def test_rotate_kernel_chunks_match_a_call_on_each_slice():
    # 8,200 angles cross the chunk boundaries at 4,096 and 8,192; a slice
    # across a boundary, called alone, is rotated in one chunk
    angles = np.random.default_rng(61).uniform(-90.0, 90.0, size=(2, 4100))
    kernels = rotate_kernel(angles)
    assert kernels.shape == (2, 4100, 3, 3)
    flat, flat_kernels = angles.reshape(-1), kernels.reshape(-1, 3, 3)
    for lo, hi in ((4000, 4200), (8100, 8200)):
        assert np.array_equal(flat_kernels[lo:hi], rotate_kernel(flat[lo:hi]))


def test_rotate_kernel_traced_peak_is_bounded_by_its_chunks():
    # 65,536 angles (patch 2 on a 512x512 image): the output is 4.5 MiB, and
    # the bicubic temporaries of one 4,096-angle chunk about 5.5 MiB more
    angles = np.linspace(-90.0, 90.0, 65536)
    tracemalloc.start()
    try:
        rotate_kernel(angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
