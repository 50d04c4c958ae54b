"""Tests for masked iterative diffusion."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from inpaintkit.diffusion import DiffusionConfig, DiffusionResult, _solve_windows, diffuse
from inpaintkit.directional import build_patch_grid, diffuse_patches, inpaint_directional
from inpaintkit.kernels import diag_kernel, diamond_kernel, normalize, rotate_kernel
from inpaintkit.masks import apply_damage, random_mask, text_mask

from oracles import harmonic_fill


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(epsilon=-1.0)
    with pytest.raises(ValueError):
        DiffusionConfig(max_iters=0)
    # an infinite threshold would stop every run after exactly one step
    for eps in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            DiffusionConfig(epsilon=eps)
    cfg = DiffusionConfig()
    assert cfg.epsilon == 1e-3 and cfg.max_iters == 10_000


def test_non_integer_max_iters_fails_at_entry():
    calls = []
    with pytest.raises(TypeError, match="max_iters must be an integer, got 2.5"):
        diffuse(np.zeros((4, 4)), np.zeros((4, 4)), diamond_kernel(), DiffusionConfig(max_iters=2.5), lambda i, cur: calls.append(i))
    assert calls == []
    assert DiffusionConfig(max_iters=np.int64(3)).max_iters == 3


def _one_step(img, kernel):
    """One diffusion step with every pixel missing: a plain 3x3 convolution."""
    missing = np.zeros(np.shape(img), dtype=np.uint8)
    return diffuse(img, missing, kernel, DiffusionConfig(max_iters=1)).image


def test_one_step_hand_values_with_replicate_border():
    img = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = _one_step(img, diamond_kernel())
    # each output pixel averages up/down/left/right with edge replication
    expected = np.array(
        [
            [0.25 * (1 + 3 + 1 + 2), 0.25 * (2 + 4 + 1 + 2)],
            [0.25 * (1 + 3 + 3 + 4), 0.25 * (2 + 4 + 3 + 4)],
        ]
    )
    assert np.allclose(out, expected, atol=1e-15)


def test_one_step_with_identity_kernel_keeps_the_image():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(5, 7))
    k = np.zeros((3, 3))
    k[1, 1] = 1.0
    assert np.array_equal(_one_step(img, k), img)


def test_one_step_rejects_wrong_kernel_shape():
    # a stack of kernels is refused too, before any step or callback
    calls = []
    for shape in ((5, 5), (3,), (1, 3, 3), (2, 3, 3)):
        with pytest.raises(ValueError, match="3x3"):
            diffuse(np.ones((4, 4)), np.zeros((4, 4)), np.ones(shape), DiffusionConfig(max_iters=1), lambda i, cur: calls.append(i))
    assert calls == []


def test_diffuse_normalizes_its_kernel_once():
    # scaling by a power of two is exact, so the normalized kernels are equal bit for bit
    rng = np.random.default_rng(8)
    mask = random_mask(24, 20, 0.5, seed=9)
    damaged = apply_damage(rng.uniform(size=(24, 20)), mask)
    k, cfg = rotate_kernel(17.0), DiffusionConfig(max_iters=200)
    want = diffuse(damaged, mask, k, cfg)
    for scale in (2.0, 0.5):
        got = diffuse(damaged, mask, scale * k, cfg)
        assert np.array_equal(got.image, want.image) and got.iterations == want.iterations


@pytest.mark.filterwarnings("error")
def test_an_overflowing_kernel_sum_is_degenerate():
    # every weight is finite, but their sum overflows: a ValueError, not an overflow warning
    kernel = np.full((3, 3), 1e308)
    with pytest.raises(ValueError, match="degenerate kernel"):
        normalize(kernel)
    with pytest.raises(ValueError, match="degenerate kernel"):
        diffuse(np.zeros((4, 4)), np.zeros((4, 4)), kernel)


def test_all_known_mask_takes_no_step():
    # nothing is missing, so the run is converged before its first step
    rng = np.random.default_rng(1)
    img = rng.uniform(0.1, 1.0, size=(8, 8))
    mask = np.ones((8, 8), dtype=np.uint8)
    calls = []
    res = diffuse(img, mask, diamond_kernel(), callback=lambda i, cur: calls.append(i))
    assert res.iterations == 0 and calls == []
    assert res.final_delta == 0.0
    assert res.converged
    assert np.array_equal(res.image, img)


def test_all_zero_image_converges_on_its_first_step():
    # a run with a missing pixel takes a step before it can measure a
    # change; from the zero image that step moves nothing, so it stops
    img = np.zeros((6, 6))
    mask = np.ones((6, 6), dtype=np.uint8)
    mask[3, 3] = 0
    calls = []
    res = diffuse(img, mask, diamond_kernel(), callback=lambda i, cur: calls.append(i))
    assert res.iterations == 1 and calls == [1]
    assert res.final_delta == 0.0
    assert res.converged
    assert np.array_equal(res.image, img)


def test_endpoint_row_fills_to_linear_interpolation():
    damaged = np.array([[0.0, 0.0, 0.0, 0.0, 1.0]])
    mask = np.array([[1, 0, 0, 0, 1]], dtype=np.uint8)
    res = diffuse(damaged, mask, diamond_kernel(), DiffusionConfig(epsilon=1e-12, max_iters=100_000))
    assert res.converged
    assert np.allclose(res.image, [[0.0, 0.25, 0.5, 0.75, 1.0]], atol=1e-9)
    oracle = harmonic_fill(damaged, mask, diamond_kernel())
    assert np.allclose(res.image, oracle, atol=1e-9)


def test_matches_harmonic_oracle_on_random_cases():
    rng = np.random.default_rng(42)
    cfg = DiffusionConfig(epsilon=1e-10, max_iters=100_000)
    for i in range(25):
        rows = int(rng.integers(4, 13))
        cols = int(rng.integers(4, 13))
        img = rng.uniform(size=(rows, cols))
        mask = random_mask(rows, cols, float(rng.uniform(0.2, 0.8)), seed=i)
        if not mask.any():
            mask[0, 0] = 1
        damaged = apply_damage(img, mask)
        res = diffuse(damaged, mask, diamond_kernel(), cfg)
        assert res.converged
        oracle = harmonic_fill(damaged, mask, diamond_kernel())
        assert np.max(np.abs(res.image - oracle)) <= 1e-6


def test_known_pixels_survive_bit_for_bit():
    rng = np.random.default_rng(5)
    img = rng.uniform(size=(16, 16))
    mask = random_mask(16, 16, 0.6, seed=9)
    damaged = apply_damage(img, mask)
    res = diffuse(damaged, mask, diag_kernel())
    known = mask == 1
    assert np.array_equal(res.image[known], damaged[known])


def test_iterates_stay_inside_the_input_hull():
    # averaging never extrapolates: every iterate is a convex combination
    # of current values and restored originals
    rng = np.random.default_rng(6)
    img = rng.uniform(0.2, 0.9, size=(20, 20))
    mask = random_mask(20, 20, 0.5, seed=3)
    damaged = apply_damage(img, mask)
    lo, hi = damaged.min(), damaged.max()

    seen = []
    diffuse(damaged, mask, diamond_kernel(), callback=lambda i, cur: seen.append((cur.min(), cur.max())))
    assert seen
    for cmin, cmax in seen:
        assert cmin >= lo - 1e-12
        assert cmax <= hi + 1e-12


def test_one_extra_step_moves_at_most_epsilon():
    rng = np.random.default_rng(8)
    img = rng.uniform(size=(24, 24))
    mask = random_mask(24, 24, 0.4, seed=2)
    damaged = apply_damage(img, mask)
    cfg = DiffusionConfig(epsilon=1e-4)
    res = diffuse(damaged, mask, diamond_kernel(), cfg)
    assert res.converged
    extra = diffuse(res.image, mask, diamond_kernel(), DiffusionConfig(max_iters=1)).image
    assert np.linalg.norm(extra - res.image) <= cfg.epsilon


def test_iteration_cap_reported_as_not_converged():
    damaged = np.array([[0.0, 0.0, 0.0, 0.0, 1.0]])
    mask = np.array([[1, 0, 0, 0, 1]], dtype=np.uint8)
    res = diffuse(damaged, mask, diamond_kernel(), DiffusionConfig(epsilon=1e-12, max_iters=3))
    assert res.iterations == 3
    assert not res.converged
    assert res.final_delta > 1e-12


def test_callback_sees_every_iteration():
    damaged = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
    mask = np.array([[1, 1, 1], [1, 0, 1], [1, 1, 1]], dtype=np.uint8)
    calls = []
    res = diffuse(damaged, mask, diamond_kernel(), callback=lambda i, cur: calls.append(i))
    assert calls == list(range(1, res.iterations + 1))
    # each iterate handed out is a read-only view of the live iterate; a caller keeps it by copying it
    row = np.array([[0.0, 0.0, 0.0, 0.0, 1.0]])
    seen = []

    def keep(i, cur):
        with pytest.raises(ValueError, match="read-only"):
            cur[0, 0] = 1.0
        seen.append(cur.copy())

    res = diffuse(row, np.array([[1, 0, 0, 0, 1]]), diamond_kernel(), callback=keep)
    assert len(seen) == res.iterations > 2
    assert seen[0][0, 3] == 0.25 and seen[1][0, 3] == 0.375
    assert np.array_equal(seen[-1], res.image)


def test_shape_mismatch_and_bad_mask_raise():
    with pytest.raises(ValueError):
        diffuse(np.zeros((4, 4)), np.ones((4, 5), dtype=np.uint8), diamond_kernel())
    with pytest.raises(ValueError):
        diffuse(np.zeros((4, 4)), np.full((4, 4), 2, dtype=np.uint8), diamond_kernel())


@pytest.mark.parametrize(
    "run",
    [lambda d, m: diffuse(d, m, diamond_kernel()), lambda d, m: inpaint_directional(d, m, patch_size=8)],
    ids=["diffuse", "inpaint_directional"],
)
@pytest.mark.parametrize("known", [True, False], ids=["known", "missing"])
@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_pixel_raises(value, known, run):
    rng = np.random.default_rng(9)
    mask = random_mask(32, 32, 0.3, seed=4)
    damaged = apply_damage(rng.uniform(size=(32, 32)), mask)
    r, c = np.argwhere(mask == (1 if known else 0))[0]
    damaged[r, c] = value
    with pytest.raises(ValueError, match="1 non-finite pixel"):
        run(damaged, mask)


def test_result_is_a_frozen_record():
    res = DiffusionResult(np.zeros((2, 2)), 1, 0.0, True)
    with pytest.raises(AttributeError):
        res.iterations = 5


@pytest.mark.parametrize("weight", [np.nan, np.inf, -0.5], ids=["nan", "inf", "negative"])
def test_bad_kernel_weight_raises(weight):
    rng = np.random.default_rng(10)
    mask = random_mask(20, 20, 0.5, seed=12)
    damaged = apply_damage(rng.uniform(size=(20, 20)), mask)
    bad = diamond_kernel()
    bad[0, 1] = weight
    with pytest.raises(ValueError, match="1 negative or non-finite weight"):
        diffuse(damaged, mask, bad, DiffusionConfig(max_iters=50))


@pytest.mark.parametrize(
    "run",
    [lambda d, m: diffuse(d, m, diamond_kernel()), lambda d, m: diffuse_patches(d, m, build_patch_grid(d, 16))],
    ids=["diffuse", "diffuse_patches"],
)
def test_traced_peak_stays_within_eight_images(run):
    # the engine's per-cell state (indices, values, two sums) is a few
    # words per missing pixel; a per-tap index or weight table is not
    rng = np.random.default_rng(11)
    mask = random_mask(256, 256, 0.5, seed=13)
    damaged = apply_damage(rng.uniform(size=(256, 256)), mask)
    run(damaged, mask)  # warm-up, so one-off allocations are not counted
    tracemalloc.start()
    try:
        run(damaged, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * damaged.nbytes


@pytest.mark.parametrize(
    "run, images, shape",
    [
        (lambda d, m, grid: diffuse(d, m, diamond_kernel()), 2.25, (256, 256)),
        (lambda d, m, grid: diffuse_patches(d, m, grid), 2.6, (256, 256)),
        (lambda d, m, grid: diffuse_patches(d, m, grid), 2.4, (250, 243)),
        (lambda d, m, grid: _solve_windows(d, m, grid.coords[::-1], grid.kernels[::-1]), 2.4, (250, 243)),
    ],
    ids=["diffuse", "diffuse_patches", "diffuse_patches-250x243", "regions-reversed-250x243"],
)
def test_traced_peak_under_a_text_mask(run, images, shape):
    # the per-cell state is freed before the output image is allocated; at
    # 250x243 four patch shapes step, the largest first and the smaller three
    # beside the output image, each freed before the next, in any region order
    mask = text_mask(*shape, "Lorem ipsum dolor sit amet", scale=3)
    damaged = apply_damage(np.random.default_rng(14).uniform(size=shape), mask)
    grid = build_patch_grid(damaged, 16)
    run(damaged, mask, grid)  # warm-up, so one-off allocations are not counted
    tracemalloc.start()
    try:
        run(damaged, mask, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= images * damaged.nbytes
