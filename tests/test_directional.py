"""Tests for the per-patch directional inpainting pipeline."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from inpaintkit.core import mse, split_into_patches
from inpaintkit.diffusion import DiffusionConfig, _solve_windows, diffuse
from inpaintkit.directional import (
    PatchGrid,
    build_patch_grid,
    diffuse_patches,
    inpaint_directional,
    render_directionality_overlay,
)
from inpaintkit.directionality import patch_angles
from inpaintkit.kernels import diag_kernel, diamond_kernel, rotate_kernel
from inpaintkit.masks import apply_damage, random_mask

from oracles import harmonic_fill, jacobi_loop, orientation_direct, overlay_loop, patch_loop


def _hstripes(n: int, period: int = 4) -> np.ndarray:
    i = np.arange(n)
    row = (i % period < period // 2).astype(np.float64)
    return np.repeat(row[:, None], n, axis=1)


def _block_mask(n: int, hole: int) -> np.ndarray:
    mask = np.ones((n, n), dtype=np.uint8)
    start = (n - hole) // 2
    mask[start : start + hole, start : start + hole] = 0
    return mask


def test_grid_counts_and_kernel_validity():
    img = np.random.default_rng(0).uniform(size=(64, 64))
    grid = build_patch_grid(img, 16)
    assert len(grid) == 16
    assert len(grid.coords) == len(grid.angles) == len(grid.kernels)
    for theta, k in zip(grid.angles, grid.kernels):
        assert -90.0 < theta <= 90.0
        assert np.all(k >= 0.0)
        assert abs(k.sum() - 1.0) <= 1e-9


def test_grid_length_mismatch_rejected():
    with pytest.raises(ValueError, match=r"4 patches take \(4,\) angles, got \(1,\)"):
        PatchGrid((8, 8), 4, (0.0,))
    with pytest.raises(ValueError, match=r"4 patches take \(4,\) angles, got \(4, 1\)"):
        PatchGrid((8, 8), 4, np.zeros((4, 1)))
    # a list still builds a grid, held as read-only arrays of its own; the
    # coords are the tiling of the shape, which is held as two ints, and the
    # kernels are the angles rotated
    angles = [0.0, 30.0, -45.0, 90.0]
    grid = PatchGrid(np.array([8, 8]), 4, angles)
    assert grid.shape == (8, 8) and all(type(n) is int for n in grid.shape)
    assert np.array_equal(grid.coords, split_into_patches(8, 8, 4)) and len(grid) == 4
    rotated = rotate_kernel(grid.angles)
    assert grid.kernels.dtype == rotated.dtype and grid.kernels.tobytes() == rotated.tobytes()
    assert grid.coords.shape == (4, 4) and grid.angles.shape == (4,) and grid.kernels.shape == (4, 3, 3)
    for field in (grid.coords, grid.angles, grid.kernels):
        assert not field.flags.writeable
        with pytest.raises(ValueError):
            field[0] = 0
    angles[0] = 45.0
    assert grid.angles[0] == 0.0


def test_directional_beats_diamond_on_stripes():
    img = _hstripes(64)
    mask = _block_mask(64, 16)
    damaged = apply_damage(img, mask)
    plain = diffuse(damaged, mask, diamond_kernel())
    directed = inpaint_directional(damaged, mask, patch_size=16)
    assert mse(img, directed.image) < mse(img, plain.image)


def test_forced_diagonal_grid_matches_whole_image_run():
    # one hole strictly inside a single patch: the per-patch run and the
    # whole-image run with the same kernel solve the same fixed point
    rng = np.random.default_rng(13)
    img = rng.uniform(size=(20, 20))
    mask = np.ones((20, 20), dtype=np.uint8)
    mask[3:8, 2:9] = 0
    damaged = apply_damage(img, mask)
    cfg = DiffusionConfig(epsilon=1e-10, max_iters=100_000)

    grid = PatchGrid((20, 20), 10, (-45.0,) * 4)
    patched = diffuse_patches(damaged, mask, grid, cfg)
    whole = diffuse(damaged, mask, diag_kernel(), cfg)
    oracle = harmonic_fill(damaged, mask, diag_kernel())
    assert np.max(np.abs(patched.image - whole.image)) <= 1e-6
    assert np.max(np.abs(patched.image - oracle)) <= 1e-6


def test_stacked_engine_matches_the_reference_patch_loop():
    # 45x38 with patch 8 gives four patch shapes: full, clipped right,
    # clipped bottom and the clipped corner
    rng = np.random.default_rng(19)
    img = rng.uniform(size=(45, 38))
    mask = random_mask(45, 38, 0.5, seed=10)
    damaged = apply_damage(img, mask)
    cfg = DiffusionConfig(max_iters=300)
    # the estimate pass starts every missing pixel at the mean of the known ones
    start = np.where(mask == 1, damaged, damaged[mask == 1].mean())
    estimate, estimate_iterations, _ = jacobi_loop(start, mask, diamond_kernel(), cfg.epsilon, cfg.max_iters)
    grid = build_patch_grid(estimate, 8)
    patches = [(*pc, k) for pc, k in zip(grid.coords, grid.kernels)]
    ref, counts, deltas = patch_loop(estimate, mask, patches, cfg.epsilon, cfg.max_iters)

    res = diffuse_patches(estimate, mask, grid, cfg)
    assert np.array_equal(res.image, ref)
    assert res.iterations == sum(counts)
    assert res.final_delta == pytest.approx(max(deltas), rel=1e-12, abs=0.0)
    # each patch alone in the engine takes as many steps as it takes in the stack
    singles = [_solve_windows(estimate, mask, grid.coords[i : i + 1], grid.kernels[i : i + 1], cfg)[1][0] for i in range(len(grid))]
    assert singles == counts
    assert len(set(counts)) > 1
    whole = inpaint_directional(damaged, mask, 8, cfg)
    assert np.array_equal(whole.estimate.image, estimate)
    assert whole.estimate.iterations == estimate_iterations
    assert np.array_equal(whole.image, ref)


def test_the_estimate_starts_from_the_known_pixels_only():
    # every missing pixel starts the estimate at the mean of the known ones, so
    # inputs that differ only in their placeholders give the same run bit for bit
    rng = np.random.default_rng(27)
    img = rng.uniform(size=(40, 36))
    mask = random_mask(40, 36, 0.4, seed=28)
    zeros = apply_damage(img, mask)
    noise = np.where(mask == 1, img, rng.uniform(size=img.shape))
    a, b = (inpaint_directional(d, mask, 8) for d in (zeros, noise))
    assert np.array_equal(a.estimate.image, b.estimate.image) and np.array_equal(a.image, b.image)
    assert (a.estimate.iterations, a.iterations) == (b.estimate.iterations, b.iterations)
    # diffuse still starts from the values it is given
    assert not np.array_equal(diffuse(zeros, mask, diamond_kernel()).image, diffuse(noise, mask, diamond_kernel()).image)


def test_a_mask_without_known_pixels_starts_the_estimate_from_the_input():
    # there is no known pixel to take a mean of, so the estimate is diffuse's run
    img = np.random.default_rng(29).uniform(size=(12, 10))
    mask = np.zeros((12, 10), dtype=np.uint8)
    cfg = DiffusionConfig(max_iters=30)
    res = inpaint_directional(img, mask, 4, cfg)
    plain = diffuse(img, mask, diamond_kernel(), cfg)
    assert np.array_equal(res.estimate.image, plain.image) and res.estimate.iterations == plain.iterations == 30


def test_an_all_zero_window_in_a_stack_steps_once():
    # 256x256 with patch 64 is one stack of sixteen 66x66 windows. Window 5's
    # region and ring are all zero, so its first step moves nothing and it
    # stops there while the others run on.
    rng = np.random.default_rng(26)
    base = rng.uniform(size=(256, 256))
    base[63:129, 63:129] = 0.0
    mask = random_mask(256, 256, 0.5, seed=27)
    grid = build_patch_grid(base, 64)
    cfg = DiffusionConfig(max_iters=400)
    patches = [(*pc, k) for pc, k in zip(grid.coords, grid.kernels)]
    ref, counts, _ = patch_loop(base, mask, patches, cfg.epsilon, cfg.max_iters)
    assert counts[5] == 1 and min(np.delete(counts, 5)) > 1
    singles = [_solve_windows(base, mask, grid.coords[i : i + 1], grid.kernels[i : i + 1], cfg)[1][0] for i in range(len(grid))]
    assert singles == counts
    res = diffuse_patches(base, mask, grid, cfg)
    assert np.array_equal(res.image, ref)
    assert res.iterations == sum(counts)


def test_an_angle_that_overflows_to_nan_is_refused():
    # the shift sums of a finite image near the float64 limit overflow, so the
    # patch's angle is NaN; rotate_kernel refuses it instead of indexing with it
    img = np.random.default_rng(31).uniform(size=(16, 16)) * 1e306
    mask = random_mask(16, 16, 0.3, seed=32)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="1 NaN or infinite angle"):
        inpaint_directional(apply_damage(img, mask), mask, 16, DiffusionConfig(max_iters=20))


def test_patch_size_is_checked_before_the_estimate_pass():
    rng = np.random.default_rng(20)
    mask = random_mask(16, 16, 0.5, seed=11)
    damaged = apply_damage(rng.uniform(size=(16, 16)), mask)
    calls = []
    with pytest.raises(ValueError, match="patch size must be >= 2, got 1"):
        inpaint_directional(damaged, mask, patch_size=1, callback=lambda i, cur: calls.append(i))
    assert calls == []


def test_a_patch_past_the_image_is_one_whole_image_patch():
    rng = np.random.default_rng(24)
    mask = random_mask(12, 20, 0.4, seed=14)
    damaged = apply_damage(rng.uniform(size=(12, 20)), mask)
    whole = inpaint_directional(damaged, mask, patch_size=20)
    huge = inpaint_directional(damaged, mask, patch_size=10**30)
    assert np.array_equal(huge.image, whole.image) and huge.iterations == whole.iterations
    assert huge.grid.coords.tolist() == [[0, 0, 12, 20]]
    for name in ("coords", "angles", "kernels"):
        assert np.array_equal(getattr(huge.grid, name), getattr(whole.grid, name))


def test_a_zero_patch_beside_a_bright_one_steps_from_its_halo():
    # a zero interior under a bright neighbour reads the neighbour through its
    # halo, so its steps fill it from above
    base = np.zeros((8, 8))
    base[:4] = 1.0
    mask = np.ones((8, 8), dtype=np.uint8)
    mask[4:6, 2:6] = 0
    coords, kernels = split_into_patches(8, 8, 4), np.array([diamond_kernel()] * 4)
    cfg = DiffusionConfig()
    res, counts, _ = _solve_windows(base, mask, coords, kernels, cfg)
    out = res.image
    ref, ref_counts, _ = patch_loop(base, mask, [(*pc, k) for pc, k in zip(coords, kernels)], cfg.epsilon, cfg.max_iters)
    assert np.array_equal(out, ref) and counts.tolist() == ref_counts
    assert (out[4:6, 2:6] > 0).all()


def test_known_pixels_pass_through_untouched():
    rng = np.random.default_rng(14)
    img = rng.uniform(size=(33, 27))
    mask = random_mask(33, 27, 0.4, seed=5)
    damaged = apply_damage(img, mask)
    res = inpaint_directional(damaged, mask, patch_size=8)
    known = mask == 1
    assert np.array_equal(res.image[known], damaged[known])


def test_repeat_runs_are_bit_identical():
    rng = np.random.default_rng(15)
    img = rng.uniform(size=(32, 32))
    mask = random_mask(32, 32, 0.5, seed=6)
    damaged = apply_damage(img, mask)
    a = inpaint_directional(damaged, mask, patch_size=8)
    b = inpaint_directional(damaged, mask, patch_size=8)
    assert np.array_equal(a.image, b.image)
    assert a.iterations == b.iterations


def test_patch_order_does_not_change_the_result():
    rng = np.random.default_rng(16)
    img = rng.uniform(size=(32, 32))
    mask = random_mask(32, 32, 0.5, seed=7)
    damaged = apply_damage(img, mask)
    base = diffuse(damaged, mask, diamond_kernel())
    grid = build_patch_grid(base.image, 8)

    # a grid is always row-major, so the engine gets the permuted regions directly
    order = rng.permutation(len(grid))
    res_a, counts_a, _ = _solve_windows(base.image, mask, grid.coords, grid.kernels)
    res_b, counts_b, _ = _solve_windows(base.image, mask, grid.coords[order], grid.kernels[order])
    assert np.array_equal(res_a.image, res_b.image)
    assert np.array_equal(counts_b, counts_a[order]) and len(set(counts_a)) > 1
    assert np.array_equal(diffuse_patches(base.image, mask, grid).image, res_a.image)


def test_aggregate_diagnostics():
    rng = np.random.default_rng(17)
    img = rng.uniform(size=(24, 24))
    mask = random_mask(24, 24, 0.3, seed=8)
    damaged = apply_damage(img, mask)
    res = inpaint_directional(damaged, mask, patch_size=8)
    assert res.iterations > res.estimate.iterations
    assert res.converged
    assert res.final_delta <= DiffusionConfig().epsilon
    assert len(res.grid) == 9
    # capped so only the estimate misses the threshold: final_delta reports it.
    # The estimate needs 12 steps from its warm start, the patches at most 10
    capped = inpaint_directional(damaged, mask, patch_size=8, config=DiffusionConfig(max_iters=10))
    assert not capped.estimate.converged and not capped.converged
    assert capped.final_delta == capped.estimate.final_delta > DiffusionConfig().epsilon


def test_clipped_patches_are_still_processed():
    # 20x14 with patch 8 leaves clipped strips on two sides
    rng = np.random.default_rng(18)
    img = rng.uniform(size=(20, 14))
    mask = random_mask(20, 14, 0.5, seed=9)
    damaged = apply_damage(img, mask)
    res = inpaint_directional(damaged, mask, patch_size=8)
    assert len(res.grid) == 6
    assert res.image.shape == (20, 14)
    # every missing pixel was rewritten away from its placeholder zero
    filled = res.image[mask == 0]
    assert np.all(filled > 0.0)


# shapes other than the (12, 8) of a grid
OTHER_SHAPES = pytest.mark.parametrize(
    "other_shape",
    [(8, 12), (12, 9), (12, 7), (13, 8), (11, 8)],
    ids=["transposed", "wider", "narrower", "taller", "shorter"],
)


@OTHER_SHAPES
def test_a_base_of_another_shape_than_the_grid_is_refused(other_shape):
    # a grid's patches tile its own shape: on a smaller base they would run
    # past it, on a larger one they would leave pixels unsolved
    grid = build_patch_grid(np.full((12, 8), 0.5), 4)
    mask = random_mask(*other_shape, 0.5, seed=2)
    damaged = apply_damage(np.full(other_shape, 0.5), mask)
    with pytest.raises(ValueError, match=re.escape(f"base and grid differ in shape: {other_shape} vs (12, 8)")):
        diffuse_patches(damaged, mask, grid)


@OTHER_SHAPES
def test_an_overlay_image_of_another_shape_than_the_grid_is_refused(other_shape):
    # a grid's segments are drawn inside its own patches: on a smaller image
    # they would run past it, on a larger one they would leave it half drawn
    grid = build_patch_grid(np.full((12, 8), 0.5), 4)
    with pytest.raises(ValueError, match=re.escape(f"image and grid differ in shape: {other_shape} vs (12, 8)")):
        render_directionality_overlay(np.zeros(other_shape), grid)


@pytest.mark.parametrize(
    "angles, count",
    [(np.nan, 1), ([0.0, np.inf, 45.0, -np.inf], 2), ([np.nan, 0.0, 0.0, 0.0], 1)],
    ids=["scalar-nan", "inf-in-array", "nan-in-array"],
)
def test_a_grid_refuses_non_finite_angles(angles, count):
    # the grid rotates its angles before it checks their shape, and rotate_kernel
    # refuses a NaN or infinite one: the overlay would draw nothing for its patch
    with pytest.raises(ValueError, match=f"{count} NaN or infinite angle"):
        PatchGrid((8, 8), 4, angles)


def test_overlay_draws_along_the_reported_angle():
    # odd patch side keeps the segment centre on an exact pixel
    img = np.zeros((15, 15))

    horiz = PatchGrid((15, 15), 15, (90.0,))
    out = render_directionality_overlay(img, horiz)
    # theta = 90 paints the centre row, not the centre column
    assert out[7, :].sum() > 8
    assert out[:, 7].sum() <= 2

    vert = PatchGrid((15, 15), 15, (0.0,))
    out = render_directionality_overlay(img, vert)
    assert out[:, 7].sum() > 8
    assert out[7, :].sum() <= 2


def test_overlay_matches_the_per_sample_loop():
    # 45x38 clips the last patch row and column for every size but 45;
    # the angles cover (-90, 90], including 0, 45 and 90 exactly
    rng = np.random.default_rng(23)
    img = rng.uniform(size=(45, 38))
    for n in (2, 7, 8, 16, 45):
        p = len(split_into_patches(45, 38, n))
        exact = [0.0, 45.0, 90.0, -45.0, 89.999, -89.999, 30.0, -60.0]
        angles = (exact + rng.uniform(-90.0, 90.0, size=p).tolist())[:p]
        grid = PatchGrid((45, 38), n, angles)
        for g in (grid, build_patch_grid(img, n)):
            want = overlay_loop(img, [(*pc, a) for pc, a in zip(g.coords, g.angles)])
            assert np.array_equal(render_directionality_overlay(img, g), want), (n, g is grid)


def test_overlay_leaves_the_input_alone():
    img = np.full((8, 8), 0.25)
    grid = build_patch_grid(img, 4)
    before = img.copy()
    render_directionality_overlay(img, grid)
    assert np.array_equal(img, before)


def test_non_integer_patch_size_fails_before_the_estimate_pass():
    rng = np.random.default_rng(21)
    mask = random_mask(16, 16, 0.5, seed=12)
    damaged = apply_damage(rng.uniform(size=(16, 16)), mask)
    calls = []
    with pytest.raises(TypeError, match="patch_size must be an integer, got 16.0"):
        inpaint_directional(damaged, mask, patch_size=16.0, callback=lambda i, cur: calls.append(i))
    assert calls == []
    with pytest.raises(TypeError, match="patch size must be an integer"):
        build_patch_grid(damaged, 4.0)


def test_stacked_angles_match_per_patch_metrics():
    # 45x38 with patch 8 clips the last patch row and column; the quantised
    # image makes exact ties between v, h and the diagonal likely
    rng = np.random.default_rng(22)
    for img in (rng.uniform(size=(45, 38)), np.round(rng.uniform(size=(45, 38)) * 3) / 3):
        for n in (2, 7, 8, 45):
            grid = build_patch_grid(img, n)
            patches = [img[t : t + h, l : l + w] for t, l, h, w in grid.coords]
            assert grid.angles.tolist() == [orientation_direct(p)[-1] for p in patches]
            assert grid.angles.tolist() == [patch_angles(p[None])[0] for p in patches]


def test_build_patch_grid_traced_peak_stays_within_three_images():
    # the patch stack plus one reused difference buffer, not three
    # image-sized temporaries per shift sum
    img = np.random.default_rng(23).uniform(size=(256, 256))
    build_patch_grid(img, 16)  # warm-up, so one-off allocations are not counted
    tracemalloc.start()
    try:
        build_patch_grid(img, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * img.nbytes
