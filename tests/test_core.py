"""Tests for the shared image/mask primitives."""

from __future__ import annotations

import re

import numpy as np
import pytest

from inpaintkit.core import (
    as_image,
    as_mask,
    as_real_array,
    mse,
    group_by_shape,
    require,
    require_same_shape,
    split_into_patches,
)
from inpaintkit.diffusion import DiffusionConfig
from inpaintkit.directional import PatchGrid, build_patch_grid, inpaint_directional
from inpaintkit.masks import apply_damage, random_mask, text_mask
from inpaintkit.synth import standard_suite, stripes


def test_as_image_accepts_lists_and_returns_float64():
    img = as_image([[0.0, 0.5], [1.0, 0.25]])
    assert img.dtype == np.float64
    assert img.shape == (2, 2)


def test_as_image_rejects_wrong_rank_and_empty():
    with pytest.raises(ValueError):
        as_image([1.0, 2.0])
    with pytest.raises(ValueError):
        as_image(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        as_image(np.zeros((2, 2, 3)))


@pytest.mark.parametrize("values", [np.zeros((2, 2)) + 0j, np.ones((2, 2), dtype=np.complex64), [[1j, 0.0], [0.0, 1.0]]])
def test_as_image_refuses_complex_values(values):
    # the cast to float64 would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match="expected a real image, got complex"):
        as_image(values)


def test_as_image_does_not_copy_float64():
    img = np.zeros((3, 2))
    assert as_image(img) is img


@pytest.mark.parametrize("what", ["kernel", "angle", "patch stack"])
def test_as_real_array_refuses_complex_values_naming_the_argument(what):
    # a zero imaginary part is refused too: the real part is never taken
    for values in (np.zeros(3) + 0j, np.ones((2, 2), dtype=np.complex64), [1j, 0.0], 2 + 0j):
        with pytest.raises(ValueError, match=f"^expected a real {what}, got complex values of dtype complex"):
            as_real_array(values, what)


def test_as_real_array_does_not_copy_and_keeps_the_dtype_asked_for():
    values = np.zeros((2, 3))
    assert as_real_array(values, "kernel") is values
    assert as_real_array([[1, 0]], "kernel").dtype == np.float64
    ints = np.array([1, 2], dtype=np.int32)
    assert as_real_array(ints, "mask", dtype=None) is ints
    mask = np.ones((3, 2), dtype=np.uint8)
    assert as_mask(mask) is mask


@pytest.mark.parametrize("values", [np.ones((2, 2)) + 0j, np.ones((2, 2), dtype=np.complex64), [[1j, 0], [0, 1]]])
def test_as_mask_refuses_complex_values(values):
    # the uint8 cast would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match="expected a real mask, got complex"):
        as_mask(values)


def test_require_counts_the_entries_that_fail():
    assert require(np.ones((2, 3), dtype=bool), "{} bad") is None
    assert require([], "{} bad") is None
    # exactly one failing entry is refused, with its count
    with pytest.raises(ValueError, match="^1 bad$"):
        require([True, False, True], "{} bad")
    with pytest.raises(ValueError, match="^2 bad$"):
        require(np.array([[False, True], [True, False]]), "{} bad")
    with pytest.raises(ValueError, match="^no count here$"):
        require(False, "no count here")



def test_as_mask_accepts_binary_and_rejects_other_values():
    m = as_mask([[0, 1], [1, 0]])
    assert m.dtype == np.uint8
    b = as_mask(np.array([[False, True], [True, False]]))
    assert b.dtype == np.uint8 and np.array_equal(b, m)
    with pytest.raises(ValueError):
        as_mask([[0, 2], [1, 0]])
    with pytest.raises(ValueError):
        as_mask([[0.5, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        as_mask([[0.0, 1.0], [1.0, np.nan]])
    # like images, masks are non-empty and 2-D
    for values in ([0, 1], np.zeros((0, 3))):
        with pytest.raises(ValueError, match="expected a non-empty 2-D mask"):
            as_mask(values)


def test_require_same_shape():
    require_same_shape(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        require_same_shape(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mse_single_pixel_on_512_square():
    # one pixel off by 0.5 in a 512x512 pair: 0.25 / 262144, exact in floats
    a = np.zeros((512, 512))
    b = a.copy()
    b[10, 20] = 0.5
    assert mse(a, b) == 0.25 / 262144
    assert mse(a, a) == 0.0


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((2, 3)))


def test_split_512_into_16_gives_1024_full_patches():
    patches = split_into_patches(512, 512, 16)
    assert patches.shape == (1024, 4)
    assert np.all(patches[:, 2:] == 16)
    # row-major: the second patch sits to the right of the first
    assert patches[0, :2].tolist() == [0, 0]
    assert patches[1, :2].tolist() == [0, 16]


def test_split_clips_trailing_patches():
    patches = split_into_patches(5, 4, 4)
    assert patches.tolist() == [[0, 0, 4, 4], [4, 0, 1, 4]]
    assert patches.dtype == np.intp
    assert not patches.flags.writeable


def test_split_covers_every_pixel_exactly_once():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows = int(rng.integers(2, 40))
        cols = int(rng.integers(2, 40))
        n = int(rng.integers(2, 12))
        counter = np.zeros((rows, cols), dtype=int)
        for top, left, height, width in split_into_patches(rows, cols, n):
            counter[top : top + height, left : left + width] += 1
        assert np.array_equal(counter, np.ones((rows, cols), dtype=int))


def test_split_rejects_tiny_patch_size():
    with pytest.raises(ValueError):
        split_into_patches(8, 8, 1)
    with pytest.raises(ValueError):
        split_into_patches(0, 8, 4)


@pytest.mark.parametrize("args, name", [((8.5, 8, 4), "rows"), ((8, 8.0, 4), "cols"), ((8, 8, 4.0), "patch size")], ids=["rows", "cols", "n"])
def test_split_refuses_a_size_that_is_not_an_integer(args, name):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        split_into_patches(*args)
    assert split_into_patches(np.int64(8), np.int32(8), np.uint8(4)).tolist() == split_into_patches(8, 8, 4).tolist()


def test_split_clamps_a_patch_past_the_image():
    assert np.array_equal(split_into_patches(8, 8, 10**30), split_into_patches(8, 8, 8))
    # a wide or tall image is one patch, not one per shorter side
    for rows, cols in ((5, 9), (9, 5), (1, 1)):
        for n in (max(rows, cols, 2), max(rows, cols) + 1, 10**30):
            coords = split_into_patches(rows, cols, n)
            assert coords.tolist() == [[0, 0, rows, cols]] and not coords.flags.writeable


_MASK = random_mask(6, 6, 0.5, seed=3)
_DAMAGED = apply_damage(np.random.default_rng(3).uniform(size=(6, 6)), _MASK)

# every integer argument: a call that passes value to it, the name it is refused
# by, and its lower bound
INTEGER_ARGUMENTS = {
    "split-rows": (lambda v: split_into_patches(v, 8, 4), "rows", 1),
    "split-cols": (lambda v: split_into_patches(8, v, 4), "cols", 1),
    "split-n": (lambda v: split_into_patches(8, 8, v), "patch size", 2),
    "random-mask-rows": (lambda v: random_mask(v, 8, 0.5, 0), "rows", 1),
    "random-mask-cols": (lambda v: random_mask(8, v, 0.5, 0), "cols", 1),
    "random-mask-seed": (lambda v: random_mask(8, 8, 0.5, v), "seed", 0),
    "text-mask-rows": (lambda v: text_mask(v, 8, "x"), "rows", 1),
    "text-mask-cols": (lambda v: text_mask(8, v, "x"), "cols", 1),
    "text-mask-scale": (lambda v: text_mask(8, 8, "x", v), "scale", 1),
    "max-iters": (lambda v: DiffusionConfig(max_iters=v), "max_iters", 1),
    "grid-rows": (lambda v: PatchGrid((v, 4), 4, np.zeros(1)), "rows", 1),
    "grid-cols": (lambda v: PatchGrid((4, v), 4, np.zeros(1)), "cols", 1),
    "grid-patch-size": (lambda v: PatchGrid((2, 2), v, np.zeros(1)), "patch size", 2),
    "inpaint-directional-patch-size": (lambda v: inpaint_directional(_DAMAGED, _MASK, v), "patch_size", 2),
    "build-patch-grid-patch-size": (lambda v: build_patch_grid(_DAMAGED, v), "patch size", 2),
    "stripes-size": (lambda v: stripes(v, 8.0, 0.0), "size", 1),
    "standard-suite-size": (lambda v: standard_suite(v), "size", 1),
}


@pytest.mark.parametrize("call, name, least", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_every_integer_argument_is_converted_and_bounded_by_name(call, name, least):
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got {float(least)}$"):
        call(float(least))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {least}, got {least - 1}')}$"):
        call(least - 1)
    call(least)
    call(np.int64(least))


def test_group_by_shape_partitions_the_indices_by_shape():
    # 5x6 with patch 4: full, clipped right, clipped bottom, clipped corner
    tiling = split_into_patches(5, 6, 4)
    shuffled = tiling[np.random.default_rng(0).permutation(len(tiling))]
    for coords in (tiling, tiling[::-1], shuffled, split_into_patches(8, 8, 4)):
        groups = group_by_shape(coords)
        assert sorted(np.concatenate(list(groups.values())).tolist()) == list(range(len(coords)))
        for (h, w), idx in groups.items():
            assert (coords[idx, 2:] == (h, w)).all()
            assert (np.diff(idx) > 0).all()
    assert set(group_by_shape(tiling)) == {(4, 4), (4, 2), (1, 4), (1, 2)}
    (shape, idx), = group_by_shape(split_into_patches(8, 8, 4)).items()
    assert shape == (4, 4) and idx.tolist() == [0, 1, 2, 3]
