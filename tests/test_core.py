"""Tests for the shared image/mask primitives."""

from __future__ import annotations

import numpy as np
import pytest

from inpaintkit.core import (
    as_image,
    as_mask,
    mse,
    group_by_shape,
    require_same_shape,
    split_into_patches,
)


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
