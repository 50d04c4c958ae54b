"""Tests for mask generation and damage application."""

from __future__ import annotations

import numpy as np
import pytest

from inpaintkit.font5x7 import FONT, GLYPH_INDEX, GLYPHS
from inpaintkit.masks import (
    GLYPH_ADVANCE,
    LINE_ADVANCE,
    apply_damage,
    mask_from_image,
    mask_to_image,
    random_mask,
    text_mask,
)
from oracles import glyph_bits, text_mask_loop


def test_random_mask_exact_counts_on_512_square():
    mask = random_mask(512, 512, 0.3, seed=42)
    assert int((mask == 0).sum()) == round(0.3 * 512 * 512)  # 78643
    mask = random_mask(512, 512, 0.5, seed=42)
    assert int((mask == 0).sum()) == 131072


def test_random_mask_determinism_and_seed_sensitivity():
    a = random_mask(64, 64, 0.4, seed=1)
    b = random_mask(64, 64, 0.4, seed=1)
    c = random_mask(64, 64, 0.4, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_random_mask_extreme_fractions():
    assert random_mask(8, 8, 0.0, seed=0).all()
    assert not random_mask(8, 8, 1.0, seed=0).any()


def test_random_mask_validation():
    with pytest.raises(ValueError):
        random_mask(0, 8, 0.5, seed=0)
    with pytest.raises(ValueError):
        random_mask(8, 8, 1.5, seed=0)
    # a non-integer size names its argument
    with pytest.raises(TypeError, match="rows must be an integer"):
        random_mask(8.0, 8, 0.5, 0)
    with pytest.raises(TypeError, match="cols must be an integer"):
        random_mask(8, 8.0, 0.5, 0)


def test_glyph_table_matches_bitwise_decoding():
    assert GLYPHS.shape == (1 + len(FONT), 7, 5) and GLYPHS.dtype == np.uint8
    assert not GLYPHS[0].any()
    for ch, columns in FONT.items():
        assert np.array_equal(GLYPHS[GLYPH_INDEX[ch]], glyph_bits(columns)), ch


def test_glyph_a_is_pinned():
    a = np.array(
        [
            [0, 1, 1, 1, 0],
            [1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
            [1, 1, 1, 1, 1],
            [1, 0, 0, 0, 1],
            [1, 0, 0, 0, 1],
        ],
        dtype=np.uint8,
    )
    assert np.array_equal(GLYPHS[GLYPH_INDEX["A"]], a)
    assert np.array_equal(glyph_bits(FONT["A"]), a)
    assert np.array_equal(text_mask(7, 5, "A"), 1 - a)


def test_text_mask_matches_the_per_glyph_loop():
    # odd and 1-pixel sizes, sizes on and off the glyph-cell grid, spaces,
    # a tab and characters outside the font
    texts = ("Lorem ipsum dolor sit amet", "a\tb é ☃ Z", " ", "~")
    for rows in (1, 2, 7, 12, 13, 37, 97):
        for cols in (1, 5, 6, 7, 31, 97):
            for scale in (1, 2, 3, 4):
                for text in texts:
                    got = text_mask(rows, cols, text, scale)
                    want = text_mask_loop(rows, cols, text, scale, FONT)
                    assert got.dtype == np.uint8 and np.array_equal(got, want), (rows, cols, scale, text)
    for scale in (1, 2):
        assert np.array_equal(text_mask(512, 512, "Lorem ipsum", scale), text_mask_loop(512, 512, "Lorem ipsum", scale, FONT))


def test_text_mask_single_glyph_is_the_exact_complement():
    glyph = glyph_bits(FONT["I"])
    mask = text_mask(7, 5, "I")
    assert np.array_equal(mask, 1 - glyph)


def test_text_mask_space_leaves_everything_known():
    assert text_mask(7, 5, " ").all()


def test_text_mask_scaling_matches_kron():
    glyph = glyph_bits(FONT["I"])
    mask = text_mask(14, 10, "I", scale=2)
    assert np.array_equal(mask, 1 - np.kron(glyph, np.ones((2, 2), dtype=np.uint8)))


def test_text_mask_advances_and_wraps_the_character_stream():
    # two glyph cells per line on a 24-column image; the stream continues
    # onto the next line instead of restarting
    mask = text_mask(LINE_ADVANCE + 7, GLYPH_ADVANCE * 2, "AB")
    a = glyph_bits(FONT["A"])
    b = glyph_bits(FONT["B"])
    assert np.array_equal(mask[:7, :5], 1 - a)
    assert np.array_equal(mask[:7, GLYPH_ADVANCE : GLYPH_ADVANCE + 5], 1 - b)
    # next line starts back at "A" (stream index 2 wraps around)
    assert np.array_equal(mask[LINE_ADVANCE : LINE_ADVANCE + 7, :5], 1 - a)
    # the gap column between glyphs stays known
    assert mask[:, 5].all()


def test_text_mask_clips_at_the_image_edge():
    mask = text_mask(4, 3, "I")
    glyph = glyph_bits(FONT["I"])
    assert np.array_equal(mask, 1 - glyph[:4, :3])


def test_text_mask_default_text_coverage_stays_moderate():
    for scale in (1, 2, 3, 4):
        mask = text_mask(512, 512, "Lorem ipsum dolor sit amet", scale=scale)
        frac = float((mask == 0).mean())
        assert 0.0 < frac < 0.5


def test_text_mask_validation():
    with pytest.raises(ValueError):
        text_mask(8, 8, "")
    with pytest.raises(ValueError):
        text_mask(8, 8, "x", scale=0)
    for rows, cols, message in ((0, 8, "rows must be >= 1, got 0"), (8, 0, "cols must be >= 1, got 0"), (-1, 8, "rows must be >= 1, got -1")):
        with pytest.raises(ValueError, match=message):
            text_mask(rows, cols, "x")
    # a non-integer size or scale names its argument
    for kwargs, name in (({"rows": 16.0}, "rows"), ({"cols": 16.0}, "cols"), ({"scale": 2.0}, "scale")):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            text_mask(**{"rows": 16, "cols": 16, "text": "x", **kwargs})


def test_text_mask_clamps_a_scale_past_the_image():
    # any scale of at least the longer side reads glyph-cell pixel (0, 0) everywhere
    assert np.array_equal(text_mask(8, 8, "hi", 10**41), text_mask(8, 8, "hi", 8))
    for rows, cols, text in ((8, 20, "hi"), (20, 8, "Lorem"), (1, 3, "I")):
        want = text_mask_loop(rows, cols, text, max(rows, cols), FONT)
        for scale in (max(rows, cols), max(rows, cols) + 1, 10**30):
            assert np.array_equal(text_mask(rows, cols, text, scale), want), (rows, cols, scale)


def test_text_mask_too_large_to_index_is_a_value_error():
    # numpy refuses the index array itself, before any glyph is tiled
    for rows, cols in ((8, 10**30), (10**30, 8)):
        with pytest.raises(ValueError):
            text_mask(rows, cols, "hi")


def test_apply_damage_zeroes_missing_pixels():
    img = np.full((3, 3), 0.8)
    mask = np.array([[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=np.uint8)
    damaged = apply_damage(img, mask)
    assert np.array_equal(damaged, np.where(mask == 1, 0.8, 0.0))


def test_mask_image_roundtrip():
    mask = random_mask(16, 16, 0.3, seed=3)
    assert np.array_equal(mask_from_image(mask_to_image(mask)), mask)


def test_mask_from_image_keeps_only_positive_pixels():
    # a negative or NaN pixel is missing, as 0 is
    img = np.array([[-1.0, 0.0], [0.5, np.nan]])
    assert np.array_equal(mask_from_image(img), np.array([[0, 0], [1, 0]], dtype=np.uint8))
