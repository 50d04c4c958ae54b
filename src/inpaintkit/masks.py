"""Mask generation and damage application.

Masks follow the package-wide convention: 1 = known pixel, 0 = missing.
Both generators are fully deterministic for a given argument tuple.
"""

from __future__ import annotations

import numpy as np

from .core import as_image, as_int, as_mask, as_real, require_same_shape
from .font5x7 import GLYPH_COLS, GLYPH_INDEX, GLYPH_ROWS, GLYPHS

# glyph cell advance: 1 blank column between glyphs, 5 blank rows between lines
GLYPH_ADVANCE = GLYPH_COLS + 1
LINE_ADVANCE = GLYPH_ROWS + 5
# each glyph at the top left of its unscaled LINE_ADVANCE x GLYPH_ADVANCE cell
GLYPH_CELLS = np.pad(GLYPHS, ((0, 0), (0, LINE_ADVANCE - GLYPH_ROWS), (0, GLYPH_ADVANCE - GLYPH_COLS)))


def random_mask(rows: int, cols: int, missing_fraction: float, seed: int) -> np.ndarray:
    """Mask with exactly round(missing_fraction * rows * cols) missing pixels.

    Pixel positions are drawn by a seeded shuffle, so the count is exact
    rather than binomial and the result is reproducible. rows, cols and
    seed go through as_int: one that is not an integer raises TypeError,
    and rows or cols below 1 or seed below 0 ValueError, naming it.
    missing_fraction goes through as_real: one that is not a real number
    raises TypeError, and one outside [0, 1] ValueError, naming it.
    """
    rows, cols, seed = as_int(rows, "rows", 1), as_int(cols, "cols", 1), as_int(seed, "seed", 0)
    missing_fraction = as_real(missing_fraction, "missing_fraction", lambda f: 0.0 <= f <= 1.0, "in [0, 1]")
    total = rows * cols
    k = int(round(missing_fraction * total))
    rng = np.random.default_rng(seed)
    order = rng.permutation(total)
    bits = np.ones(total, dtype=np.uint8)
    bits[order[:k]] = 0
    return bits.reshape(rows, cols)


def text_mask(rows: int, cols: int, text: str, scale: int = 1) -> np.ndarray:
    """Mask whose missing pixels spell repeated text in a 5x7 bitmap font.

    The text tiles the whole image starting at the origin, advancing
    GLYPH_ADVANCE * scale columns per character and LINE_ADVANCE * scale
    rows per line; the character stream continues across line breaks.
    Characters without a glyph render blank but still advance. A scale
    past the image is clamped to max(rows, cols): every pixel then reads
    the first glyph cell's corner. rows, cols and scale go through
    as_int: one that is not an integer raises TypeError, and one below 1
    ValueError, naming it. A mask too large for numpy to index raises
    ValueError.
    """
    rows, cols, scale = as_int(rows, "rows", 1), as_int(cols, "cols", 1), as_int(scale, "scale", 1)
    if not text:
        raise ValueError("text must be non-empty")
    scale = min(scale, max(rows, cols))
    r, c = np.arange(rows) // scale, np.arange(cols) // scale
    lines, per_line = r[-1] // LINE_ADVANCE + 1, c[-1] // GLYPH_ADVANCE + 1
    cells = GLYPH_CELLS[np.resize([GLYPH_INDEX.get(ch, 0) for ch in text], (lines, per_line))]
    ink = cells.transpose(0, 2, 1, 3).reshape(lines * LINE_ADVANCE, per_line * GLYPH_ADVANCE)
    return 1 - ink[r[:, None], c]


def apply_damage(img, mask) -> np.ndarray:
    """Zero out the missing pixels of an image."""
    img = as_image(img)
    mask = as_mask(mask)
    require_same_shape(img, mask, "image and mask")
    return np.where(mask == 1, img, 0.0)


def mask_from_image(img) -> np.ndarray:
    """Interpret an image as a mask: a pixel > 0 is known, any other (0, negative or NaN) is missing."""
    img = as_image(img)
    return (img > 0).astype(np.uint8)


def mask_to_image(mask) -> np.ndarray:
    """Render a mask as a black/white image (known pixels white)."""
    return as_mask(mask).astype(np.float64)

