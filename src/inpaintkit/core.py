"""Image and mask primitives shared by every other module.

Images are 2-D float64 arrays with intensities in [0, 1]. Masks are 2-D
{0, 1} arrays of the same shape, where 1 marks a known pixel and 0 a
missing one. Functions treat their inputs as read-only and return new
arrays.
"""

from __future__ import annotations

import operator

import numpy as np


def as_image(values) -> np.ndarray:
    """Coerce to a non-empty 2-D float64 array, without copying when possible."""
    img = np.asarray(values, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {np.shape(values)}")
    return img


def as_mask(values) -> np.ndarray:
    """Coerce to a non-empty 2-D uint8 mask and check every bit is 0 or 1."""
    m = np.asarray(values)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty 2-D mask, got shape {np.shape(values)}")
    if np.count_nonzero((m != 0) & (m != 1)):
        raise ValueError("mask values must be 0 (missing) or 1 (known)")
    return m.astype(np.uint8, copy=False)


def as_int(value, name: str) -> int:
    """Return an integer argument as an int; a float or other non-integer raises TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def require_finite(img: np.ndarray) -> np.ndarray:
    """Return img; a NaN or infinite pixel raises ValueError, with the count of them."""
    bad = img.size - int(np.count_nonzero(np.isfinite(img)))
    if bad:
        raise ValueError(f"image has {bad} non-finite pixel(s); NaN and inf are not valid intensities")
    return img


def require_same_shape(a: np.ndarray, b: np.ndarray, what: str = "arrays") -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what} differ in shape: {a.shape} vs {b.shape}")


def mse(original, reconstructed) -> float:
    """Mean squared error between two images of identical shape."""
    a = as_image(original)
    b = as_image(reconstructed)
    require_same_shape(a, b)
    return float(np.mean((a - b) ** 2))


def split_into_patches(rows: int, cols: int, n: int) -> np.ndarray:
    """Tile an image of the given size into n-by-n patches, row-major.

    Returns a read-only (P, 4) intp array of (top, left, height, width)
    rows. Trailing patches are clipped to the image boundary, so every
    pixel belongs to exactly one patch. An n past the image is clamped to
    max(rows, cols): the one patch that covers the whole image. A size
    that is not an integer raises TypeError naming it.
    """
    rows, cols, n = as_int(rows, "rows"), as_int(cols, "cols"), as_int(n, "patch size")
    if n < 2:
        raise ValueError(f"patch size must be >= 2, got {n}")
    if rows < 1 or cols < 1:
        raise ValueError(f"image size must be positive, got {rows}x{cols}")
    n = min(n, max(rows, cols))
    tops, lefts = np.meshgrid(np.arange(0, rows, n, dtype=np.intp), np.arange(0, cols, n, dtype=np.intp), indexing="ij")
    coords = np.stack([tops, lefts, np.minimum(n, rows - tops), np.minimum(n, cols - lefts)], axis=-1).reshape(-1, 4)
    coords.flags.writeable = False
    return coords


def group_by_shape(coords: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Indices of the patches of each (height, width) of a (P, 4) coords array, ascending within each shape."""
    shapes, inverse = np.unique(coords[:, 2:], axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return {(int(h), int(w)): np.flatnonzero(inverse == g) for g, (h, w) in enumerate(shapes)}
