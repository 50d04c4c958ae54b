"""Image and mask primitives shared by every other module.

Images are 2-D float64 arrays with intensities in [0, 1]. Masks are 2-D
{0, 1} arrays of the same shape, where 1 marks a known pixel and 0 a
missing one. Functions treat their inputs as read-only and return new
arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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


def require_same_shape(a: np.ndarray, b: np.ndarray, what: str = "arrays") -> None:
    if a.shape != b.shape:
        raise ValueError(f"{what} differ in shape: {a.shape} vs {b.shape}")


def mse(original, reconstructed) -> float:
    """Mean squared error between two images of identical shape."""
    a = as_image(original)
    b = as_image(reconstructed)
    require_same_shape(a, b)
    return float(np.mean((a - b) ** 2))


@dataclass(frozen=True)
class PatchCoords:
    """Location of one patch inside an image.

    Patches are nominally n-by-n; the trailing row/column of patches is
    clipped at the image boundary, so height and width are stored
    explicitly.
    """

    top: int
    left: int
    height: int
    width: int

    @property
    def row_slice(self) -> slice:
        return slice(self.top, self.top + self.height)

    @property
    def col_slice(self) -> slice:
        return slice(self.left, self.left + self.width)


def split_into_patches(rows: int, cols: int, n: int) -> list[PatchCoords]:
    """Tile an image of the given size into n-by-n patches, row-major.

    Trailing patches are clipped to the image boundary, so every pixel
    belongs to exactly one patch.
    """
    n = as_int(n, "patch size")
    if n < 2:
        raise ValueError(f"patch size must be >= 2, got {n}")
    if rows < 1 or cols < 1:
        raise ValueError(f"image size must be positive, got {rows}x{cols}")
    out = []
    for top in range(0, rows, n):
        for left in range(0, cols, n):
            out.append(PatchCoords(top, left, min(n, rows - top), min(n, cols - left)))
    return out


def group_by_shape(coords) -> dict[tuple[int, int], list[int]]:
    """Indices of the patches of each (height, width), in first-seen order."""
    groups: dict[tuple[int, int], list[int]] = {}
    for i, pc in enumerate(coords):
        groups.setdefault((pc.height, pc.width), []).append(i)
    return groups
