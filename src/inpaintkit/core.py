"""Image and mask primitives shared by every other module.

Images are 2-D float64 arrays with intensities in [0, 1]. Masks are 2-D
{0, 1} arrays of the same shape, where 1 marks a known pixel and 0 a
missing one. Functions treat their inputs as read-only and return new
arrays.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np


def as_real_array(values, what: str, dtype=np.float64) -> np.ndarray:
    """Coerce an array argument to dtype, without copying when possible; complex values raise ValueError naming it.

    This is the one coercion of an array argument. It never takes the
    real part: a complex input is refused, not cast with only a
    ComplexWarning. dtype None keeps the input's own real dtype, as a
    mask does.
    """
    if np.iscomplexobj(values):
        raise ValueError(f"expected a real {what}, got complex values of dtype {np.asarray(values).dtype}")
    return np.asarray(values, dtype=dtype)


def require(ok, message: str) -> None:
    """Raise ValueError(message.format(count)) when any entry of ok is False, count being how many are.

    This is the one count-and-refuse check: a message that names the
    count holds one {} field.
    """
    bad = np.size(ok) - int(np.count_nonzero(ok))
    if bad:
        raise ValueError(message.format(bad))


def as_image(values) -> np.ndarray:
    """Coerce to a non-empty 2-D float64 array, without copying when possible; complex values raise ValueError."""
    img = as_real_array(values, "image")
    if img.ndim != 2 or img.size == 0:
        raise ValueError(f"expected a non-empty 2-D image, got shape {np.shape(values)}")
    return img


def as_mask(values) -> np.ndarray:
    """Coerce to a non-empty 2-D uint8 mask and check every bit is 0 or 1; complex values raise ValueError."""
    m = as_real_array(values, "mask", dtype=None)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"expected a non-empty 2-D mask, got shape {np.shape(values)}")
    require((m == 0) | (m == 1), "mask values must be 0 (missing) or 1 (known)")
    return m.astype(np.uint8, copy=False)


def as_int(value, name: str, least: int) -> int:
    """Return an integer argument as an int, refusing it by name when it is not one or is below least.

    This is the one conversion and the one lower bound of an integer
    argument: a float or other non-integer raises TypeError, and a value
    below least raises ValueError naming the argument and its bound. A
    numpy integer comes back as a plain int.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def as_real(value, name: str, ok=np.isfinite, wording: str = "finite") -> float:
    """Return a real scalar argument as a float, refusing it by name when it is not one or breaks its rule.

    This is the one conversion and the one rule check of a real scalar
    argument: a value that is not a numbers.Real (a string, None, a
    complex number, a sequence or any ndarray, 0-d included) raises
    TypeError, and a value for which ok is False raises ValueError from
    require, "<name> must be <wording>, got <value>". A numpy real
    scalar comes back as a float.
    """
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    require(ok(value), f"{name} must be {wording}, got {value!r}")
    return float(value)


def require_finite(img: np.ndarray) -> np.ndarray:
    """Return img; a NaN or infinite pixel raises ValueError, with the count of them."""
    require(np.isfinite(img), "image has {} non-finite pixel(s); NaN and inf are not valid intensities")
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
    max(rows, cols): the one patch that covers the whole image. Each size
    goes through as_int: one that is not an integer raises TypeError, and
    rows or cols below 1 or n below 2 raises ValueError, naming it.
    """
    rows, cols, n = as_int(rows, "rows", 1), as_int(cols, "cols", 1), as_int(n, "patch size", 2)
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
