"""Diffusion kernels and the rotated directional kernel constructor."""

from __future__ import annotations

import numpy as np

from .core import as_real_array, require


def diamond_kernel() -> np.ndarray:
    """Isotropic 4-neighbour averaging kernel."""
    return np.array(
        [
            [0.00, 0.25, 0.00],
            [0.25, 0.00, 0.25],
            [0.00, 0.25, 0.00],
        ]
    )


def diag_kernel() -> np.ndarray:
    """Kernel whose weight concentrates on the main diagonal."""
    return np.array(
        [
            [0.38, 0.04, 0.04],
            [0.04, 0.00, 0.04],
            [0.04, 0.04, 0.38],
        ]
    )


def normalize(kernel) -> np.ndarray:
    """Check a kernel, or each kernel of a stack, and scale it so its weights sum to 1.

    This is the one check of a kernel's weights. It raises ValueError,
    in this order:
      1. on any negative or non-finite weight, with the count of them;
      2. on a sum of finite weights that overflows to infinity;
      3. on a sum of zero.
    The last two name a degenerate kernel. Complex weights raise
    ValueError before any of them.
    """
    k = as_real_array(kernel, "kernel")
    require(np.isfinite(k) & (k >= 0.0), "kernel has {} negative or non-finite weight(s); weights must be finite and >= 0")
    with np.errstate(over="ignore"):  # an overflowing sum is refused just below
        total = k.sum(axis=(-2, -1), keepdims=True)
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise ValueError("degenerate kernel: weights must sum to a finite positive value")
    return k / total


_CUBIC_A = -0.5  # Catmull-Rom
_ANGLES_PER_CHUNK = 4096  # bounds the bicubic temporaries, about 1.4 KB per angle


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    """Cubic convolution weight of every tap offset in t."""
    at = np.abs(t)
    near = ((_CUBIC_A + 2.0) * at - (_CUBIC_A + 3.0)) * at * at + 1.0
    far = (((at - 5.0) * at + 8.0) * at - 4.0) * _CUBIC_A
    return np.where(at <= 1.0, near, np.where(at < 2.0, far, 0.0))


def _bicubic(grid: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cubic convolution samples of a 2-D grid at continuous (x, y) arrays.

    x runs along columns and y along rows; integer coordinates hit grid
    cells exactly. Out-of-range taps are clamped to the nearest edge cell
    (replicate extension). The 16 taps are summed row by row, in the
    same order for every sample; the four column taps are weighed once.
    """
    bx, by = np.floor(x), np.floor(y)
    columns = [(_cubic_weights(x - ix), np.clip(ix, 0, grid.shape[1] - 1).astype(np.intp)) for ix in (bx - 1 + i for i in range(4))]
    total = np.zeros(np.broadcast(x, y).shape)
    for j in range(4):
        iy = by - 1 + j
        wy = _cubic_weights(y - iy)
        r = np.clip(iy, 0, grid.shape[0] - 1).astype(np.intp)
        for wx, c in columns:
            total += wy * wx * grid[r, c]
    return total


def rotate_kernel(theta_deg) -> np.ndarray:
    """Directional kernel for orientation angle theta, in degrees.

    Treats the diagonal kernel as a tiny image and rotates it by
    theta + 45 degrees about its centre, resampling each target cell from
    the source by bicubic interpolation (inverse mapping). Rotation
    applies the plain rotation matrix to (x=col, y=row) offsets; with the
    row axis pointing down that turns the picture clockwise on screen.
    The result goes through normalize, so the promise that no bicubic
    overshoot of this source falls below zero, which makes it a valid
    averaging kernel for every angle, is checked on every call. Angles
    180 degrees apart give the same kernel up to floating point noise. A
    scalar angle gives one (3, 3) kernel, an array of angles of shape S
    an S + (3, 3) stack, rotated at most 4,096 angles at a time into the
    preallocated output. Raises ValueError, before any work, on complex
    angles, and on NaN or infinite ones, with the count of them.
    """
    theta = as_real_array(theta_deg, "angle")
    require(np.isfinite(theta), "{} NaN or infinite angle(s); angles must be finite")
    out = np.empty(theta.shape + (3, 3))
    angles, kernels = theta.reshape(-1), out.reshape(-1, 3, 3)
    y, x = np.mgrid[-1:2, -1:2].astype(np.float64)
    for start in range(0, len(angles), _ANGLES_PER_CHUNK):
        stop = start + _ANGLES_PER_CHUNK
        angle = np.radians(angles[start:stop] + 45.0)[:, None, None]
        # inverse map: rotate each target offset by -angle back into the source
        cos_a, sin_a = np.cos(-angle), np.sin(-angle)
        sx = x * cos_a - y * sin_a
        sy = x * sin_a + y * cos_a
        kernels[start:stop] = normalize(_bicubic(diag_kernel(), 1.0 + sx, 1.0 + sy))
    return out
