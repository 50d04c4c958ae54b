"""Per-patch orientation estimate built from circular shift differences.

The dominant orientation of a patch is inferred by comparing the patch
against circularly shifted copies of itself. Horizontal neighbour
differences (v) respond to vertical stripes, vertical neighbour
differences (h) to horizontal stripes, and the diagonal difference
separates the two slants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_image

D_THRESHOLD = 0.6


@dataclass(frozen=True)
class PatchMetrics:
    v: float
    h: float
    d: float
    theta1: float
    theta: float


def shift_diff(patch, dx: int, dy: int) -> float:
    """Sum of |P(r, c) - P((r + dy) mod H, (c + dx) mod W)| over the patch.

    dx shifts columns, dy shifts rows; both wrap circularly.
    """
    return float(_shift_sums(as_image(patch)[None], dx, dy)[0])


def patch_metrics(patch) -> PatchMetrics:
    """Estimate the dominant orientation angle of a patch, in degrees.

    theta lands in (-90, 90]. A constant patch has v = h = 0 and comes out
    at theta = 90 by construction; it is not special-cased because the
    rotated kernel stays a valid averaging kernel for any angle.

    Worked examples, exact up to float rounding:
      * constant patch: v = h = 0, d = 1, theta = 90.
      * equal-structure patch, bands of width 2 across the anti-diagonal
        (P(i, j) = [(i + j) mod 4 < 2]): v = h = s, diag = 2s, so d = 1
        and theta = theta1 = 90 (s + 1) / (2 s + 1).
      * zero-diagonal patch, the unit checkerboard: v = h = s, diag = 0,
        so d < 0.6 and theta = -theta1.
    """
    return PatchMetrics(*(float(x[0]) for x in _metrics(as_image(patch)[None])))


def patch_angles(stack) -> np.ndarray:
    """The patch_metrics angle of every patch of a (P, H, W) stack, in one pass."""
    return _metrics(np.asarray(stack, dtype=np.float64))[-1]


def _shift_sums(stack: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """shift_diff of every patch of a (P, H, W) stack."""
    shifted = np.roll(stack, shift=(-dy, -dx), axis=(1, 2))
    return np.abs(stack - shifted).reshape(len(stack), -1).sum(axis=1)


def _metrics(stack: np.ndarray):
    """(v, h, d, theta1, theta) of every patch of a (P, H, W) stack."""
    v = _shift_sums(stack, 1, 0)
    h = _shift_sums(stack, 0, 1)
    diag = _shift_sums(stack, 1, 1)
    theta1 = 90.0 * (h + 1.0) / (h + v + 1.0)
    d = (1.0 + diag) / (1.0 + v + h)
    theta = np.where(d > D_THRESHOLD, -90.0 + (90.0 * d + theta1), -90.0 + (90.0 - theta1))
    # orientation is 180-degree periodic; reduce into (-90, 90]. theta1 lies
    # in (0, 90] and d in (0, 1] (diag <= v + h), so theta starts in
    # [-90, 90] up to rounding and one turn either way is enough
    theta = np.where(theta > 90.0, theta - 180.0, theta)
    theta = np.where(theta <= -90.0, theta + 180.0, theta)
    return v, h, d, theta1, theta
