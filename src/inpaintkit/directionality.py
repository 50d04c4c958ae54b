"""Per-patch orientation estimate built from circular shift differences.

The dominant orientation of a patch is inferred by comparing the patch
against circularly shifted copies of itself. Horizontal neighbour
differences (v) respond to vertical stripes, vertical neighbour
differences (h) to horizontal stripes, and the diagonal difference
separates the two slants.
"""

from __future__ import annotations

import numpy as np

from .core import as_real_array, require_finite

D_THRESHOLD = 0.6


def patch_angles(stack) -> np.ndarray:
    """The dominant orientation angle of every patch of a (P, H, W) stack, in degrees.

    With the circular shift sums v = sum |P(r, c) - P(r, c + 1)|,
    h = sum |P(r, c) - P(r + 1, c)| and diag = sum |P(r, c) - P(r + 1, c + 1)|,
    theta1 = 90 (h + 1) / (h + v + 1) and d = (1 + diag) / (1 + v + h);
    theta = -90 + 90 d + theta1 when d > D_THRESHOLD, else -theta1.
    theta lands in (-90, 90]; a theta that rounding lifts past 90 wraps to
    just above -90. A constant patch has v = h = 0 and comes out
    at theta = 90 by construction; it is not special-cased because the
    rotated kernel stays a valid averaging kernel for any angle.

    The three sums are taken in turn in one reused C-ordered (P, H, W)
    buffer: each circular difference is written into it by slices (a
    shift's wrapped row or column is its own block), made absolute in
    place and summed per patch, so a call allocates one stack-sized
    array beyond its input. An empty stack gives an empty result.

    Raises ValueError on complex values, on a NaN or infinite entry,
    with the count of them, and on an input that is not 3-D.

    Worked examples, exact up to float rounding:
      * constant patch: v = h = 0, d = 1, theta = 90.
      * equal-structure patch, bands of width 2 across the anti-diagonal
        (P(i, j) = [(i + j) mod 4 < 2]): v = h = s, diag = 2s, so d = 1
        and theta = theta1 = 90 (s + 1) / (2 s + 1).
      * zero-diagonal patch, the unit checkerboard: v = h = s, diag = 0,
        so d < 0.6 and theta = -theta1.
    """
    stack = require_finite(as_real_array(stack, "patch stack"))
    if stack.ndim != 3:
        raise ValueError(f"expected a (P, H, W) stack of patches, got shape {stack.shape}")
    n, rows, cols = stack.shape
    diff = np.empty(stack.shape)  # C order whatever the stack's, so the reshape below is a view

    def shift_sums(dx: int, dy: int) -> np.ndarray:
        # diff = stack - np.roll(stack, (-dy, -dx), axis=(1, 2)), one block per pair of row and column slices
        for r, src_r in _wrap_slices(rows, dy):
            for c, src_c in _wrap_slices(cols, dx):
                np.subtract(stack[:, r, c], stack[:, src_r, src_c], out=diff[:, r, c])
        np.abs(diff, out=diff)
        return diff.reshape(n, rows * cols).sum(axis=1)

    v = shift_sums(1, 0)
    h = shift_sums(0, 1)
    diag = shift_sums(1, 1)
    theta1 = 90.0 * (h + 1.0) / (h + v + 1.0)
    d = (1.0 + diag) / (1.0 + v + h)
    theta = np.where(d > D_THRESHOLD, -90.0 + (90.0 * d + theta1), -90.0 + (90.0 - theta1))
    # orientation is 180-degree periodic; reduce into (-90, 90]. theta1 lies in
    # (0, 90] and d in (0, 1] (diag <= v + h), so theta starts in (-90, 90] up
    # to rounding. Rounding can lift theta1 and d one step past 90 and 1, and
    # theta past 90, so that end wraps. Reaching -90 would take d <= 0.6 with
    # theta1 rounded up to 90, that is v within a few ulps of 0 against h + 1;
    # but diag >= h - v then puts d at about 1, so that end needs no wrap
    return np.where(theta > 90.0, theta - 180.0, theta)


def _wrap_slices(n: int, shift: int) -> tuple[tuple[slice, slice], ...]:
    """(target, source) slice pairs that pair index i with (i + shift) mod n, for 0 <= shift <= n.

    The second pair is the wrap-around; it is empty when shift is 0.
    """
    return ((slice(0, n - shift), slice(shift, n)), (slice(n - shift, n), slice(0, shift)))
