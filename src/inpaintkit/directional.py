"""Directional inpainting: per-patch diffusion with orientation-matched kernels.

Pipeline: run a regular diamond-kernel diffusion pass, started from the
mean of the known pixels, to get a first estimate, estimate an
orientation angle for every patch of that estimate, build the patch
grid, which rotates the diagonal kernel to all the angles in one call,
then re-diffuse every patch with its own kernel, one window stack per
patch shape, and write the patch interiors back. Patch runs read their
surroundings from the estimate, never from concurrently updated
neighbours, so the output does not depend on patch evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import as_image, as_int, group_by_shape, require_same_shape, split_into_patches
from .diffusion import DiffusionConfig, DiffusionResult, _solve_windows, diffuse
from .directionality import patch_angles
from .kernels import diamond_kernel, rotate_kernel


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """The n-by-n tiling of an image, with one angle and one kernel per patch.

    shape is the image's (rows, cols), held as two ints, patch_size the n
    it is tiled with, and angles the (P,) patch angles in degrees, held
    as a read-only array. coords and kernels are not arguments: coords is
    the read-only (P, 4) array split_into_patches(*shape, patch_size) of
    (top, left, height, width) rows, and kernels the read-only (P, 3, 3)
    rotate_kernel(angles), which refuses a NaN or infinite angle. These
    kernels are what the patch pass solves, byte for byte.
    """

    shape: tuple[int, int]
    patch_size: int
    angles: np.ndarray
    coords: np.ndarray = field(init=False, repr=False)
    kernels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows, cols = self.shape
        object.__setattr__(self, "shape", (as_int(rows, "rows"), as_int(cols, "cols")))
        object.__setattr__(self, "coords", split_into_patches(*self.shape, self.patch_size))
        angles = np.array(self.angles, dtype=np.float64)
        for name, value in (("angles", angles), ("kernels", rotate_kernel(angles))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        p = len(self.coords)
        if angles.shape != (p,):
            raise ValueError(f"{p} patches take ({p},) angles, got {angles.shape}")

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class DirectionalResult:
    image: np.ndarray
    grid: PatchGrid
    estimate: DiffusionResult
    iterations: int  # estimate iterations plus all per-patch iterations
    final_delta: float  # largest final delta among the estimate and the patch runs
    converged: bool  # estimate and every patch met the threshold


def build_patch_grid(image, patch_size: int) -> PatchGrid:
    """Split an image into patches and measure each patch's angle; the grid derives the kernels."""
    img = as_image(image)
    coords = split_into_patches(img.shape[0], img.shape[1], patch_size)
    angles = np.empty(len(coords))
    for (h, w), idx in group_by_shape(coords).items():
        angles[idx] = patch_angles(sliding_window_view(img, (h, w))[coords[idx, 0], coords[idx, 1]])
    return PatchGrid(img.shape, patch_size, angles)


def diffuse_patches(base, mask, grid: PatchGrid, config: DiffusionConfig | None = None) -> DiffusionResult:
    """Re-diffuse every patch of `base` with its own kernel.

    Each patch is a window with a 1-pixel halo, replicate-padded where
    the image border clips it. Halo pixels and the patch's known pixels
    hold their `base` values; missing pixels start from theirs and
    converge to the patch kernel's fill. Only patch interiors are written
    back. Patches of one shape are solved as one stack. The grid tiles
    its image, so no pixel is written twice; a base whose shape is not
    grid.shape raises ValueError. Returns the engine's DiffusionResult:
    the iterations summed over the patches, the largest final delta, and
    converged when every patch met epsilon.
    """
    base = as_image(base)
    require_same_shape(base, grid, "base and grid")
    return _solve_windows(base, mask, grid.coords, grid.kernels, config)[0]


def inpaint_directional(
    damaged, mask, patch_size: int = 16, config: DiffusionConfig | None = None, callback=None
) -> DirectionalResult:
    """Two-pass directional inpainting.

    Runs regular diamond diffusion for an estimate, infers per-patch
    orientations from that estimate, then re-diffuses each patch with a
    kernel rotated to its angle. Known pixels pass through untouched.

    The estimate starts every missing pixel at the mean of the known
    pixels, so the placeholder values in damaged are never read and only
    the known pixels shape the result; a mask with no known pixel starts
    from the placeholders. diffuse itself still starts from the values it
    is given. The mean is taken after the finiteness check, so a NaN or
    infinite placeholder still raises ValueError.

    callback, if given, is passed to the estimate pass only and is called
    as callback(iteration, image) after each of its iterations, with a
    read-only view of the live iterate as in diffuse; the per-patch runs
    do not report progress.
    patch_size goes through split_into_patches before any work is done:
    one that is not an integer raises TypeError, one below 2 ValueError,
    and one past the image gives the result of patch_size=max(rows, cols).
    """
    patch_size = as_int(patch_size, "patch_size")
    split_into_patches(*as_image(damaged).shape, patch_size)
    estimate = diffuse(damaged, mask, diamond_kernel(), config, callback=callback, _warm_start=True)
    grid = build_patch_grid(estimate.image, patch_size)
    patched = diffuse_patches(estimate.image, mask, grid, config)
    return DirectionalResult(
        image=patched.image,
        grid=grid,
        estimate=estimate,
        iterations=estimate.iterations + patched.iterations,
        final_delta=max(estimate.final_delta, patched.final_delta),
        converged=estimate.converged and patched.converged,
    )


def render_directionality_overlay(img, grid: PatchGrid) -> np.ndarray:
    """Draw one white orientation segment per patch onto a copy of the image.

    Each segment passes through the patch centre at the patch's angle,
    with length 0.8 times the patch side. theta = 90 draws a horizontal
    segment and theta = 0 a vertical one, matching the direction the
    rotated kernel diffuses along. An image whose shape is not
    grid.shape raises ValueError.
    """
    out = as_image(img).copy()
    require_same_shape(out, grid, "image and grid")
    t = np.radians(grid.angles)
    dx, dy = -np.sin(t), np.cos(t)
    for (h, w), idx in group_by_shape(grid.coords).items():
        origins = grid.coords[idx, :2]
        half = 0.4 * min(h, w)
        s = np.linspace(-half, half, int(np.ceil(4.0 * half)))
        # (patches, samples) points, rounded half to even like round(); each
        # lies within 0.4 * min(h, w) of its patch centre, so inside its patch
        r = np.rint((origins[:, :1] + (h - 1) / 2.0) + s * dy[idx, None]).astype(np.intp)
        c = np.rint((origins[:, 1:] + (w - 1) / 2.0) + s * dx[idx, None]).astype(np.intp)
        out[r, c] = 1.0
    return out
