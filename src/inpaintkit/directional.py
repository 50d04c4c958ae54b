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

from .core import as_image, as_int, as_real_array, group_by_shape, require_same_shape, split_into_patches
from .diffusion import DiffusionConfig, DiffusionResult, _solve_windows, diffuse
from .directionality import patch_angles
from .kernels import diamond_kernel, rotate_kernel


@dataclass(frozen=True, eq=False)
class PatchGrid:
    """The n-by-n tiling of an image, with one angle and one kernel per patch.

    shape is the image's (rows, cols) and patch_size the n asked for,
    each held as the int core.as_int returns: a size that is not an
    integer raises TypeError, and rows or cols below 1 or a patch_size
    below 2 ValueError. A patch_size past the image tiles it as one
    patch. angles are the (P,) patch angles in degrees, held as a
    read-only array. coords and kernels are not arguments: coords is the
    read-only (P, 4) array split_into_patches(*shape, patch_size) of
    (top, left, height, width) rows, and kernels the read-only (P, 3, 3)
    rotate_kernel(angles). Complex angles, or angles of any shape but
    (P,), raise ValueError before any kernel is rotated; rotate_kernel
    then refuses a NaN or infinite angle. These kernels are what the
    patch pass solves, byte for byte.
    """

    shape: tuple[int, int]
    patch_size: int
    angles: np.ndarray
    coords: np.ndarray = field(init=False, repr=False)
    kernels: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows, cols = self.shape
        object.__setattr__(self, "shape", (as_int(rows, "rows", 1), as_int(cols, "cols", 1)))
        object.__setattr__(self, "patch_size", as_int(self.patch_size, "patch size", 2))
        object.__setattr__(self, "coords", split_into_patches(*self.shape, self.patch_size))
        angles = np.array(as_real_array(self.angles, "angle"))
        p = len(self.coords)
        if angles.shape != (p,):
            raise ValueError(f"{p} patches take ({p},) angles, got {angles.shape}")
        for name, value in (("angles", angles), ("kernels", rotate_kernel(angles))):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True, eq=False)
class DirectionalResult:
    """The two solves of inpaint_directional and the grid between them.

    estimate is the diamond-kernel solve of the whole image, grid the
    patch angles and kernels measured on its image, and patches the
    per-patch re-diffusion of that image, whose image is the output.
    The totals are derived from the two solves: iterations is their sum,
    final_delta the larger of their final deltas, and converged holds
    when both met epsilon. Each solve keeps its own counts, so
    patches.region_iterations and patches.region_deltas are in grid
    order, beside grid.angles. Results compare and hash by identity.
    """

    grid: PatchGrid
    estimate: DiffusionResult
    patches: DiffusionResult

    image = property(lambda self: self.patches.image)
    iterations = property(lambda self: self.estimate.iterations + self.patches.iterations)
    final_delta = property(lambda self: max(self.estimate.final_delta, self.patches.final_delta))
    converged = property(lambda self: self.estimate.converged and self.patches.converged)


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
    grid.shape raises ValueError. Returns the engine's DiffusionResult,
    with one region per patch in grid order: the iterations sum over the
    patches, final_delta is the largest, and converged holds when every
    patch met epsilon.
    """
    base = as_image(base)
    require_same_shape(base, grid, "base and grid")
    return _solve_windows(base, mask, grid.coords, grid.kernels, config)


def inpaint_directional(
    damaged, mask, patch_size: int = 16, config: DiffusionConfig | None = None, callback=None
) -> DirectionalResult:
    """Two-pass directional inpainting.

    Runs regular diamond diffusion for an estimate, infers per-patch
    orientations from that estimate, then re-diffuses each patch with a
    kernel rotated to its angle. Known pixels pass through untouched.

    The estimate is diffuse's run, which starts every missing pixel at
    the mean of the known pixels, so the placeholder values in damaged
    are never read and only the known pixels shape the result; a mask
    with no known pixel starts from the placeholders. The mean is taken
    after the finiteness check, so a NaN or infinite placeholder still
    raises ValueError.

    callback, if given, is passed to the estimate pass only and is called
    as callback(iteration, image) after each of its iterations, with a
    read-only view of the live iterate as in diffuse; the per-patch runs
    do not report progress.
    patch_size goes through as_int before any work is done: one that is
    not an integer raises TypeError, one below 2 ValueError, and one past
    the image gives the result of patch_size=max(rows, cols).
    """
    patch_size = as_int(patch_size, "patch_size", 2)
    estimate = diffuse(damaged, mask, diamond_kernel(), config, callback=callback)
    grid = build_patch_grid(estimate.image, patch_size)
    return DirectionalResult(grid, estimate, diffuse_patches(estimate.image, mask, grid, config))


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
