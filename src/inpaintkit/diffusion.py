"""Masked Jacobi diffusion on stacks of equal-shape windows.

A window is a region of the image inside a 1-cell ring, gathered from
the image with the ring clamped into it. Ring sides outside the image
are ghost cells that copy the region's edge before every step
(replicate padding); the other ring cells are a halo held at the
image's values. A step replaces every missing pixel by the kernel
sum over its 3x3 neighbourhood and never writes a known one, so known
pixels are preserved bit for bit. Only the missing cells of windows that
are still running are computed: a window that has stopped drops out of
the step, so finished windows cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import as_image, as_int, as_mask, as_real, group_by_shape, require_finite, require_same_shape
from .kernels import normalize


@dataclass(frozen=True)
class DiffusionConfig:
    epsilon: float = 1e-3
    max_iters: int = 10_000

    def __post_init__(self):
        object.__setattr__(self, "max_iters", as_int(self.max_iters, "max_iters", 1))
        object.__setattr__(self, "epsilon", as_real(self.epsilon, "epsilon", lambda e: 0.0 <= e < np.inf, "finite and >= 0"))


@dataclass(frozen=True, eq=False)
class DiffusionResult:
    """One solve as the engine measured it; its totals are derived, not stored.

    image is the reconstruction. region_iterations (int64) and
    region_deltas (float64) hold each region's step count and last
    Frobenius delta, in the order of the regions the solve was given,
    read-only as the engine hands them out; a region without missing
    pixels takes no step and reports delta 0. epsilon is the threshold
    the solve was held to. iterations is the steps summed over the
    regions, final_delta the largest region delta, and converged holds
    when every region delta is at most epsilon. Results compare and hash
    by identity, as a PatchGrid does.
    """

    image: np.ndarray
    region_iterations: np.ndarray
    region_deltas: np.ndarray
    epsilon: float

    iterations = property(lambda self: int(self.region_iterations.sum()))
    final_delta = property(lambda self: float(self.region_deltas.max()))
    converged = property(lambda self: bool((self.region_deltas <= self.epsilon).all()))


def diffuse(damaged, mask, kernel, config: DiffusionConfig | None = None, callback=None) -> DiffusionResult:
    """Fill the missing pixels of an image by repeated kernel averaging.

    The image is one window whose four ring sides are ghost cells. A run
    with a missing pixel takes at least one step and stops once a step
    moves the image by at most epsilon; a run without one takes none.

    Args:
        damaged: image whose mask==0 pixels hold placeholder values. They
            must be finite, but are not read when any pixel is known: every
            missing pixel then starts at the mean of the known pixels. A
            mask with no known pixel starts from the placeholders.
        mask: 1 = known pixel (held fixed), 0 = missing.
        kernel: 3x3 non-negative weights; checked and normalized once, here.
        config: convergence threshold and iteration cap.
        callback: optional hook called as callback(iteration, image) after
            every update, with a read-only view of the live iterate that is
            valid until it returns; a caller that keeps an iterate copies it.

    Returns:
        The engine's DiffusionResult for one region, the whole image: the
        reconstruction, with iterations, final_delta and converged
        derived from the region's step count, last Frobenius delta and
        the threshold.

    Raises:
        ValueError: the kernel is checked first: one whose shape is not
            (3, 3), then normalize's refusals (a negative or non-finite
            weight, a degenerate sum); then the image and the mask: a
            shape mismatch, a non-binary mask, or any NaN or infinite
            pixel, known or missing.
    """
    if np.shape(kernel) != (3, 3):
        raise ValueError(f"expected a 3x3 kernel, got one of shape {np.shape(kernel)}")
    kernels = normalize(kernel)[None]
    damaged = as_image(damaged)
    on_step = None if callback is None else (lambda counts, inner: callback(int(counts[0]), inner[0]))
    return _solve_windows(damaged, mask, np.array([[0, 0, *damaged.shape]]), kernels, config, on_step, True)


def _solve_windows(image, mask, coords, kernels, config: DiffusionConfig | None = None, on_step=None, warm_start=False):
    """Masked Jacobi on regions of an image, one 3x3 kernel per region.

    coords is a (P, 4) array of (top, left, height, width) rows: one
    region or more, inside the image and disjoint. That is not checked
    here; diffuse passes the whole image and diffuse_patches a tiling.
    kernels is the (P, 3, 3) float64 array of their kernels, solved as
    given: not checked, coerced or normalized, as coords is trusted.
    diffuse passes its kernel through normalize, and diffuse_patches the
    grid's kernels, which rotate_kernel has already passed through it.
    Both pass an image already coerced by as_image; it is not coerced
    again here.
    Checks the image and the mask once, then steps the windows of each
    region shape together as an (n, h+2, w+2) stack, in buffers
    allocated once, the largest stack by cell count first. The stack is one gather from
    the image itself, with the ring's rows and columns clamped into it,
    so no padded copy of the image is made; ghost cells are refreshed
    before every step. The missing cells have one form: a list of flat
    stack indices in window-major order, so each tap is a gather at a
    constant offset; the boolean stack they are listed and counted from
    is dropped before the first step. With warm_start, which diffuse
    passes and diffuse_patches does not, as it starts from its base, the
    mean of the known pixels is scattered through that list, so a window
    whose ring is all ghost, as diffuse's is, never reads a placeholder;
    a mask with no known pixel keeps them. A window steps while it has
    missing cells, its last step moved it by more than epsilon and it is
    under the cap; a window without missing cells takes no step and
    reports delta 0. A step computes the missing cells only, from the
    cells' current values x kept beside the stack as one vector, and
    scatters the new values into the stack; the per-window deltas are
    segment sums over each window's run of cells. A running window is
    held as its region id, so a step updates the per-region counts and
    deltas in place, and beside it only its cell count is kept: a
    per-window weight is repeated by the counts where a per-cell one is
    needed, and the segment starts are the counts' running sums,
    recomputed only when windows drop out, whose cells are then dropped
    from the step. After every scatter x equals the stack at the cells
    bit for bit, so a compaction re-reads x from the stack through the
    shorter list instead of compacting it. on_step(counts, interiors),
    if given, is called after every step with the per-region counts and
    a read-only view of the stack's live interiors. The output image is
    a copy of the image, allocated at the first write-back once the
    per-cell state is freed, with every interior written back in one
    assignment per stack. Each stack is freed at its write-back, before
    the next one is gathered, so only the smaller stacks step beside the
    output image, in any region order. Returns the solve's
    DiffusionResult: the output image, the per-region iterations and
    final deltas in coords order, made read-only, and the epsilon they
    were held to, from which the result derives its totals.
    """
    mask = as_mask(mask)
    require_same_shape(image, mask, "image and mask")
    require_finite(image)
    # the largest stack first, so it steps before the output image is allocated
    groups = sorted(group_by_shape(coords).items(), key=lambda g: -len(g[1]) * (g[0][0] + 2) * (g[0][1] + 2))
    cfg = config if config is not None else DiffusionConfig()
    # taken after the finiteness check, so a non-finite placeholder raises instead of spreading
    fill = image[mask == 1].mean() if warm_start and mask.any() else None

    out = None  # allocated at the first write-back, so no output image is live while the largest stack steps
    iterations = np.zeros(len(coords), dtype=np.int64)
    deltas = np.zeros(len(coords))
    for (h, w), idx in groups:
        stride = w + 2
        tops, lefts = coords[idx, :2].T
        # the regions inside their rings, in one gather from the image: ring rows
        # and columns past it are clamped onto its edge, the replicate padding
        win = image[np.clip(tops[:, None] + np.arange(-1, h + 1), 0, image.shape[0] - 1)[:, :, None],
                    np.clip(lefts[:, None] + np.arange(-1, w + 1), 0, image.shape[1] - 1)[:, None, :]]
        free = np.zeros(win.shape, dtype=bool)  # missing interior cells
        free[:, 1:-1, 1:-1] = sliding_window_view(mask, (h, w))[tops, lefts] == 0
        ghost_top, ghost_bottom, ghost_left, ghost_right = (
            np.flatnonzero(g) for g in (tops == 0, tops + h == image.shape[0], lefts == 0, lefts + w == image.shape[1])
        )
        # the missing cells, as flat indices shifted back by the (0, 0) tap's
        # offset: tap (r, c) gathers flat[r * stride + c:][cells]
        cells = np.flatnonzero(free)
        cells -= stride + 1
        sizes = np.count_nonzero(free, axis=(1, 2))
        del free
        # the running windows, as region ids in stack order, and their cell
        # counts; a window without missing cells never runs
        owners, sizes = idx[sizes > 0], sizes[sizes > 0]
        starts = np.cumsum(sizes) - sizes
        # row-major taps, the order the sum is accumulated in; a tap is skipped
        # when it is zero in every kernel of the stack, is a scalar when they
        # all agree and otherwise the kernel column, indexed by region id
        taps = []
        for r in range(3):
            for c in range(3):
                weight = kernels[idx, r, c]
                if weight.any():
                    taps.append((r * stride + c, weight[0] if (weight == weight[0]).all() else kernels[:, r, c]))
        flat = win.reshape(-1)
        centre = flat[stride + 1 :]
        inner = win[:, 1:-1, 1:-1]
        inner.flags.writeable = False  # on_step may read the live interiors, never write them
        acc, x, tmp = np.empty((3, len(cells)))
        if fill is not None:
            centre[cells] = fill
        np.take(centre, cells, out=x, mode="clip")  # the cells' current values
        while len(owners):
            # ghost sides copy the interior edge; full-length copies also fill the corners
            win[ghost_top, 0] = win[ghost_top, 1]
            win[ghost_bottom, -1] = win[ghost_bottom, -2]
            win[ghost_left, :, 0] = win[ghost_left, :, 1]
            win[ghost_right, :, -1] = win[ghost_right, :, -2]
            # every index is in range; mode="clip" lets take write straight into out
            m = len(cells)
            for j, (shift, weight) in enumerate(taps):
                term = tmp[:m] if j else acc[:m]
                np.take(flat[shift:], cells, out=term, mode="clip")
                term *= np.repeat(weight[owners], sizes) if np.ndim(weight) else weight
                if j:
                    acc[:m] += term
            step = np.subtract(acc[:m], x[:m], out=tmp[:m])
            step *= step
            deltas[owners] = np.sqrt(np.add.reduceat(step, starts))
            iterations[owners] += 1
            centre[cells] = acc[:m]
            acc, x = x, acc
            if on_step is not None:
                on_step(iterations, inner)
            alive = (deltas[owners] > cfg.epsilon) & (iterations[owners] < cfg.max_iters)
            if not alive.all():
                cells = cells[np.repeat(alive, sizes)]
                # x[:m] equals centre[cells] after every scatter, so the kept cells re-read it
                np.take(centre, cells, out=x[: len(cells)], mode="clip")
                owners, sizes = owners[alive], sizes[alive]
                starts = np.cumsum(sizes) - sizes
        cells = acc = x = tmp = term = step = None  # frees the per-cell state before out is allocated
        # window (t, l) of out is the region at (t, l) itself
        out = image.copy() if out is None else out
        sliding_window_view(out, (h, w), writeable=True)[tops, lefts] = inner
        win = flat = centre = inner = None  # frees the stack before the next one is gathered
    iterations.flags.writeable = deltas.flags.writeable = False
    return DiffusionResult(out, iterations, deltas, cfg.epsilon)

