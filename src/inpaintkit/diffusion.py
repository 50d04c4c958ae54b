"""Masked Jacobi diffusion on stacks of equal-shape windows.

A window is a region of the image inside a 1-cell ring. Ring sides
outside the image are ghost cells that copy the region's edge before
every step (replicate padding); the other ring cells are a halo held at
the image's values. A step replaces every missing pixel by the kernel
sum over its 3x3 neighbourhood and never writes a known one, so known
pixels are preserved bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PatchCoords, as_image, as_mask, require_same_shape
from .kernels import normalize


@dataclass(frozen=True)
class DiffusionConfig:
    epsilon: float = 1e-3
    max_iters: int = 10_000

    def __post_init__(self):
        if not (self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class DiffusionResult:
    image: np.ndarray
    iterations: int
    final_delta: float
    converged: bool


def diffuse(damaged, mask, kernel, config: DiffusionConfig | None = None, callback=None) -> DiffusionResult:
    """Fill the missing pixels of an image by repeated kernel averaging.

    The image is one window whose four ring sides are ghost cells.

    Args:
        damaged: image whose mask==0 pixels hold placeholder values.
        mask: 1 = known pixel (held fixed), 0 = missing.
        kernel: 3x3 non-negative weights; renormalized here defensively.
        config: convergence threshold and iteration cap.
        callback: optional hook called as callback(iteration, image) after
            every update, with a copy of the current iterate.

    Returns:
        DiffusionResult with the reconstruction, the number of iterations
        run, the last Frobenius delta, and whether the threshold was met.

    Raises:
        ValueError: on a shape mismatch, a non-binary mask, a kernel that
            is not 3x3, or any NaN or infinite pixel, known or missing.
    """
    damaged = as_image(damaged)
    on_step = None if callback is None else (lambda counts, inner: callback(int(counts[0]), inner[0].copy()))
    image, iterations, deltas, converged = _solve_windows(
        damaged, mask, [PatchCoords(0, 0, *damaged.shape)], [kernel], config, on_step
    )
    return DiffusionResult(image, int(iterations[0]), float(deltas[0]), bool(converged[0]))


def _solve_windows(image, mask, coords, kernels, config: DiffusionConfig | None = None, on_step=None):
    """Masked Jacobi on regions of an image, one 3x3 kernel per region.

    Validates its inputs once, then steps the windows of each region
    shape together as an (n, h+2, w+2) stack, in buffers allocated once.
    A window's first delta is the norm of its ring-extended window
    clipped to the image. Each window stops on its own threshold or cap
    and is then frozen. on_step(counts, interiors), if given, is called
    after every step. Returns the image with every interior written back,
    and per region the iterations, final deltas and converged flags.
    """
    image = as_image(image)
    mask = as_mask(mask)
    require_same_shape(image, mask, "image and mask")
    bad = image.size - int(np.count_nonzero(np.isfinite(image)))
    if bad:
        raise ValueError(f"image has {bad} non-finite pixel(s); NaN and inf are not valid intensities")
    k = np.asarray(kernels, dtype=np.float64)
    if k.shape[1:] != (3, 3):
        raise ValueError(f"expected one 3x3 kernel per region, got kernels of shape {k.shape}")
    k = normalize(k)
    cfg = config if config is not None else DiffusionConfig()

    out = image.copy()
    iterations = np.zeros(len(coords), dtype=np.int64)
    deltas = np.zeros(len(coords))
    groups: dict[tuple, list[int]] = {}
    for i, pc in enumerate(coords):
        groups.setdefault((pc.height, pc.width), []).append(i)
    for (h, w), idx in groups.items():
        win = np.empty((len(idx), h + 2, w + 2))
        free = np.empty((len(idx), h, w), dtype=bool)  # missing pixels
        ghost = np.empty((4, len(idx), 1), dtype=bool)  # top, bottom, left, right
        for j, i in enumerate(idx):
            pc = coords[i]
            ghost[:, j, 0] = (pc.top == 0, pc.top + h == image.shape[0], pc.left == 0, pc.left + w == image.shape[1])
            top, left = int(ghost[0, j, 0]), int(ghost[2, j, 0])  # 1 where the ring side is a ghost
            halo = image[pc.top - 1 + top : pc.top + h + 1, pc.left - 1 + left : pc.left + w + 1]
            deltas[i] = np.sqrt(np.sum(halo * halo))
            win[j, top : top + halo.shape[0], left : left + halo.shape[1]] = halo
            free[j] = mask[pc.row_slice, pc.col_slice] == 0
        inner = win[:, 1:-1, 1:-1]
        acc, tmp = np.empty((2, *free.shape))
        # row-major taps, the order the sum is accumulated in; all-zero taps are skipped
        taps = [(r, c, k[idx, r, c, None, None]) for r in range(3) for c in range(3) if k[idx, r, c].any()]
        delta, count = deltas[idx], iterations[idx]
        while (running := (delta > cfg.epsilon) & (count < cfg.max_iters)).any():
            # ghost sides copy the interior edge; full-length copies also fill the corners
            np.copyto(win[:, 0], win[:, 1], where=ghost[0])
            np.copyto(win[:, -1], win[:, -2], where=ghost[1])
            np.copyto(win[:, :, 0], win[:, :, 1], where=ghost[2])
            np.copyto(win[:, :, -1], win[:, :, -2], where=ghost[3])
            (r, c, weight), *rest = taps
            np.multiply(win[:, r : r + h, c : c + w], weight, out=acc)
            for r, c, weight in rest:
                acc += np.multiply(win[:, r : r + h, c : c + w], weight, out=tmp)
            moving = free & running[:, None, None]
            np.subtract(acc, inner, out=tmp)
            tmp *= moving
            tmp *= tmp
            delta[running] = np.sqrt(tmp.sum(axis=(1, 2)))[running]
            count += running
            np.copyto(inner, acc, where=moving)
            if on_step is not None:
                on_step(count, inner)
        deltas[idx], iterations[idx] = delta, count
        for j, i in enumerate(idx):
            out[coords[i].row_slice, coords[i].col_slice] = win[j, 1:-1, 1:-1]
    return out, iterations, deltas, deltas <= cfg.epsilon
