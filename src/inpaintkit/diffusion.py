"""Masked iterative diffusion: convolve, then restore the known pixels.

The loop runs until the Frobenius distance between consecutive iterates
drops to the configured threshold or the iteration cap is hit. Known
pixels are copied back from the input after every convolution, so they
are preserved bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_image, as_mask, require_same_shape
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


def convolve(img, kernel) -> np.ndarray:
    """Correlate an image with a 3x3 kernel under replicate padding.

    No kernel flip is applied; for the kernels used here the distinction
    is unobservable because their weight patterns are point symmetric.
    """
    img = as_image(img)
    k = np.asarray(kernel, dtype=np.float64)
    if k.shape != (3, 3):
        raise ValueError(f"expected a 3x3 kernel, got shape {k.shape}")
    rows, cols = img.shape
    padded = np.pad(img, 1, mode="edge")
    out = np.zeros_like(img)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            w = k[dr + 1, dc + 1]
            if w != 0.0:
                out += w * padded[1 + dr : 1 + dr + rows, 1 + dc : 1 + dc + cols]
    return out


def diffuse(damaged, mask, kernel, config: DiffusionConfig | None = None, callback=None) -> DiffusionResult:
    """Fill the missing pixels of an image by repeated kernel averaging.

    Args:
        damaged: image whose mask==0 pixels hold placeholder values.
        mask: 1 = known pixel (held fixed), 0 = missing.
        kernel: 3x3 non-negative weights; renormalized here defensively.
        config: convergence threshold and iteration cap.
        callback: optional hook called as callback(iteration, image) after
            every update, with the current iterate. Treat the image as
            read-only.

    Returns:
        DiffusionResult with the reconstruction, the number of iterations
        run, the last Frobenius delta, and whether the threshold was met.

    Raises:
        ValueError: on a shape mismatch, a non-binary mask, or any NaN or
            infinite pixel, known or missing.
    """
    damaged = as_image(damaged)
    mask = as_mask(mask)
    require_same_shape(damaged, mask, "image and mask")
    # checked once here, not in as_image, which convolve calls every iteration
    bad = damaged.size - int(np.count_nonzero(np.isfinite(damaged)))
    if bad:
        raise ValueError(f"image has {bad} non-finite pixel(s); NaN and inf are not valid intensities")
    cfg = config if config is not None else DiffusionConfig()
    k = normalize(kernel)

    original = damaged
    known = mask == 1
    cur = damaged.copy()
    # first delta compares against the all-zero previous iterate
    delta = float(np.sqrt(np.sum(cur * cur)))
    iterations = 0
    while delta > cfg.epsilon and iterations < cfg.max_iters:
        prev = cur
        cur = np.where(known, original, convolve(cur, k))
        iterations += 1
        diff = cur - prev
        delta = float(np.sqrt(np.sum(diff * diff)))
        if callback is not None:
            callback(iterations, cur)
    return DiffusionResult(cur, iterations, delta, delta <= cfg.epsilon)
