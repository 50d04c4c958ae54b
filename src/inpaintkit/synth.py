"""Deterministic synthetic grayscale test images.

Benchmark images combine oriented structure (stripes, rings, woven
zones) with smooth shading, all closed-form, so the evaluation corpus
needs no external files and never changes between runs. All generators
return float64 images in [0, 1].
"""

from __future__ import annotations

import numpy as np


def _coords(size: int):
    """Float row and column coordinates as a (size, 1) column and a (1, size) row that broadcast to (size, size)."""
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    return np.ogrid[0.0:size, 0.0:size]


def stripes(size: int, period: float, angle_deg: float, amplitude: float = 1.0, hardness: float = 0.0) -> np.ndarray:
    """Sinusoidal stripes running along angle_deg (0 = horizontal stripes).

    hardness in [0, 1) sharpens the profile toward a square wave by
    pushing the sinusoid through a scaled tanh; 0 keeps it sinusoidal.
    """
    yy, xx = _coords(size)
    t = np.radians(angle_deg)
    # phase varies across the stripes, i.e. perpendicular to their direction
    phase = (np.cos(t) * yy + np.sin(t) * xx) * (2.0 * np.pi / period)
    wave = np.sin(phase)
    if hardness > 0.0:
        gain = 1.0 / (1.0 - hardness)
        wave = np.tanh(gain * wave) / np.tanh(gain)
    return 0.5 + 0.5 * amplitude * wave


def rings(size: int, period: float) -> np.ndarray:
    """Concentric sinusoidal rings of amplitude 0.62 about the image centre; orientation varies smoothly with position."""
    yy, xx = _coords(size)
    center = (size - 1) / 2.0
    r = np.hypot(yy - center, xx - center)
    return 0.5 + 0.5 * 0.62 * np.sin(2.0 * np.pi * r / period)


def gradient(size: int, angle_deg: float = 30.0) -> np.ndarray:
    """Linear ramp from 0 to 1 along the given direction."""
    yy, xx = _coords(size)
    t = np.radians(angle_deg)
    g = np.cos(t) * yy + np.sin(t) * xx
    g -= g.min()
    peak = g.max()
    return g / peak if peak > 0 else np.zeros_like(g)


def blobs(size: int, centers, sigma: float, amplitude: float = 1.0) -> np.ndarray:
    """Sum of Gaussian bumps; centers are (row, col) pairs in [0, 1] units."""
    yy, xx = _coords(size)
    out = np.zeros((size, size))
    for cy, cx in centers:
        out += np.exp(-(((yy - cy * size) ** 2 + (xx - cx * size) ** 2) / (2.0 * sigma**2)))
    return amplitude * out


def woven_stripes(size: int, zone: float, angle_a: float, angle_b: float) -> np.ndarray:
    """Checkerboard of square zones alternating between two sinusoidal stripe angles, period 12 and amplitude 0.62.

    Orientation is locally clean but flips every `zone` pixels, so small
    analysis windows see one direction while windows straddling a zone
    boundary see a mix.
    """
    yy, xx = _coords(size)
    z = ((yy // zone).astype(int) + (xx // zone).astype(int)) % 2
    a = stripes(size, 12.0, angle_a, 0.62)
    b = stripes(size, 12.0, angle_b, 0.62)
    return np.where(z == 0, a, b)


def compose(*layers) -> np.ndarray:
    """Sum image layers and clip to [0, 1]."""
    total = layers[0].astype(np.float64, copy=True)
    for layer in layers[1:]:
        total = total + layer
    return np.clip(total, 0.0, 1.0)


def standard_suite(size: int = 512) -> dict[str, np.ndarray]:
    """Five deterministic oriented-texture benchmark images.

    Each image pairs a dominant oriented pattern with gentle smooth
    shading: strong structure along a local direction, plus the smooth
    intensity drift found in photographs. Fine isotropic texture is
    deliberately left out; it drowns the orientation statistics that the
    directional algorithm relies on.
    """
    half = 0.5
    shading = lambda ang: 0.25 * (gradient(size, ang) - half)  # noqa: E731
    bumps = blobs(size, [(0.3, 0.7), (0.75, 0.25)], sigma=size / 5.0, amplitude=0.22)
    zone = max(size * 48.0 / 512.0, 16.0)
    suite = {
        "stripes-horizontal": compose(
            stripes(size, period=14.0, angle_deg=0.0, amplitude=0.62, hardness=0.8),
            shading(60.0),
        ),
        "stripes-diagonal": compose(
            stripes(size, period=16.0, angle_deg=45.0, amplitude=0.62),
            bumps - bumps.mean(),
        ),
        "weave-axis": compose(
            woven_stripes(size, zone, 0.0, 90.0),
            shading(150.0),
        ),
        "weave-diagonal": compose(
            woven_stripes(size, zone, 45.0, 135.0),
            shading(20.0),
        ),
        "rings": compose(
            rings(size, period=17.0),
            bumps - bumps.mean(),
        ),
    }
    return suite
