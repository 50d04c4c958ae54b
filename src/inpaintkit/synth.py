"""Deterministic synthetic grayscale test images.

Benchmark images combine oriented structure (stripes, rings, woven
zones) with smooth shading, all closed-form, so the evaluation corpus
needs no external files and never changes between runs. All generators
return float64 images in [0, 1]. They refuse a scalar argument that is
not a real number with a TypeError, and a non-finite angle or centre, or
a period, zone, sigma or hardness out of its range, with a ValueError;
each names the argument.
"""

from __future__ import annotations

import numpy as np

from .core import as_int, as_real, as_real_array, require

AMPLITUDE = 0.62  # peak-to-peak height of the stripes and rings about 0.5, leaving room in [0, 1] for shading

# what a real argument must be, by name: a test that holds for a valid
# value, and its wording; an argument not named here, an angle, must be
# finite. A period below 2 aliases. sigma's square is taken
# in float64, where a huge sigma gives inf with its overflow warning silenced
_RULES = {
    "period": (lambda v: np.isfinite(v) and v >= 2, "finite and >= 2"),
    "zone": (lambda v: np.isfinite(v) and v >= 1, "finite and >= 1"),
    "sigma": (np.errstate(over="ignore")(lambda v: 0.0 < 2.0 * np.float64(v) ** 2 < np.inf), "such that 2 * sigma**2 is finite and > 0"),
    "hardness": (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


def _coords(size: int, **args):
    """Float row and column coordinates as a (size, 1) column and a (1, size) row that broadcast to (size, size).

    Every argument is checked before the coordinates are built. size goes through
    as_int: one that is not an integer raises TypeError, and one below 1
    ValueError, naming it. Then each real scalar argument in args goes
    through as_real with its rule in _RULES: the first that is not a real
    number raises TypeError, and the first that breaks its rule a
    ValueError that names the argument, its rule and its value.
    """
    size = as_int(size, "size", 1)
    for name, value in args.items():
        as_real(value, name, *_RULES.get(name, (np.isfinite, "finite")))
    return np.ogrid[0.0:size, 0.0:size]


def stripes(size: int, period: float, angle_deg: float, hardness: float = 0.0) -> np.ndarray:
    """Sinusoidal stripes in 0.5 +- AMPLITUDE / 2, running along one angle, angle_deg (0 = horizontal stripes).

    hardness in [0, 1) sharpens the profile toward a square wave by
    pushing the sinusoid through a scaled tanh; 0 keeps it sinusoidal.
    """
    yy, xx = _coords(size, period=period, angle_deg=angle_deg, hardness=hardness)
    t = np.radians(angle_deg)
    # phase varies across the stripes, i.e. perpendicular to their direction
    phase = (np.cos(t) * yy + np.sin(t) * xx) * (2.0 * np.pi / period)
    wave = np.sin(phase)
    if hardness > 0.0:
        gain = 1.0 / (1.0 - hardness)
        wave = np.tanh(gain * wave) / np.tanh(gain)
    return 0.5 + 0.5 * AMPLITUDE * wave


def rings(size: int, period: float) -> np.ndarray:
    """Concentric sinusoidal rings in 0.5 +- AMPLITUDE / 2 about the image centre; orientation varies smoothly with position."""
    yy, xx = _coords(size, period=period)
    center = (size - 1) / 2.0
    r = np.hypot(yy - center, xx - center)
    return 0.5 + 0.5 * AMPLITUDE * np.sin(2.0 * np.pi * r / period)


def gradient(size: int, angle_deg: float = 30.0) -> np.ndarray:
    """Linear ramp from 0 to 1 along the given direction."""
    yy, xx = _coords(size, angle_deg=angle_deg)
    t = np.radians(angle_deg)
    g = np.cos(t) * yy + np.sin(t) * xx
    g -= g.min()
    peak = g.max()
    return g / peak if peak > 0 else np.zeros_like(g)


def blobs(size: int, centers, sigma: float) -> np.ndarray:
    """Sum of unit-height Gaussian bumps; centers are (row, col) pairs in [0, 1] units.

    centers goes through as_real_array, so complex centers raise
    ValueError, and a non-finite centre raises a ValueError naming
    centers.
    """
    require(np.isfinite(as_real_array(centers, "centers")), f"centers must be finite, got {centers!r}")
    yy, xx = _coords(size, sigma=sigma)
    out = np.zeros((size, size))
    for cy, cx in centers:
        out += np.exp(-(((yy - cy * size) ** 2 + (xx - cx * size) ** 2) / (2.0 * sigma**2)))
    return out


def woven_stripes(size: int, zone: float, angle_a: float, angle_b: float) -> np.ndarray:
    """Checkerboard of square zones alternating between two stripe angles, period 12.

    The image cuts two whole stripe images, one at angle_a and one at
    angle_b, by zone. Orientation is locally clean but flips every `zone`
    pixels, so small analysis windows see one direction while windows
    straddling a zone boundary see a mix.
    """
    yy, xx = _coords(size, zone=zone, angle_a=angle_a, angle_b=angle_b)
    z = ((yy // zone).astype(int) + (xx // zone).astype(int)) % 2
    return np.where(z == 0, stripes(size, 12.0, angle_a), stripes(size, 12.0, angle_b))


def compose(*layers) -> np.ndarray:
    """Sum image layers and clip to [0, 1]."""
    return np.clip(sum(layers), 0.0, 1.0)


def standard_suite(size: int = 512) -> dict[str, np.ndarray]:
    """Five deterministic oriented-texture benchmark images.

    Each image pairs a dominant oriented pattern with gentle smooth
    shading: strong structure along a local direction, plus the smooth
    intensity drift found in photographs. Fine isotropic texture is
    deliberately left out; it drowns the orientation statistics that the
    directional algorithm relies on.
    """
    shading = lambda ang: 0.25 * (gradient(size, ang) - 0.5)  # noqa: E731
    bumps = 0.22 * blobs(size, [(0.3, 0.7), (0.75, 0.25)], sigma=size / 5.0)
    zone = max(size * 48.0 / 512.0, 16.0)
    return {
        "stripes-horizontal": compose(
            stripes(size, period=14.0, angle_deg=0.0, hardness=0.8),
            shading(60.0),
        ),
        "stripes-diagonal": compose(
            stripes(size, period=16.0, angle_deg=45.0),
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
