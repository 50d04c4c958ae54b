"""Tests for the synthetic oriented-texture generators."""

from __future__ import annotations

import numpy as np

from inpaintkit.directionality import patch_angles
from inpaintkit.synth import blobs, compose, gradient, rings, standard_suite, stripes, woven_stripes


def test_generators_are_deterministic_and_bounded():
    for img in (
        stripes(32, period=8.0, angle_deg=30.0, amplitude=0.62, hardness=0.8),
        rings(32, period=9.0, amplitude=0.62),
        gradient(32, angle_deg=45.0),
        blobs(32, [(0.5, 0.5)], sigma=8.0, amplitude=0.3),
        woven_stripes(32, 16.0, 0.0, 90.0),
    ):
        assert img.shape == (32, 32)
        assert np.isfinite(img).all()


def test_compose_clips_to_unit_range():
    bright = compose(gradient(16), gradient(16), gradient(16))
    assert bright.min() >= 0.0
    assert bright.max() <= 1.0


def test_stripe_orientation_is_detectable():
    horizontal = stripes(16, period=4.0, angle_deg=0.0, amplitude=1.0, hardness=1.0 - 1e-9)
    assert abs(patch_angles(horizontal[None])[0] - 90.0) < 5.0


def test_standard_suite_contents():
    suite = standard_suite(64)
    assert len(suite) >= 5
    for name, img in suite.items():
        assert img.shape == (64, 64), name
        assert img.min() >= 0.0 and img.max() <= 1.0, name
    again = standard_suite(64)
    for name in suite:
        assert np.array_equal(suite[name], again[name])
