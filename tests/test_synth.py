"""Tests for the synthetic oriented-texture generators."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from inpaintkit.diffusion import DiffusionConfig
from inpaintkit.directionality import patch_angles
from inpaintkit.masks import random_mask
from inpaintkit.synth import AMPLITUDE, blobs, compose, gradient, rings, standard_suite, stripes, woven_stripes


def test_generators_are_deterministic_and_bounded():
    for img in (
        stripes(32, period=8.0, angle_deg=30.0, hardness=0.8),
        rings(32, period=9.0),
        gradient(32, angle_deg=45.0),
        blobs(32, [(0.5, 0.5)], sigma=8.0),
        woven_stripes(32, 16.0, 0.0, 90.0),
    ):
        assert img.shape == (32, 32)
        assert np.isfinite(img).all()


def test_stripes_and_rings_span_one_amplitude_about_half():
    # period 8 samples the sine at its peaks, so the stripes reach 0.5 +- AMPLITUDE / 2 exactly
    flat = stripes(32, period=8.0, angle_deg=0.0)
    assert flat.min() == 0.5 - 0.5 * AMPLITUDE and flat.max() == 0.5 + 0.5 * AMPLITUDE
    for img in (stripes(32, period=8.0, angle_deg=0.0, hardness=0.8), rings(64, period=9.0)):
        assert 0.5 - AMPLITUDE / 2 <= img.min() < img.max() <= 0.5 + AMPLITUDE / 2
    assert blobs(32, [(0.5, 0.5)], sigma=8.0).max() == 1.0  # unit height at a centre on the grid


def test_woven_stripes_cut_two_stripe_images_by_zone():
    # one stripes call over per-pixel angles equals the two whole images it selects between
    yy, xx = np.ogrid[:40, :40]
    first = (yy // 16 + xx // 16) % 2 == 0
    expected = np.where(first, stripes(40, 12.0, 30.0), stripes(40, 12.0, 120.0))
    assert np.array_equal(woven_stripes(40, 16.0, 30.0, 120.0), expected)


def test_compose_clips_to_unit_range():
    bright = compose(gradient(16), gradient(16), gradient(16))
    assert bright.min() >= 0.0
    assert bright.max() <= 1.0


def test_stripe_orientation_is_detectable():
    horizontal = stripes(16, period=4.0, angle_deg=0.0, hardness=1.0 - 1e-9)
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
    with pytest.raises(ValueError, match="size must be >= 1, got 0"):
        standard_suite(0)


NAN = float("nan")


@pytest.mark.parametrize(
    "make, name, value",
    [
        (lambda: stripes(8, NAN, 0.0), "period", "nan"),
        (lambda: stripes(8, np.inf, 0.0), "period", "inf"),
        (lambda: stripes(8, 0.0, 0.0), "period", "0.0"),
        (lambda: stripes(8, 1.5, 0.0), "period", "1.5"),
        (lambda: stripes(8, -1e-320, 0.0), "period", "-1e-320"),
        (lambda: rings(8, 0.0), "period", "0.0"),
        (lambda: stripes(8, 4.0, NAN), "angle_deg", "nan"),
        (lambda: stripes(8, 4.0, 0.0, 1.0), "hardness", "1.0"),
        (lambda: stripes(8, 4.0, 0.0, 2.0), "hardness", "2.0"),
        (lambda: stripes(8, 4.0, 0.0, -0.5), "hardness", "-0.5"),
        (lambda: stripes(8, 4.0, 0.0, NAN), "hardness", "nan"),
        (lambda: gradient(8, NAN), "angle_deg", "nan"),
        (lambda: gradient(8, -np.inf), "angle_deg", "-inf"),
        (lambda: blobs(8, [(NAN, 0.5)], 2.0), "centers", "[(nan, 0.5)]"),
        (lambda: blobs(8, [(0.5, np.inf)], 2.0), "centers", "[(0.5, inf)]"),
        (lambda: blobs(8, [(0.5, 0.5)], NAN), "sigma", "nan"),
        (lambda: blobs(8, [(0.5, 0.5)], 0.0), "sigma", "0.0"),
        (lambda: blobs(8, [(0.5, 0.5)], 1e-200), "sigma", "1e-200"),
        (lambda: blobs(8, [(0.5, 0.5)], 1e154), "sigma", "1e+154"),
        (lambda: blobs(8, [(0.5, 0.5)], 1e200), "sigma", "1e+200"),
        (lambda: woven_stripes(8, 0.0, 0.0, 90.0), "zone", "0.0"),
        (lambda: woven_stripes(8, NAN, 0.0, 90.0), "zone", "nan"),
        (lambda: woven_stripes(8, 16.0, NAN, 90.0), "angle_a", "nan"),
        (lambda: woven_stripes(8, 16.0, 0.0, np.inf), "angle_b", "inf"),
    ],
)
def test_generators_refuse_a_bad_real_argument_by_name(make, name, value):
    # tier-1 turns warnings into errors, so no RuntimeWarning may fire before the refusal
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(value)}$"):
        make()


# every real scalar argument: the name it is refused by, a call that passes
# value to it, and a value its rule accepts
REAL_ARGUMENTS = {
    "epsilon": ("epsilon", lambda v: DiffusionConfig(epsilon=v), 1e-3),
    "missing-fraction": ("missing_fraction", lambda v: random_mask(8, 8, v, 0), 0.5),
    "stripes-period": ("period", lambda v: stripes(8, v, 0.0), 4.0),
    "rings-period": ("period", lambda v: rings(8, v), 4.0),
    "zone": ("zone", lambda v: woven_stripes(8, v, 0.0, 90.0), 4.0),
    "sigma": ("sigma", lambda v: blobs(8, [(0.5, 0.5)], v), 2.0),
    "hardness": ("hardness", lambda v: stripes(8, 4.0, 0.0, v), 0.5),
    "stripes-angle": ("angle_deg", lambda v: stripes(8, 4.0, v), 30.0),
    "gradient-angle": ("angle_deg", lambda v: gradient(8, v), 30.0),
    "angle-a": ("angle_a", lambda v: woven_stripes(8, 4.0, v, 90.0), 30.0),
    "angle-b": ("angle_b", lambda v: woven_stripes(8, 4.0, 0.0, v), 30.0),
}
# the 2-d row is a per-pixel angle array, which stripes does not take either
NOT_REAL = {"str": "0.5", "none": None, "complex": 0.5j, "1-d": np.array([0.5, 0.2]), "0-d": np.array(0.5), "2-d": np.full((8, 8), np.inf)}


@pytest.mark.parametrize("value", NOT_REAL.values(), ids=NOT_REAL.keys())
@pytest.mark.parametrize("name, call, valid", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS.keys())
def test_a_real_argument_refuses_a_non_real_value_by_name(name, call, valid, value):
    with pytest.raises(TypeError, match=f"^{name} must be a real number, got"):
        call(value)


@pytest.mark.parametrize("name, call, valid", REAL_ARGUMENTS.values(), ids=REAL_ARGUMENTS.keys())
def test_every_real_argument_accepts_a_numpy_real_scalar(name, call, valid):
    for scalar in (np.float32(valid), np.float64(valid)):
        call(scalar)


# SHA-256 of each image's float64 bytes, recorded from the mgrid-based
# generators that the broadcast coordinates replaced
SUITE_SHA256 = {
    96: {
        "stripes-horizontal": "f20f3568baea86da8f2fed00465a9983c5f67025dda3b67653d291d0cc4f6fbe",
        "stripes-diagonal": "69534cc1da8ea6efb5867b376d7eaa9196076a1197ec56fff9723c9e839cbbca",
        "weave-axis": "73015b34f59494b1177ac0827f5e174e869d9befe7d4307d300aa5424c6f4a4f",
        "weave-diagonal": "d90c1d115424151a277ff0f82913fea50bd34a30c77bc07dd41139c6b22ddd6f",
        "rings": "364f3fe7be7973e66d4f9236a03b8bd5db4d6d96300b574379caf22fd72bcb52",
    },
    512: {
        "stripes-horizontal": "52c3cf3606e0f13d9c1de5dd07f27fb226da07c3601905c4f8020d57f0708f8b",
        "stripes-diagonal": "d57865ac649695fe04edd1a183aee80bb729a792240a22dfe1bd77534434bf52",
        "weave-axis": "3c4fe42fcdaf9da9529b89435c5eabbc7bbb6e11fff0ac02285f8ef5c251ecab",
        "weave-diagonal": "3ee8eac1bc5fb1e476fe5630ea70e7346ac4d82809f70e60e739d46c5d9dd922",
        "rings": "e68b8cccb51c4311eefd8db766342c2c8437e92c52c205e15627525a568e884b",
    },
}


@pytest.mark.parametrize("size", sorted(SUITE_SHA256))
def test_standard_suite_images_match_their_pinned_digests(size):
    suite = standard_suite(size)
    assert list(suite) == list(SUITE_SHA256[size])
    for name, img in suite.items():
        assert img.shape == (size, size) and img.dtype == np.float64, name
        assert hashlib.sha256(img.tobytes()).hexdigest() == SUITE_SHA256[size][name], name
