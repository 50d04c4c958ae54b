"""Tests for PGM parsing/writing, PNG support and quantization."""

from __future__ import annotations

import re
import sys

import numpy as np
import pytest

from inpaintkit.image_io import (
    CODECS,
    ImageFormatError,
    quantize,
    read_image,
    read_pgm,
    write_image,
)


def test_quantize_endpoints_and_rounding():
    img = np.array([[0.0, 1.0], [0.5, 2.0]])
    q = quantize(img)
    assert q.dtype == np.uint8
    assert q[0, 0] == 0 and q[0, 1] == 255
    assert q[1, 0] == 128  # 127.5 rounds to the even neighbour
    assert q[1, 1] == 255  # clipped


@pytest.mark.parametrize("img", [np.zeros((2, 2)) + 0.5j, np.ones(3, dtype=np.complex64), 1 + 0j], ids=["2d", "1d", "scalar"])
def test_quantize_refuses_complex_values(img):
    # a cast to float64 would drop the imaginary part with only a warning
    with pytest.raises(ValueError, match="^expected a real image, got complex"):
        quantize(img)


def test_quantize_of_any_shape_matches_the_2d_result_element_by_element():
    rng = np.random.default_rng(29)
    img = rng.uniform(-0.2, 1.2, size=(7, 9))
    whole = quantize(img)
    flat = quantize(img.ravel())
    assert flat.dtype == np.uint8 and flat.shape == (63,)
    assert np.array_equal(flat, whole.ravel())
    # a gather of scattered pixels quantizes to the same bytes as those pixels of the whole image
    rows, cols = np.nonzero(img > 0.5)
    assert np.array_equal(quantize(img[rows, cols]), whole[rows, cols])
    for empty in (np.empty(0), np.empty((0, 4))):
        q = quantize(empty)
        assert q.dtype == np.uint8 and q.shape == empty.shape


def test_write_pgm_writes_rows_in_c_order_from_any_layout(tmp_path):
    img = np.random.default_rng(37).uniform(size=(6, 11))
    write_image(img, tmp_path / "c.pgm")
    for name, view in (("f.pgm", np.asfortranarray(img)), ("t.pgm", img.T.copy().T), ("s.pgm", np.repeat(img, 2, axis=1)[:, ::2])):
        write_image(view, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (tmp_path / "c.pgm").read_bytes(), name


@pytest.mark.parametrize(
    "raster, dtype, shape",
    [
        (np.full((2, 2), 0.5), "float64", "(2, 2)"),
        (np.zeros((2, 2), np.int64), "int64", "(2, 2)"),
        (np.zeros(4, np.uint8), "uint8", "(4,)"),
        (np.zeros((2, 2, 1), np.uint8), "uint8", "(2, 2, 1)"),
        (np.zeros((0, 3), np.uint8), "uint8", "(0, 3)"),
    ],
    ids=["float64", "int64", "1-d", "3-d", "empty"],
)
@pytest.mark.parametrize("suffix", [".pgm", ".png"])
def test_writers_refuse_a_raster_that_is_not_2d_uint8_before_opening_the_file(tmp_path, suffix, raster, dtype, shape):
    # the png case runs only where Pillow is installed
    if suffix == ".png":
        pytest.importorskip("PIL")
    path = tmp_path / f"x{suffix}"
    message = f"expected a non-empty 2-D uint8 raster, got dtype {dtype} and shape {shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CODECS[suffix][1](raster, path)
    assert not path.exists()


def test_pgm_roundtrip_is_byte_identical(tmp_path):
    rng = np.random.default_rng(31)
    img = rng.uniform(size=(9, 13))
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    write_image(img, first)
    back = read_image(first)
    assert np.array_equal(quantize(back), quantize(img))
    write_image(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_pgm_header_layout(tmp_path):
    path = tmp_path / "c.pgm"
    write_image(np.zeros((2, 3)), path)
    assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6


@pytest.mark.parametrize("suffix", [".pgm", ".png"])
def test_transposed_image_is_written_in_row_order(tmp_path, suffix):
    if suffix == ".png":
        pytest.importorskip("PIL")
    img = np.arange(12.0).reshape(3, 4) / 255.0
    path = tmp_path / f"t{suffix}"
    write_image(img.T, path)  # a Fortran-ordered view
    assert np.array_equal(read_image(path), img.T)


def test_pgm_reader_tolerates_comments_and_whitespace(tmp_path):
    raw = b"P5 # magic\n# a comment line\n  3\t2 #dims\n255\n" + bytes(range(6))
    path = tmp_path / "d.pgm"
    path.write_bytes(raw)
    img = read_image(path)
    assert img.shape == (2, 3)
    assert img[1, 2] == 5.0 / 255.0


def test_pgm_comment_glued_to_a_token(tmp_path):
    path = tmp_path / "glued.pgm"
    path.write_bytes(b"P5 3#c\n2 255\n" + bytes(range(6)))
    img = read_image(path)
    assert img.shape == (2, 3)
    assert img[1, 2] == 5.0 / 255.0


def test_pgm_low_maxval_rescales(tmp_path):
    raw = b"P5\n2 1\n100\n" + bytes([0, 50])
    path = tmp_path / "e.pgm"
    path.write_bytes(raw)
    img = read_image(path)
    assert img[0, 1] == 0.5


def test_pgm_sample_above_its_maxval_is_rejected_with_its_byte_offset(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 100, 200]))
    with pytest.raises(ImageFormatError, match=r"^sample 200 above maxval 100 at byte 14$"):
        read_image(path)
    # a sample equal to its maxval is full intensity
    path.write_bytes(b"P5\n2 2\n100\n" + bytes([0, 50, 100, 100]))
    assert np.array_equal(read_image(path), [[0.0, 0.5], [1.0, 1.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("suffix", [".pgm", ".png"])
def test_write_image_refuses_a_non_finite_pixel_before_opening_the_file(tmp_path, suffix, value):
    if suffix == ".png":
        pytest.importorskip("PIL")
    path = tmp_path / f"x{suffix}"
    with pytest.raises(ValueError, match=r"^image has 16 non-finite pixel\(s\); NaN and inf are not valid intensities$"):
        write_image(np.full((4, 4), value), path)
    img = np.zeros((4, 4))
    img[2, 3] = value
    with pytest.raises(ValueError, match=r"^image has 1 non-finite pixel"):
        write_image(img, path)
    assert not path.exists()


def test_pgm_16_bit_rejected(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ImageFormatError, match="maxval 65535"):
        read_pgm(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b"P5 0 4 255\n", r"^bad dimensions 0x4$"),
        (b"P5\n2 2\n0\n", r"^bad maxval 0$"),
        (b"P5\n2 2\n255#", r"^missing whitespace after maxval at byte 10$"),
    ],
    ids=["zero-width", "zero-maxval", "no-whitespace"],
)
def test_bad_header_values_rejected(tmp_path, header, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(header + b"\x00" * 8)
    with pytest.raises(ImageFormatError, match=message):
        read_pgm(path)


def test_color_ppm_rejected_with_guidance(tmp_path):
    path = tmp_path / "color.pgm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ImageFormatError, match="color PPM"):
        read_pgm(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.pgm"
    path.write_bytes(b"JUNKDATA")
    with pytest.raises(ImageFormatError, match="magic"):
        read_pgm(path)


def test_truncated_raster_reports_byte_offset(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(ImageFormatError, match="truncated at byte 18"):
        read_pgm(path)


def test_non_integer_width_reports_its_token(tmp_path):
    path = tmp_path / "width.pgm"
    path.write_bytes(b"P5\nx 2\n255\n")
    with pytest.raises(ImageFormatError, match=r"^bad width b'x' at byte 2$"):
        read_pgm(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "header.pgm"
    path.write_bytes(b"P5\n4")
    with pytest.raises(ImageFormatError, match="end of header"):
        read_pgm(path)


def test_unknown_extension_rejected(tmp_path):
    with pytest.raises(ImageFormatError, match="extension"):
        read_image(tmp_path / "img.bmp")
    with pytest.raises(ImageFormatError, match="extension"):
        write_image(np.zeros((2, 2)), tmp_path / "img.tiff")


def test_png_without_pillow_names_the_extra(tmp_path, monkeypatch):
    monkeypatch.setitem(sys.modules, "PIL", None)  # no Pillow, whether or not it is installed
    path = tmp_path / "img.png"
    with pytest.raises(ImageFormatError, match=r"needs Pillow; install the png extra"):
        write_image(np.zeros((2, 2)), path)
    assert not path.exists()
    path.write_bytes(b"\x89PNG\r\n\x1a\n")
    with pytest.raises(ImageFormatError, match=r"needs Pillow; install the png extra"):
        read_image(path)


def test_png_roundtrip(tmp_path):
    pytest.importorskip("PIL")
    rng = np.random.default_rng(32)
    img = rng.uniform(size=(11, 7))
    path = tmp_path / "img.png"
    write_image(img, path)
    back = read_image(path)
    assert np.array_equal(quantize(back), quantize(img))


def test_color_png_rejected(tmp_path):
    pil = pytest.importorskip("PIL.Image")
    path = tmp_path / "rgb.png"
    pil.new("RGB", (4, 4), (10, 20, 30)).save(path)
    with pytest.raises(ImageFormatError, match="grayscale"):
        read_image(path)


def test_bilevel_png_promotes_to_grayscale(tmp_path):
    pil = pytest.importorskip("PIL.Image")
    path = tmp_path / "bw.png"
    pil.new("1", (3, 3), 1).save(path)
    img = read_image(path)
    assert img.shape == (3, 3)
    assert np.all(img == 1.0)


def test_pnm_extension_uses_the_pgm_codec(tmp_path):
    img = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    path = tmp_path / "img.pnm"
    write_image(img, path)
    assert np.array_equal(quantize(read_image(path)), quantize(img))
