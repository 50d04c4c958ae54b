"""Image file reading and writing.

Binary PGM (P5, maxval up to 255) is the canonical format and is parsed
here directly. 8-bit grayscale PNG works through Pillow when it is
installed (the "png" extra). The codecs move 2-D uint8 rasters only:
read_image divides a raster by its maxval into float64 intensities in
[0, 1], and write_image quantizes back to bytes, so a write/read round
trip reproduces the quantized values exactly. A caller that keeps a
quantized raster (the CLI's snapshots) writes it with write_pgm.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .core import as_image, as_real_array, require_finite

# whitespace and '#' comments (up to the newline), then one token; the
# token is empty only at the end of the data
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


class ImageFormatError(ValueError):
    """Unreadable or unsupported image file."""


def quantize(img) -> np.ndarray:
    """Map [0, 1] intensities to uint8, rounding and clipping each element on its own; any shape."""
    img = as_real_array(img, "image")
    # the one float temporary, rounded and clipped in place; out= keeps a 0-d input an array
    q = np.multiply(img, 255.0, out=np.empty_like(img))
    np.rint(q, out=q)
    np.clip(q, 0, 255, out=q)
    return q.astype(np.uint8)


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise ImageFormatError(f"unexpected end of header at byte {match.end()}")
    return match[1], match.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, end = _next_token(data, pos)
    try:
        value = int(token)
    except ValueError:
        raise ImageFormatError(f"bad {what} {token!r} at byte {pos}") from None
    return value, end


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM (P5) file as (uint8 raster, maxval)."""
    data = Path(path).read_bytes()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        if magic in (b"P3", b"P6"):
            raise ImageFormatError(
                f"{magic.decode('ascii', 'replace')} is a color PPM; convert to grayscale first"
            )
        raise ImageFormatError(f"not a binary PGM (magic {magic!r} at byte 0)")
    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    maxval, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if maxval > 255:
        raise ImageFormatError(f"maxval {maxval} unsupported; only 8-bit (maxval 255) PGM is handled")
    if maxval < 1:
        raise ImageFormatError(f"bad maxval {maxval}")
    if not data[pos : pos + 1].isspace():
        raise ImageFormatError(f"missing whitespace after maxval at byte {pos}")
    pos += 1  # exactly one whitespace byte separates header and raster
    need = width * height
    raster = data[pos : pos + need]
    if len(raster) < need:
        raise ImageFormatError(
            f"raster truncated at byte {pos + len(raster)}: need {need} pixels, got {len(raster)}"
        )
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if maxval < 255:
        above = np.flatnonzero(img > maxval)
        if len(above):
            raise ImageFormatError(f"sample {img.flat[above[0]]} above maxval {maxval} at byte {pos + above[0]}")
    return img, maxval


def _require_raster(raster) -> np.ndarray:
    """Return raster as an array; one that is not a non-empty 2-D uint8 array raises ValueError naming its dtype and shape."""
    raster = np.asarray(raster)
    if raster.dtype != np.uint8 or raster.ndim != 2 or raster.size == 0:
        raise ValueError(f"expected a non-empty 2-D uint8 raster, got dtype {raster.dtype} and shape {raster.shape}")
    return raster


def write_pgm(raster: np.ndarray, path) -> None:
    """Write a 2-D uint8 raster as binary PGM (P5, maxval 255).

    Any other raster raises ValueError before the file is opened. The
    header goes to the file first, then the raster in C order straight
    from the array's buffer, with no bytes copy of it.
    """
    raster = np.ascontiguousarray(_require_raster(raster))  # no copy when already C-ordered
    with open(path, "wb") as f:
        f.write(f"P5\n{raster.shape[1]} {raster.shape[0]}\n255\n".encode("ascii"))
        f.write(raster)


def _require_pillow():
    try:
        from PIL import Image
    except ImportError:
        raise ImageFormatError(
            "PNG support needs Pillow; install the png extra (pip install 'inpaintkit[png]')"
        ) from None
    return Image


def read_png(path) -> tuple[np.ndarray, int]:
    """Read an 8-bit grayscale PNG as (uint8 raster, maxval 255)."""
    pil = _require_pillow()
    with pil.open(path) as im:
        if im.mode == "1":
            im = im.convert("L")
        if im.mode != "L":
            if im.mode in ("I", "I;16", "I;16B", "I;16L"):
                raise ImageFormatError(f"{path}: 16-bit PNG unsupported; only 8-bit grayscale is handled")
            raise ImageFormatError(
                f"{path}: mode {im.mode} unsupported; convert to 8-bit grayscale first"
            )
        return np.asarray(im, dtype=np.uint8), 255


def write_png(raster: np.ndarray, path) -> None:
    """Write a 2-D uint8 raster as 8-bit grayscale PNG; any other raster raises ValueError before the file is opened."""
    _require_pillow().fromarray(_require_raster(raster)).save(Path(path), format="PNG")


# suffix -> (reader, writer); .pnm is read and written as PGM
CODECS = {
    ".pgm": (read_pgm, write_pgm),
    ".pnm": (read_pgm, write_pgm),
    ".png": (read_png, write_png),
}


def codec(path):
    """The (reader, writer) pair for a path's extension; an unsupported one, or .png without Pillow, raises ImageFormatError."""
    suffix = Path(path).suffix.lower()
    if suffix not in CODECS:
        raise ImageFormatError(f"unsupported image extension {suffix!r} (use .pgm or .png)")
    if suffix == ".png":
        _require_pillow()
    return CODECS[suffix]


def read_image(path) -> np.ndarray:
    """Read a grayscale image by file extension (.pgm/.pnm or .png) into a [0, 1] float image."""
    raster, maxval = codec(path)[0](path)
    return raster / float(maxval)


def write_image(img, path) -> None:
    """Write a [0, 1] float image by file extension (.pgm/.pnm or .png), quantized to 8 bits; NaN or inf raises ValueError before the file is opened."""
    codec(path)[1](quantize(require_finite(as_image(img))), path)
