"""Netpbm image IO: binary P6 for 8-bit images, read and written, and colour
PFM for float data, written only.

All writers are byte-deterministic: same array in, same file bytes out.
Images are (3, H, W) float64 arrays in [0, 1]; P6 output clamps and rounds,
PFM keeps full float32 precision (used where tolerances are tighter than a
byte quantum).

A P6 file's raster is an (H, W, 3) uint8 array of levels, row by row and
pixel by pixel with the channels interleaved.  This module holds the one
encoder and the one decoder of those levels: `ppm_levels` rounds floats to
levels, and `decode_levels` divides levels by their maxval into C-ordered
floats.  Every other conversion goes through them.
"""

from __future__ import annotations

import re

import numpy as np


# whitespace and `#` comments (each to the end of its line), then a token
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def _read_tokens(data: bytes, count: int, offset: int):
    """Read whitespace-separated header tokens, skipping `#` comments."""
    tokens = []
    i = offset
    for _ in range(count):
        match = _HEADER_TOKEN.match(data, i)
        if not match[1]:
            raise ValueError("truncated netpbm header")
        tokens.append(match[1])
        i = match.end()
    return tokens, i + 1  # skip single whitespace after last token


def quantize(img: np.ndarray) -> np.ndarray:
    """Snap floats to the 8-bit levels P6 stores, so disk round trips are exact."""
    return decode_levels(ppm_levels(img))


def ppm_levels(img: np.ndarray) -> np.ndarray:
    """The C-ordered (H, W, 3) uint8 raster that P6 stores for (3, H, W)
    floats: round(clip(x, 0, 1) * 255).  It rounds before it clips, which
    gives the same levels; clipping first raised the CLI's peak RSS."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got shape {img.shape}")
    img = np.clip(np.round(img * 255.0), 0.0, 255.0)
    levels = np.empty((*img.shape[1:], 3), dtype=np.uint8)
    for c in range(3):  # a plane at a time: a one-step transpose copies 3 values per inner loop
        levels[..., c] = img[c]
    return levels


def decode_levels(levels: np.ndarray, maxval: int = 255) -> np.ndarray:
    """The C-ordered (..., 3, H, W) float64 image of (..., H, W, 3) levels,
    level / maxval in one divide."""
    chw = levels.swapaxes(-1, -3).swapaxes(-1, -2)  # np.moveaxis(levels, -1, -3), cheaper
    return np.divide(chw, float(maxval), out=np.empty(chw.shape))


def write_ppm_raster(path, raster: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 raster of levels as binary P6 with maxval 255."""
    h, w, _ = raster.shape
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(raster))


def write_ppm(path, img: np.ndarray) -> None:
    """Write (3, H, W) floats as binary P6 with maxval 255: the raster
    `ppm_levels(img)`."""
    write_ppm_raster(path, ppm_levels(img))


def read_ppm_raster(path) -> tuple[np.ndarray, int]:
    """The (H, W, 3) uint8 raster of a binary P6 file and its maxval, read
    in one pass.  The raster is a read-only view of the file's bytes."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P6"):
        raise ValueError(f"{path}: not a binary PPM (P6) file")
    (w, h, maxval), body = _read_tokens(data, 3, 2)
    w, h, maxval = int(w), int(h), int(maxval)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image size {w}x{h} is not positive")
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    need = h * w * 3
    if len(data) - body < need:
        raise ValueError(f"{path}: truncated raster")
    raster = np.frombuffer(data, dtype=np.uint8, count=need, offset=body)
    return raster.reshape(h, w, 3), maxval


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into a C-ordered (3, H, W) float64 array in [0, 1]."""
    return decode_levels(*read_ppm_raster(path))


def write_pfm(path, img: np.ndarray) -> None:
    """Write (3, H, W) floats as little-endian colour PFM (unclamped).

    Rows are stored bottom-to-top per the PFM convention.
    """
    img = np.asarray(img, dtype=np.float32)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got shape {img.shape}")
    _, h, w = img.shape
    raster = np.moveaxis(img, 0, -1)[::-1]
    with open(path, "wb") as f:
        f.write(b"PF\n%d %d\n-1.0\n" % (w, h))
        f.write(np.ascontiguousarray(raster, dtype="<f4").tobytes())

