"""Netpbm image IO: binary P6 for 8-bit output and PFM for float data.

All writers are byte-deterministic: same array in, same file bytes out.
Images are (3, H, W) float64 arrays in [0, 1]; P6 output clamps and rounds,
PFM keeps full float32 precision (used where tolerances are tighter than a
byte quantum).
"""

from __future__ import annotations

import numpy as np


def _read_tokens(data: bytes, count: int, offset: int):
    """Read whitespace-separated header tokens, skipping `#` comments."""
    tokens = []
    i = offset
    while len(tokens) < count:
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(data) and not data[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated netpbm header")
        tokens.append(data[start:i])
    return tokens, i + 1  # skip single whitespace after last token


def quantize(img: np.ndarray) -> np.ndarray:
    """Snap floats to the 8-bit levels P6 stores, so disk round trips are exact."""
    return np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0


def write_ppm(path, img: np.ndarray) -> None:
    """Write (3, H, W) floats in [0, 1] as binary P6, clamping and rounding."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got shape {img.shape}")
    _, h, w = img.shape
    q = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    raster = np.moveaxis(q, 0, -1).tobytes()  # H x W x 3 interleaved
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(raster)


def read_ppm(path) -> np.ndarray:
    """Read binary P6 into a (3, H, W) float64 array in [0, 1]."""
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
    img = raster.reshape(h, w, 3).astype(np.float64) / float(maxval)
    return np.moveaxis(img, -1, 0)


def write_pfm(path, img: np.ndarray) -> None:
    """Write (3, H, W) or (H, W) floats as little-endian PFM (unclamped).

    Rows are stored bottom-to-top per the PFM convention.
    """
    img = np.asarray(img, dtype=np.float32)
    if img.ndim == 3 and img.shape[0] == 3:
        magic, raster = b"PF", np.moveaxis(img, 0, -1)[::-1]
    elif img.ndim == 2:
        magic, raster = b"Pf", img[::-1]
    else:
        raise ValueError(f"expected (3, H, W) or (H, W), got shape {img.shape}")
    h, w = raster.shape[0], raster.shape[1]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n-1.0\n" % (w, h))
        f.write(np.ascontiguousarray(raster, dtype="<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    """Read PFM into (3, H, W) or (H, W) float64."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] not in (b"PF", b"Pf"):
        raise ValueError(f"{path}: not a PFM file")
    color = data[:2] == b"PF"
    (w, h, scale), body = _read_tokens(data, 3, 2)
    w, h, scale = int(w), int(h), float(scale)
    if w < 1 or h < 1:
        raise ValueError(f"{path}: image size {w}x{h} is not positive")
    dtype = "<f4" if scale < 0 else ">f4"
    n = h * w * (3 if color else 1)
    if len(data) - body < 4 * n:
        raise ValueError(f"{path}: truncated raster")
    raster = np.frombuffer(data, dtype=dtype, count=n, offset=body)
    if color:
        img = raster.reshape(h, w, 3)[::-1]
        return np.moveaxis(img, -1, 0).astype(np.float64)
    return raster.reshape(h, w)[::-1].astype(np.float64)
