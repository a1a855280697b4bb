"""Fixed (non-trainable) sinusoidal feature builders: 2D grid position codes
for token sequences and timestep features for the denoiser."""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def grid_position_codes(gh: int, gw: int, dim: int) -> np.ndarray:
    """(gh*gw, dim) codes; dim is consumed in (sin i, cos i, sin j, cos j)
    quadruples over geometrically spaced frequencies."""
    if dim % 4 != 0:
        raise ValueError(f"position code dim must be a multiple of 4, got {dim}")
    ii, jj = np.meshgrid(np.arange(gh), np.arange(gw), indexing="ij")
    ii, jj = ii.reshape(-1, 1), jj.reshape(-1, 1)
    m = dim // 4
    # frequencies from one cycle per grid up to ~Nyquist of the larger edge
    base = max(gh, gw)
    freqs = 2.0 * np.pi * np.geomspace(1.0, max(base / 2.0, 1.0 + 1e-9), m) / base
    out = np.empty((gh * gw, dim))
    out[:, 0::4] = np.sin(ii * freqs)
    out[:, 1::4] = np.cos(ii * freqs)
    out[:, 2::4] = np.sin(jj * freqs)
    out[:, 3::4] = np.cos(jj * freqs)
    return out


@lru_cache(maxsize=32)
def _time_divisors(dim: int, max_steps: int) -> np.ndarray:
    """The dim // 2 geometric wavelengths of `time_features`, read-only
    because every call with these arguments shares the cached array."""
    m = dim // 2
    div = np.power(float(max(max_steps, 2)), np.arange(m) / max(m - 1, 1))
    div.setflags(write=False)
    return div


def time_features(t, dim: int, max_steps: int) -> np.ndarray:
    """(..., dim) sinusoidal features of an integer timestep or an array of them."""
    if dim % 2 != 0:
        raise ValueError(f"time feature dim must be even, got {dim}")
    phase = np.asarray(t)[..., None] / _time_divisors(dim, max_steps)
    out = np.empty(phase.shape[:-1] + (dim,))
    out[..., 0::2] = np.sin(phase)
    out[..., 1::2] = np.cos(phase)
    return out
