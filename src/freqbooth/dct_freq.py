"""Channel-wise orthonormal 2D DCT, binary band masks, and the frequency
control signal obtained by masking a latent's spectrum and inverting.

The transform pair is the orthonormal DCT-II / DCT-III:

    F[u, v] = (2 / sqrt(h w)) m(u) m(v)
              sum_{i, j} x[i, j] cos((2i+1) u pi / 2h) cos((2j+1) v pi / 2w)

with m(0) = 1/sqrt(2) and m(g) = 1 otherwise, applied per channel.  The
inverse is the transpose, so Frobenius norm is preserved per channel.

Band masks select coefficients by the index sum u + v against absolute
thresholds (mini <= 10, low <= 20, 20 < mid <= 40, high >= 50).  The
thresholds are deliberately not rescaled with resolution; small grids make
some bands degenerate (all-ones or empty) and the range 40 < u+v < 50 is
covered by no band at all.  Both facts are surfaced by helpers below rather
than papered over.  `build_mask` returns the mask itself: a read-only uint8
(h, w) array, 1 where the band keeps the coefficient, built once per
(kind, h, w) and shared.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

import numpy as np


class MaskKind(str, Enum):
    MINI = "mini"
    LOW = "low"
    MID = "mid"
    HIGH = "high"
    ALL = "all"


# (mini_max, low_max, mid_max, high_min) index-sum thresholds.
DEFAULT_THRESHOLDS = (10, 20, 40, 50)


@lru_cache(maxsize=32)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II matrix D with D[u, i] = sqrt(2/n) m(u) cos((2i+1)u pi / 2n)."""
    if n < 1:
        raise ValueError(f"transform size must be >= 1, got {n}")
    u = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos((2 * i + 1) * u * np.pi / (2 * n))
    d[0, :] /= np.sqrt(2.0)
    d.setflags(write=False)
    return d


def _as_latent(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3, 4):
        raise ValueError(
            f"expected (channels, h, w), (h, w) or a stack of latents, got shape {x.shape}")
    return x


def dct2(latent: np.ndarray) -> np.ndarray:
    """Per-channel orthonormal 2D DCT-II, D_h x D_w^T for each (h, w) channel."""
    x = _as_latent(latent)
    return dct_matrix(x.shape[-2]) @ x @ dct_matrix(x.shape[-1]).T


def idct2(spectrum: np.ndarray) -> np.ndarray:
    """Exact inverse of dct2 (transpose of the orthonormal transform)."""
    f = _as_latent(spectrum)
    return dct_matrix(f.shape[-2]).T @ f @ dct_matrix(f.shape[-1])


def build_mask(kind: MaskKind, h: int, w: int) -> np.ndarray:
    """Read-only uint8 (h, w) mask over (u, v), 1 where the band keeps the
    coefficient, selecting one frequency band by index sum.  A kind given
    by name or by member gives the one array cached for its (kind, h, w)."""
    if h < 1 or w < 1:
        raise ValueError(f"mask dimensions must be >= 1, got {h}x{w}")
    return _band_mask(MaskKind(kind), h, w)


@lru_cache(maxsize=32)
def _band_mask(kind: MaskKind, h: int, w: int) -> np.ndarray:
    mini_max, low_max, mid_max, high_min = DEFAULT_THRESHOLDS
    s = np.arange(h)[:, None] + np.arange(w)[None, :]
    if kind is MaskKind.MINI:
        bits = s <= mini_max
    elif kind is MaskKind.LOW:
        bits = s <= low_max
    elif kind is MaskKind.MID:
        bits = (s > low_max) & (s <= mid_max)
    elif kind is MaskKind.HIGH:
        bits = s >= high_min
    else:
        bits = np.ones((h, w), dtype=bool)
    mask = bits.astype(np.uint8)
    mask.setflags(write=False)
    return mask


def coverage_gap(h: int, w: int) -> list[tuple[int, int]]:
    """Coefficients (u, v) belonging to none of {mini, low, mid, high}.

    Nonempty whenever the grid reaches index sums strictly between the mid
    and high thresholds (40 < u+v < 50).
    """
    kinds = (MaskKind.MINI, MaskKind.LOW, MaskKind.MID, MaskKind.HIGH)
    union = np.zeros((h, w), dtype=bool)
    for kind in kinds:
        union |= build_mask(kind, h, w).astype(bool)
    us, vs = np.nonzero(~union)
    return list(zip(us.tolist(), vs.tolist()))


def make_control_signal(latent: np.ndarray, kind: MaskKind) -> np.ndarray:
    """Band-filtered copy of `latent`: idct2(dct2(latent) * mask), per channel."""
    x = _as_latent(latent)
    return idct2(dct2(x) * build_mask(kind, x.shape[-2], x.shape[-1]))
