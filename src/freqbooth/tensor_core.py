"""Deterministic dense-tensor arithmetic and a counter-based RNG.

Everything downstream (attention, DCT filtering, diffusion, training) builds
on the float64 operations here.  Every function but `softmax_rows` is pure:
that one normalises the score array it is given in place, because the
attention kernels hand it a product they own and need nothing else.
Randomness lives in an explicit RngState whose (seed, counter) pair fully
determines every draw.

`matmul_t(x, y)` is x @ y^T on a contiguous copy of y^T, so that BLAS runs
its plain GEMM rather than its slower transposed-operand one.  The two
kernels may round differently, so it replaces a transposed product only
where the test suite checks, at the model's shapes, that the bits agree:
see the `attention` and `diffusion` docstrings for which products.

RNG scheme
----------
Draw number ``c`` of a stream is a pure function of ``(seed, c)``:

    word(seed, p) = mix64(seed + (p + 1) * GOLDEN)          (splitmix64)
    u1 = ((word(seed, 2c) >> 11) + 1) * 2**-53              in (0, 1]
    u2 = (word(seed, 2c + 1) >> 11) * 2**-53                in [0, 1)
    normal = sqrt(-2 ln u1) * cos(2 pi u2)                  (Box-Muller)

Uniform/integer draws consume one counter tick each and use only the even
word.  Because draws are position-addressable, streams can be split with
``derive`` and replayed from any counter without touching global state.

``example_draws(B, shape)`` takes a batch's ticks in one call.  Example i
owns the ``n + 2`` ticks from ``c0 + i * (n + 2)``, n = prod(shape): one
leading uniform, n normals, one trailing uniform, the ticks that
``uniform``, ``normal(shape)`` and ``uniform`` would take in that order, so
the batch equals B such rounds value for value.

``step_draws(S, B, population, shape)`` takes S training steps' ticks in
one call.  Step s owns the ``B + B * (n + 2)`` ticks from
``c0 + s * (B + B * (n + 2))``: B ``randint(population)`` ticks, then the
B example rounds ``example_draws(B, shape)`` takes, so the chunk equals S
such steps value for value.  Both calls read one layout (``_rounds``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53 = float(1 << 53)


def _mix64(x: int) -> int:
    """SplitMix64 finalizer on a python int (mod 2**64)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _words(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorized word(seed, p) for p in [start, start+count)."""
    with np.errstate(over="ignore"):
        pos = np.arange(start, start + count, dtype=np.uint64)
        x = np.uint64(seed & _MASK64) + (pos + np.uint64(1)) * np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        return x ^ (x >> np.uint64(31))


def _uniform(even_words: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1) from their ticks' even words."""
    return (even_words >> np.uint64(11)).astype(np.float64) / _TWO53


def _box_muller(w: np.ndarray) -> np.ndarray:
    """One normal per (even, odd) word pair along the last axis."""
    u1 = ((w[..., 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) / _TWO53
    u2 = (w[..., 1::2] >> np.uint64(11)).astype(np.float64) / _TWO53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass
class RngState:
    """Counter-based RNG state; (seed, counter) determines all future draws."""

    seed: int
    counter: int = 0

    def normal(self, shape) -> np.ndarray:
        """I.i.d. standard normal draws; advances counter by the draw count."""
        n = int(np.prod(shape)) if np.ndim(shape) else int(shape)
        w = _words(self.seed, 2 * self.counter, 2 * n)
        self.counter += n
        return _box_muller(w).reshape(shape)

    def _rounds(self, rounds: int, picks: int, count: int, shape):
        """The tick layout `example_draws` and `step_draws` share: each of
        `rounds` rounds takes `picks` uniform ticks, then `count` example
        rounds of (uniform, prod(shape) normals, uniform).  Returns the
        pick uniforms (rounds, picks), then the example draws with shapes
        (rounds, count), (rounds, count, *shape) and (rounds, count), and
        advances the counter past every tick."""
        shape = tuple(shape)
        n = int(np.prod(shape))
        width = picks + count * (n + 2)
        w = _words(self.seed, 2 * self.counter, 2 * rounds * width).reshape(rounds, 2 * width)
        self.counter += rounds * width
        ex = w[:, 2 * picks:].reshape(rounds, count, 2 * (n + 2))
        normals = _box_muller(ex[..., 2:2 * n + 2]).reshape((rounds, count, *shape))
        return (_uniform(w[:, 0:2 * picks:2]), _uniform(ex[..., 0]), normals,
                _uniform(ex[..., 2 * n + 2]))

    def example_draws(self, count: int, shape):
        """(lead, normals, trail) for `count` examples in one draw: uniforms
        of shape (count,), normals of shape (count, *shape) and uniforms of
        shape (count,), laid out as the module docstring says.  Advances the
        counter by count * (prod(shape) + 2)."""
        _, lead, normals, trail = self._rounds(1, 0, count, shape)
        return lead[0], normals[0], trail[0]

    def step_draws(self, steps: int, size: int, population: int, shape):
        """(picks, lead, normals, trail) for `steps` steps of `size` examples
        in one draw: int64 picks in [0, population) of shape (steps, size),
        as `randint(population)` gives them, then each step's
        `example_draws(size, shape)` with a leading steps axis, laid out as
        the module docstring says.  Advances the counter by
        steps * size * (prod(shape) + 3)."""
        if population <= 0:
            raise ValueError(f"randint bound must be positive, got {population}")
        picks, lead, normals, trail = self._rounds(steps, size, size, shape)
        return (picks * population).astype(np.int64), lead, normals, trail

    def uniform(self) -> float:
        """One draw in [0, 1); advances counter by one."""
        word = _mix64(self.seed + (2 * self.counter + 1) * _GOLDEN)  # word(seed, 2c)
        self.counter += 1
        return (word >> 11) / _TWO53

    def randint(self, n: int) -> int:
        """One integer in [0, n); advances counter by one."""
        if n <= 0:
            raise ValueError(f"randint bound must be positive, got {n}")
        return int(self.uniform() * n)

    def derive(self, tag) -> "RngState":
        """Independent child stream named by `tag` (int or str), counter 0."""
        digest = hashlib.sha256(repr(tag).encode("utf-8")).digest()
        salt = int.from_bytes(digest[:8], "big")
        return RngState(seed=_mix64(self.seed ^ salt), counter=0)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax along the last axis, written into `x`, a float64
    ndarray, and returned; row-max subtraction keeps it from overflowing.

    No temporary of x's size is made.  The row max is taken with
    `np.fmax.reduce`, faster than `x.max`, which it equals but on a row
    holding NaN: fmax skips the NaN, max returns it.  Such a row comes out
    all NaN either way, so the result is the pure
    `e = exp(x - x.max(...)); e / e.sum(...)` bit for bit, but for the sign
    of a NaN (inf - inf gives a NaN of its own sign).
    """
    x -= np.fmax.reduce(x, axis=-1, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=-1, keepdims=True)
    return x


def row_index(cond, n: int):
    """(index, stack) of a sparse condition on an n-row stack, None or (rows,
    stack) with increasing rows and one stack entry each.  The index is a
    slice (a view) for one contiguous run, else the rows ([] for None)."""
    if cond is None:
        return [], None
    rows, stack = list(cond[0]), cond[1]
    if len(rows) != len(stack) or rows != sorted(set(rows)) or not all(0 <= r < n for r in rows):
        raise ValueError(f"a condition on a {n}-row stack needs increasing rows inside it and "
                         f"one entry per row, got rows {rows} for {len(stack)} entries")
    contiguous = rows and rows[-1] - rows[0] < len(rows)
    return (slice(rows[0], rows[-1] + 1) if contiguous else rows), stack


def row_summed_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Weight gradient of y = x @ W over (B, n, .) stacks: per-row GEMMs
    x_b^T dy_b summed in row order (one flattened GEMM would change the bits)."""
    return (x.swapaxes(-1, -2) @ dy).sum(axis=0)


def matmul_t(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y^T over the last two axes, multiplying by a contiguous copy of
    y^T so that BLAS runs its plain (NN) GEMM.  OpenBLAS's transposed-operand
    GEMM is the slower one at the model's shapes: a (4, 64, 32) stack times a
    32 x 32 transpose took 14.6 us, against 9.3 us copy included (OpenBLAS
    0.3.31, one thread).  The two layouts can round differently: each call
    site is one whose shapes the test suite checks to give the transposed
    form's bits."""
    return x @ np.ascontiguousarray(y.swapaxes(-1, -2))


def assert_all_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    """Raise FloatingPointError if `x` contains NaN or Inf."""
    if not np.isfinite(x).all():
        raise FloatingPointError(f"non-finite values in {what}")
    return x
