"""Staged optimization on a procedurally generated identity-texture dataset.

Stage 0 pretrains the backbone on unconditional plus text-conditional
denoising (a stand-in for the large pretrained model the real pipeline
assumes).  Stage 1 trains only the identity-injection parameters (pooler,
per-block feature heads, identity key/value projections) against references
of the same subject.  Stage 2 trains only the frequency-control branch
(projections and gates), conditioned on a band-filtered copy of the clean
latent.  Everything outside the active set stays bitwise frozen, tracked by
SHA-256 checksums.  `TrainConfig` alone states what each stage takes, and
every layer of a training step takes the config it runs.

Also houses the dataset generator (16 striped/spotted "subjects" on four
background classes), the orientation-histogram identity metric, JSON
checkpoints, and a finite-difference gradient check used as the training
oracle.  A dataset holds each split as the 8-bit levels its PPM files
store; an image is decoded to floats only where it is read.  `train`
prepares its inputs a chunk of steps at a time, at most `CHUNK_EXAMPLES`
examples: one RNG draw takes every step's picks, timesteps, noise and
dropout values, and one decode, encode, noising and band filter make the
chunk's latents, each row as its step alone would make it.  Each step then
takes its own rows.  A stage-1 run reads its references only through
the frozen tokenizer, whose tokens are the same at every step: `train`
decodes and tokenizes every train reference once per run, in stacks of at
most a batch, and each step gathers the tokens of its referenced rows.  The
test references, which every sampling trial reads, are decoded once, on
first read.

The one evaluation path, for the CLI and any script alike: `draw_trials`
draws guided samples and scores them against their references,
`paired_sweep` draws lambda values on the same trials and aggregates their
wins, and `held_out_losses` scores a model and band on noised test pairs
that depend on the seed alone.  It scores them in stacks of at most a
training batch, since a stacked forward keeps every block's cache: one
stack of all the pairs would peak above any training step.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .attention import check_identity_scale
from .config import ModelConfig, tiny_config
from .dct_freq import MaskKind, make_control_signal
from .diffusion import (ModelWeights, NoiseSchedule, PARAM_SETS, _build_weights,
                        denoiser_backward, denoiser_forward, forward_noise, init_weights,
                        latent_to_seq, linear_schedule, predict_eps, project_conditions,
                        sample, time_terms)
from .netpbm import decode_levels, ppm_levels, quantize
from .reference_encoder import (FrozenEncoders, build_encoders, encode_latent, extract_tokens,
                                reference_backward, reference_forward_train)
from .tensor_core import RngState

_LUMA = np.array([0.299, 0.587, 0.114])
_LUMA_ROW = _LUMA.reshape(1, 3)  # the weights as `np.tensordot` hands them to `np.dot`

STAGE_SETS = {0: "backbone", 1: "identity_adapter", 2: "control"}


class StageOrderError(RuntimeError):
    """Raised when a training stage runs before its prerequisite stage."""


# ---------------------------------------------------------------------------
# dataset


# the (least, greatest or None) value of each `ToyDatasetSpec` field
SPEC_BOUNDS = {"n_identities": (1, None), "n_contexts": (1, 4), "image_size": (8, None),
               "train_size": (1, None), "test_size": (1, None)}


def check_spec_field(name: str, value: int) -> None:
    """ValueError, naming the field, unless `value` lies in `SPEC_BOUNDS[name]`."""
    low, high = SPEC_BOUNDS[name]
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must be in {low}..{high}, got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class ToyDatasetSpec:
    n_identities: int = 16
    n_contexts: int = 4
    image_size: int = 32
    train_size: int = 512
    test_size: int = 64

    def __post_init__(self):
        for name, value in asdict(self).items():
            check_spec_field(name, value)


@dataclass(frozen=True)
class IdentityParams:
    angle: float            # stripe direction in [0, pi)
    freq: float             # stripe cycles across the frame
    spot_offsets: np.ndarray  # (n_spots, 2) unit offsets within the body disk
    color_a: np.ndarray     # bright stripe color
    color_b: np.ndarray     # dark stripe color


@dataclass(frozen=True)
class Sample:
    """One example, or a stack of them with a leading row axis on each field."""
    image: np.ndarray       # (3, S, S) floats in [0, 1], 8-bit quantized
    identity_id: int
    text_id: int            # background/context class


def labels(spec: ToyDatasetSpec, i):
    """(identity, context class) of sample `i` in either split: identities
    round-robin over the samples and context classes cycle above them.  `i`
    may be an int or an integer array."""
    return i % spec.n_identities, (i // spec.n_identities) % spec.n_contexts


# a dataset's level stacks, in the order they are hashed and stored
IMAGE_FIELDS = ("train_levels", "test_levels", "train_ref_levels", "test_ref_levels")


@dataclass
class Dataset:
    """Every label follows from `spec` (see `labels`); each identity has one
    reference per split.

    Each split is the C-ordered (N, S, S, 3) uint8 stack of 8-bit levels
    its P6 files store after their headers, one byte per level.  Images are
    decoded only where they are read, by `decode_levels`, the decoder
    `read_ppm` runs, so an image read from its file has the same bits: a
    training chunk decodes its own steps' images, and a stage-1 run each
    reference once, to tokenize it.  The one decoded copy kept is
    `test_refs`, on first read."""
    spec: ToyDatasetSpec
    seed: int
    train_levels: np.ndarray
    test_levels: np.ndarray
    train_ref_levels: np.ndarray
    test_ref_levels: np.ndarray

    @cached_property
    def test_refs(self) -> np.ndarray:
        """The (n_identities, 3, S, S) float64 test references, decoded on
        first read and kept: every sampling trial reads one."""
        return decode_levels(self.test_ref_levels)

    def train_sample(self, i) -> Sample:
        """Train example `i`, an int or an integer array of rows (then a
        stack, decoded with one divide)."""
        return Sample(decode_levels(self.train_levels[i]), *labels(self.spec, i))

    def test_sample(self, i) -> Sample:
        """Test example `i`, as `train_sample` gives a train example."""
        return Sample(decode_levels(self.test_levels[i]), *labels(self.spec, i))


def check_fits(dataset: Dataset, config: ModelConfig) -> None:
    """ValueError, naming both sizes, unless a model of `config` takes the
    dataset's image size and context classes: the rule `train`,
    `held_out_losses` and `paired_sweep` check before any work."""
    spec = dataset.spec
    if spec.image_size != config.image_size:
        raise ValueError(f"the model expects {config.image_size}px images "
                         f"but the dataset is {spec.image_size}px")
    if spec.n_contexts > config.n_text:
        raise ValueError(f"dataset has {spec.n_contexts} context classes but the "
                         f"model supports {config.n_text}")


def _scaled_color(rng: RngState, luma_target: float) -> np.ndarray:
    raw = np.array([rng.uniform(), rng.uniform(), rng.uniform()]) + 0.05
    return np.clip(raw * (luma_target / float(_LUMA @ raw)), 0.0, 1.0)


def identity_params(seed: int, identity_id: int, n_identities: int) -> IdentityParams:
    """Deterministic subject traits: evenly spaced stripe angles with jitter,
    a stripe frequency, a fixed spot layout, and a bright/dark color pair."""
    rng = RngState(seed).derive(("identity", identity_id))
    base = np.pi * identity_id / n_identities
    # jitter stays within a quarter of the spacing so neighbouring subjects
    # keep distinct stripe directions
    angle = (base + (rng.uniform() - 0.5) * np.pi / (4 * n_identities)) % np.pi
    freq = 3.0 + 3.0 * rng.uniform()
    n_spots = rng.randint(5)
    offsets = np.array([[(rng.uniform() - 0.5) * 1.2, (rng.uniform() - 0.5) * 1.2]
                        for _ in range(n_spots)]).reshape(n_spots, 2)
    color_a = _scaled_color(rng, 0.65 + 0.25 * rng.uniform())
    color_b = _scaled_color(rng, 0.08 + 0.17 * rng.uniform())
    return IdentityParams(angle=float(angle), freq=float(freq),
                          spot_offsets=offsets, color_a=color_a, color_b=color_b)


def _background(kind: int, size: int) -> np.ndarray:
    """Context backgrounds are fixed per class so the text condition fully
    determines them; only the subject pose varies within a class."""
    if kind == 0:    # plain
        return np.full((3, size, size), 0.52)
    if kind == 1:    # gradient
        ramp = np.linspace(0.30, 0.72, size)
        return np.broadcast_to(np.tile(ramp, (size, 1)), (3, size, size)).copy()
    if kind == 2:    # noise texture (one fixed pattern)
        pattern = RngState(0x0B0B).derive("bg-noise").normal((3, size, size))
        return np.clip(0.5 + 0.12 * pattern, 0.0, 1.0)
    if kind == 3:    # checker
        idx = np.add.outer(np.arange(size) // 8, np.arange(size) // 8) % 2
        plane = np.where(idx == 0, 0.35, 0.62)
        return np.broadcast_to(plane, (3, size, size)).copy()
    raise ValueError(f"unknown context class {kind}")


def _pixel_grid(size: int) -> np.ndarray:
    """Read-only (2, S, S) float pixel coordinates: rows, then columns."""
    grid = np.mgrid[0:size, 0:size].astype(float)
    grid.flags.writeable = False
    return grid


def render_sample(params: IdentityParams, bg: np.ndarray, grid: np.ndarray,
                  rng: RngState) -> np.ndarray:
    """One posed image of a subject on `bg`, a (3, S, S) context background
    from `_background`, as the (S, S, 3) 8-bit levels a P6 file stores
    (`ppm_levels`).  `grid` is `_pixel_grid(S)`.  Both are only read.

    Pose jitter is deliberately mild (phase, small rotation, small shift) so
    the stripe orientation remains the subject's signature.
    """
    size = bg.shape[-1]
    phase = (rng.uniform() - 0.5) * 0.5
    dtheta = (rng.uniform() - 0.5) * 0.08
    cx = size / 2.0 + (rng.uniform() - 0.5) * 1.2
    cy = size / 2.0 + (rng.uniform() - 0.5) * 1.2

    yy, xx = grid
    theta = params.angle + dtheta
    proj = ((xx - cx) * np.cos(theta) + (yy - cy) * np.sin(theta)) / size
    tex = 0.5 + 0.5 * np.sin(2.0 * np.pi * params.freq * proj + phase)
    body = params.color_a[:, None, None] * tex + params.color_b[:, None, None] * (1.0 - tex)

    radius = 0.42 * size
    dist = np.hypot(xx - cx, yy - cy)
    spot_color = 0.5 * params.color_b
    for dx, dy in params.spot_offsets:
        sd = np.hypot(xx - (cx + dx * radius), yy - (cy + dy * radius))
        m = np.clip((0.10 * size - sd) / 1.0 + 0.5, 0.0, 1.0)
        body = body * (1.0 - m) + spot_color[:, None, None] * m

    alpha = np.clip((radius - dist) / 1.5 + 0.5, 0.0, 1.0)
    return ppm_levels(bg * (1.0 - alpha) + body * alpha)


def generate_dataset(spec: ToyDatasetSpec, seed: int) -> Dataset:
    """Deterministic dataset: each sample posed as `labels` says, each
    reference rendered on the plain background.  Each context background
    is drawn once and shared by every image on it, as is the pixel grid."""
    params = [identity_params(seed, i, spec.n_identities)
              for i in range(spec.n_identities)]
    root = RngState(seed)
    s = spec.image_size
    backgrounds = [_background(kind, s) for kind in range(spec.n_contexts)]
    grid = _pixel_grid(s)

    def split(name: str, count: int):
        levels = np.empty((count, s, s, 3), dtype=np.uint8)
        for i in range(count):
            ident, text = labels(spec, i)
            levels[i] = render_sample(params[ident], backgrounds[text], grid,
                                      root.derive((name, i)))
        return levels

    def refs(name: str):
        levels = np.empty((spec.n_identities, s, s, 3), dtype=np.uint8)
        for i in range(spec.n_identities):
            levels[i] = render_sample(params[i], backgrounds[0], grid,
                                      root.derive(("ref", name, i)))
        return levels

    return Dataset(spec=spec, seed=seed,
                   train_levels=split("train", spec.train_size),
                   test_levels=split("test", spec.test_size),
                   train_ref_levels=refs("train"), test_ref_levels=refs("test"))


# ---------------------------------------------------------------------------
# identity metric


def orientation_histogram(img: np.ndarray) -> np.ndarray | None:
    """Magnitude-weighted 16-bin histogram of luma gradient orientations over
    [0, pi).  None for an (effectively) constant image; ValueError for an
    image less than 2 pixels high or wide.

    Mass is split linearly between the two nearest bin centers (circular in
    orientation), so the histogram varies smoothly with angle instead of
    jumping at bin edges.

    The histogram is, bit for bit, the one of the plain formula
    `luma = np.tensordot(_LUMA, img, axes=1)`, `gy, gx = np.gradient(luma)`,
    `ang = np.mod(np.arctan2(gy, gx), np.pi)`, without those functions'
    argument handling:
    - luma is the one `np.dot` of the (1, 3) weights and the (3, H*W) pixels
      that `tensordot` makes, on a C-ordered copy (on a strided view the
      sums round differently);
    - the gradient is unit-spacing `np.gradient`'s: central differences
      halved inside, one-sided differences at the edges;
    - an angle below 0 gains pi, as in `np.mod`.  `np.mod` also takes pi to
      0 and -0 to +0; left as they are, both land in the bins 0 does with
      the same weights (bin position 15.5 or -0.5, each split evenly
      between bins 15 and 0);
    - the bin indices wrap with `& 15`, which equals `% 16` on integers.
    """
    x = np.ascontiguousarray(img, dtype=np.float64)
    h, w = x.shape[-2:]
    if h < 2 or w < 2:
        raise ValueError(f"an orientation histogram needs an image of at least 2x2 "
                         f"pixels, got {w}x{h}")
    luma = np.dot(_LUMA_ROW, x.reshape(3, h * w)).reshape(h, w)
    gy, gx = np.empty((h, w)), np.empty((h, w))
    for g, f in ((gy, luma), (gx.T, luma.T)):  # each along its first axis
        np.subtract(f[2:], f[:-2], out=g[1:-1])
        g[1:-1] /= 2.0
        np.subtract(f[1], f[0], out=g[0])
        np.subtract(f[-1], f[-2], out=g[-1])
    mag = np.hypot(gx, gy).ravel()
    total = mag.sum()
    if total <= 1e-12:
        return None
    ang = np.arctan2(gy, gx).ravel()
    np.add(ang, np.pi, out=ang, where=ang < 0)
    bins = 16
    pos = ang  # ang / pi * bins - 0.5, in place
    pos /= np.pi
    pos *= bins
    pos -= 0.5
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    hist = np.bincount(lo & (bins - 1), weights=mag * (1.0 - frac), minlength=bins)
    lo += 1
    lo &= bins - 1
    hist += np.bincount(lo, weights=mag * frac, minlength=bins)
    hist /= total
    return hist


def identity_metric_flagged(generated: np.ndarray, reference: np.ndarray):
    """(cosine similarity of orientation histograms, degenerate flag)."""
    if generated.shape != reference.shape:
        raise ValueError(
            f"image shapes differ: {generated.shape} vs {reference.shape}"
        )
    ha = orientation_histogram(generated)
    hb = orientation_histogram(reference)
    if ha is None or hb is None:
        return 0.0, True
    if np.array_equal(ha, hb):
        return 1.0, False  # exact self-similarity, no roundoff
    # np.linalg.norm's sqrt(h.dot(h)), and np.clip's bounds, without their dispatch
    value = float(ha @ hb / (math.sqrt(ha.dot(ha)) * math.sqrt(hb.dot(hb))))
    return min(max(value, -1.0), 1.0), False


# ---------------------------------------------------------------------------
# losses


@dataclass
class PreparedBatch:
    """One noised training batch: a row per example.  ref and ctrl are None
    or (rows, stack), increasing row numbers and, for each, the frozen
    tokens of its reference (`extract_tokens`) or its control latent."""
    z_t: np.ndarray  # (B, C, h, w)
    t: list[int]
    eps: np.ndarray  # (B, C, h, w)
    text_id: list[int | None]
    ref: tuple | None
    ctrl: tuple | None


# share of stage-0/1 examples whose text and reference are dropped, so the
# model also learns the unconditional prediction classifier-free guidance needs
COND_DROPOUT = 0.1


def _prepare(batch: Sample, draws: tuple, ref_tokens: np.ndarray | None,
             schedule: NoiseSchedule, enc: FrozenEncoders, config: TrainConfig,
             cond_dropout: float) -> list[PreparedBatch]:
    """Noise a stacked `batch` (see `Sample`) for consecutive steps of
    `config`'s stage, one `PreparedBatch` per step.  `draws` holds each
    example's timestep uniform, noise and dropout uniform, with a leading
    (steps, size) axis pair as `RngState.step_draws` gives them; row
    s * size + i of `batch` is step s's example i.  The whole stack is
    encoded, noised and band-filtered at once, and each row's values are
    those of its step alone.  `ref_tokens` is None or the run's
    reference tokens, one reference per identity id; stage 1 gathers those
    of the rows it keeps."""
    stage = config.stage
    u_t, eps, u_drop = draws
    steps, size = u_t.shape
    z0 = encode_latent(batch.image, enc)
    eps = eps.reshape(z0.shape)
    t = (1 + (u_t.ravel() * schedule.timesteps).astype(np.int64)).tolist()  # as randint draws it
    # the dropout value is drawn at every stage and used by stages 0 and 1
    kept = (u_drop.ravel() >= cond_dropout).tolist() if stage <= 1 else [True] * len(t)
    z_t = forward_noise(z0, t, eps, schedule)
    ctrl = make_control_signal(z0, config.mask_kind) if stage == 2 else None
    text_id = [int(text) if keep else None for text, keep in zip(batch.text_id, kept)]
    identity_id = np.asarray(batch.identity_id)
    prepared = []
    for lo in range(0, steps * size, size):
        step = slice(lo, lo + size)
        rows = [i for i, keep in enumerate(kept[step]) if keep]
        prepared.append(PreparedBatch(
            z_t=z_t[step], t=t[step], eps=eps[step], text_id=text_id[step],
            ref=(rows, ref_tokens[identity_id[step][rows]]) if stage == 1 and rows else None,
            ctrl=(range(size), ctrl[step]) if stage == 2 else None))
    return prepared


def batch_loss(weights: ModelWeights, batch: PreparedBatch, config: TrainConfig,
               compute_grads: bool = True):
    """Mean-squared noise-prediction error and analytic gradients of the
    trainable set of `config`'s stage, at `config.identity_scale`.

    The batch runs as one stacked denoiser forward and one backward, which
    differentiates only that set (see `denoiser_backward`); the reference
    branch runs once forward and once backward over the referenced rows.
    `compute_grads=False` skips the backward and returns an empty gradient
    dict.
    """
    n = len(batch.z_t)
    identity = rcache = None
    # scale 0 runs no cross term, as in `sample`; only a stage-1 config holds another
    if batch.ref is not None and config.identity_scale != 0.0:
        feats, rcache = reference_forward_train(batch.ref[1], weights.projection,
                                                weights.id_heads())
        identity = (batch.ref[0], feats)
    cond = project_conditions(weights, batch.text_id, identity, batch.ctrl,
                              config.identity_scale)
    pred_seq, dcache = denoiser_forward(weights, latent_to_seq(batch.z_t),
                                        time_terms(weights, batch.t, cond), cond)
    diff = pred_seq - latent_to_seq(batch.eps)
    loss = sum((diff ** 2).mean(axis=(1, 2)).tolist()) / n  # the row means, summed in order
    if not compute_grads:
        return loss, {}
    sets = (STAGE_SETS[config.stage],)
    grads, didentity = denoiser_backward((2.0 / (diff[0].size * n)) * diff, dcache, sets)
    params = weights.params()
    acc = {name: grads[name] if name in grads else np.zeros(params[name].shape)
           for name in weights.names_in_set(sets[0])}
    if rcache is not None:
        # the cross term ran in every block for the referenced rows, so each didentity is set
        rgrads = reference_backward(didentity, rcache)
        acc["proj.queries"] += rgrads["queries"]
        acc["proj.w_key"] += rgrads["w_key"]
        acc["proj.w_value"] += rgrads["w_value"]
        for k, dh in enumerate(rgrads["heads"]):
            acc[f"blocks.{k}.id_head"] += dh
    return loss, acc


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    """First and second moments of the named parameters, each one flat
    vector holding the parameters in sorted-name order."""
    names: tuple[str, ...]
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(params: dict[str, np.ndarray], names) -> AdamState:
    names = tuple(sorted(names))
    size = sum(params[n].size for n in names)
    return AdamState(names=names, m=np.zeros(size), v=np.zeros(size))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """In-place Adam update of the parameters `state` was built for, whose
    gradients `grads` names exactly (else ValueError).  The moments update
    over the flat vectors, elementwise, so each value is the one a loop
    over the parameters would give."""
    if sorted(grads) != list(state.names):
        raise ValueError(f"Adam state holds {list(state.names)}, got grads for {sorted(grads)}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    g = np.concatenate([grads[name].ravel() for name in state.names])
    m, v = state.m, state.v
    m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
    update = lr * ((m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))
    start = 0
    for name in state.names:
        p = params[name]
        p -= update[start:start + p.size].reshape(p.shape)
        start += p.size


# ---------------------------------------------------------------------------
# train loop


@dataclass(frozen=True)
class TrainConfig:
    """One stage's run, and the one statement of what each stage takes: a
    mask kind at stage 2 and only there, and an identity scale in [0, 1]
    that is not 0 at stage 1.  Stages 0 and 2 never run the identity
    branch, so they hold any valid scale as 0.0.  Every stage takes an
    `lr` above 0; an infinite one is left to `train`'s finite-weight guard.
    A step's layers (`_prepare`, `batch_loss`) take the config itself."""
    stage: int
    steps: int
    lr: float = 1e-3
    batch_size: int = 4
    seed: int = 0
    identity_scale: float = 1.0
    mask_kind: MaskKind | None = None

    def __post_init__(self):
        if self.stage not in (0, 1, 2):
            raise ValueError(f"stage must be 0, 1 or 2, got {self.stage}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.lr > 0:  # NaN too
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if (self.mask_kind is None) == (self.stage == 2):
            if self.stage == 2:
                raise ValueError("stage 2 requires a mask kind (--mask "
                                 f"{{{','.join(k.value for k in MaskKind)}}})")
            raise ValueError("a mask kind (--mask) applies only to stage 2")
        check_identity_scale(self.identity_scale)
        if self.stage != 1:
            object.__setattr__(self, "identity_scale", 0.0)
        elif self.identity_scale == 0.0:
            raise ValueError("--lambda 0 skips the identity cross term, so stage 1 would "
                             "train nothing")


@dataclass
class TrainReport:
    stage: int
    steps: int
    losses: list[float]
    initial_loss: float
    final_loss: float
    smoothing_window: int
    initial_smoothed: float
    final_smoothed: float
    trainable_set: str
    frozen_before: dict[str, str]
    frozen_after: dict[str, str]
    wall_clock_s: float
    config: dict

    def to_dict(self) -> dict:
        """Every field but the wall-clock time, which varies run to run and
        goes to its own timing file."""
        fields = asdict(self)
        del fields["wall_clock_s"]
        return fields


def smoothing_window(steps: int) -> int:
    return max(1, min(50, steps // 10))


# examples `train` draws and prepares at once, in whole steps and at least
# one.  A chunk takes one RNG draw, decode, encode, noising and band filter
# for all its steps; prepared one step at a time they cost about 0.24 ms of
# a 1.2 ms stage-2 step.  A chunk's decoded images and patches are live at
# once: a 25-step train() call (toy config, batch 4) peaked 144 KiB above
# one-step chunks at stage 1 with 16 examples, 332 KiB with 32 and 1.1 MB
# with 64 (tracemalloc).
CHUNK_EXAMPLES = 16


# a step loss above this multiple of the first step's loss counts as divergence
DIVERGENCE_FACTOR = 1e3


def train(config: TrainConfig, dataset: Dataset, weights: ModelWeights,
          schedule: NoiseSchedule | None = None,
          enc: FrozenEncoders | None = None) -> TrainReport:
    """Run one stage; updates `weights` in place and returns the report.

    Stages must run in order 0 -> 1 -> 2; the two non-active parameter sets
    are frozen and their checksums verified after the run.  The stage runs
    at `config.identity_scale` as `TrainConfig` holds it.  A non-finite
    step loss, a step loss above DIVERGENCE_FACTOR times the first step's,
    or a non-finite trained weight after the last step raises
    FloatingPointError (the weights are then unusable; save nothing).
    """
    stage = config.stage
    missing = [s for s in range(stage) if s not in weights.completed_stages]
    if missing:
        raise StageOrderError(f"stage(s) {missing} must run before stage {stage}")
    check_fits(dataset, weights.config)

    schedule = schedule or linear_schedule(weights.config.timesteps)
    enc = enc or build_encoders(weights.config)
    trainable = STAGE_SETS[stage]
    frozen_before = {s: weights.checksum(s) for s in PARAM_SETS if s != trainable}

    params = weights.params()
    adam = init_adam(params, weights.names_in_set(trainable))
    rng = RngState(config.seed).derive(("train", stage))

    t_start = time.perf_counter()
    ref_tokens = None
    if stage == 1:
        # a reference's tokens are the same at every step: tokenize each once,
        # decoding at most a batch of references at a time
        levels, size = dataset.train_ref_levels, config.batch_size
        ref_tokens = np.concatenate([extract_tokens(decode_levels(levels[lo:lo + size]), enc)
                                     for lo in range(0, len(levels), size)])

    def batches():
        # a run of no steps still scores one batch
        total, size = max(config.steps, 1), config.batch_size
        per_chunk = max(1, CHUNK_EXAMPLES // size)  # whole steps, at least one
        latent = (weights.config.latent_channels, weights.config.latent_hw,
                  weights.config.latent_hw)
        for lo in range(0, total, per_chunk):
            picks, *draws = rng.step_draws(min(per_chunk, total - lo), size,
                                           dataset.spec.train_size, latent)
            # the chunk's decoded images are freed once `_prepare` has noised their latents
            yield from _prepare(dataset.train_sample(picks.ravel()), draws, ref_tokens,
                                schedule, enc, config, COND_DROPOUT)

    prepared = batches()
    losses: list[float] = []
    if config.steps == 0:
        initial = final = batch_loss(weights, next(prepared), config, compute_grads=False)[0]
    else:
        # the checks below name any overflow, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            for step, batch in enumerate(prepared):
                loss, grads = batch_loss(weights, batch, config)
                if not math.isfinite(loss):
                    raise FloatingPointError(f"stage {stage} step {step}: loss is {loss}")
                if losses and loss > DIVERGENCE_FACTOR * losses[0]:
                    raise FloatingPointError(
                        f"stage {stage} step {step}: loss {loss:.4g} diverged past "
                        f"{DIVERGENCE_FACTOR:g} times the first step's {losses[0]:.4g}")
                adam_step(params, grads, adam, config.lr)
                losses.append(loss)
        for name in weights.names_in_set(trainable):
            if not np.all(np.isfinite(params[name])):
                raise FloatingPointError(
                    f"stage {stage}: parameter {name} is not finite after {config.steps} steps")
        initial, final = losses[0], losses[-1]
    wall = time.perf_counter() - t_start

    frozen_after = {s: weights.checksum(s) for s in frozen_before}
    for s in frozen_before:
        if frozen_after[s] != frozen_before[s]:
            raise RuntimeError(f"frozen set {s} changed during stage {stage}")

    if stage not in weights.completed_stages:
        weights.completed_stages.append(stage)

    window = smoothing_window(config.steps)
    if losses:
        initial_smoothed = float(np.mean(losses[:window]))
        final_smoothed = float(np.mean(losses[-window:]))
    else:
        initial_smoothed = final_smoothed = initial
    return TrainReport(
        stage=stage, steps=config.steps, losses=losses,
        initial_loss=float(initial), final_loss=float(final),
        smoothing_window=window, initial_smoothed=initial_smoothed,
        final_smoothed=final_smoothed, trainable_set=trainable,
        frozen_before=frozen_before, frozen_after=frozen_after,
        wall_clock_s=float(wall), config=asdict(config),
    )


# ---------------------------------------------------------------------------
# evaluation


def draw_trials(weights: ModelWeights, enc: FrozenEncoders, schedule: NoiseSchedule,
                seed: int, steps: int, guidance: float, trials) -> list[tuple]:
    """(image, identity metric, degenerate flag) of each trial `(rng tag,
    reference or None, text id, mask or None, lambda)`: the guided DDIM
    sample from `seed`'s stream for the tag at `steps` and `guidance`,
    snapped to 8-bit levels and scored against the reference, (None, None)
    without one.  Every image is drawn before this returns, so a numerical
    failure leaves nothing to write."""
    drawn = []
    for tag, ref, text_id, mask, lam in trials:
        img, _ = sample(weights, enc, schedule, RngState(seed).derive(tag), ref_img=ref,
                        text_id=text_id, mask_kind=mask, steps=steps, guidance=guidance,
                        identity_scale=lam)
        quant = quantize(img)
        scored = (None, None) if ref is None else identity_metric_flagged(quant, ref)
        drawn.append((quant, *scored))
    return drawn


def paired_sweep(weights: ModelWeights, enc: FrozenEncoders, schedule: NoiseSchedule,
                 dataset: Dataset, values: list[float], trials: int, seed: int, steps: int,
                 guidance: float) -> tuple[list[list[tuple]], dict]:
    """Each lambda in `values` drawn on the same `trials` trials: trial t
    samples text 0 from `seed`'s ("sweep", t) stream against the test
    reference of identity t % n_identities.  Returns (drawn, aggregate):
    drawn[v] is the `draw_trials` list of values[v], and aggregate maps
    str(lambda) to its mean and std identity metric and its wins (and win
    rate) against values[0] on the same trial."""
    check_fits(dataset, weights.config)
    drawn = draw_trials(weights, enc, schedule, seed, steps, guidance, [
        (("sweep", t), dataset.test_refs[t % dataset.spec.n_identities], 0, None, lam)
        for lam in values for t in range(trials)])
    by_value = [drawn[v * trials:(v + 1) * trials] for v in range(len(values))]
    metrics = [[metric for _, metric, _ in own] for own in by_value]
    aggregate = {}
    for lam, own in zip(values, metrics):
        wins = sum(1 for a, b in zip(own, metrics[0]) if a > b)
        aggregate[str(lam)] = {"mean": float(np.mean(own)), "std": float(np.std(own)),
                               "wins_vs_first": wins, "win_rate_vs_first": wins / trials}
    return by_value, aggregate


def held_out_losses(weights: ModelWeights, enc: FrozenEncoders, schedule: NoiseSchedule,
                    dataset: Dataset, size: int, seed: int,
                    mask_kind: MaskKind | None) -> list[tuple[int, float]]:
    """(timestep, mean-squared noise-prediction error) of each of the first
    `size` test examples (all of them if fewer), in order, at their text
    ids.  `seed`'s "ablate-eval" stream draws each example's timestep in
    [1, T] and then its noise, so every model and band is scored on the
    same pairs.  Under `mask_kind` each example is controlled by its own
    latent's band.

    The pairs are scored in consecutive stacks of at most
    `TrainConfig.batch_size` rows, so no evaluation is wider than a
    training batch: a stack's forward holds every block's cache at once,
    and its memory grows with the stack.  Each row equals its one-row call
    bit for bit, so the chunking changes no score."""
    check_fits(dataset, weights.config)
    rng = RngState(seed).derive("ablate-eval")
    held_out = dataset.test_sample(np.arange(min(size, dataset.spec.test_size)))
    z0 = encode_latent(held_out.image, enc)
    ts, eps = [], []
    for _ in range(len(z0)):
        ts.append(1 + rng.randint(schedule.timesteps))
        eps.append(rng.normal(z0.shape[1:]))
    eps = np.stack(eps)
    z_t = forward_noise(z0, ts, eps, schedule)
    ctrl = None if mask_kind is None else make_control_signal(z0, mask_kind)
    text_ids, losses = held_out.text_id.tolist(), []
    for lo in range(0, len(z0), TrainConfig.batch_size):
        rows = slice(lo, min(lo + TrainConfig.batch_size, len(z0)))
        cond = project_conditions(weights, text_ids[rows], ctrl=None if ctrl is None
                                  else (range(rows.stop - lo), ctrl[rows]))
        pred = predict_eps(weights, z_t[rows], time_terms(weights, ts[rows], cond), cond)
        losses += [float(np.mean((p - e) ** 2)) for p, e in zip(pred, eps[rows])]
    return list(zip(ts, losses))


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_SCHEMA = 4
_PARAM_DTYPE = np.dtype("<f8")  # a parameter's stored bytes, in C order


def write_json(path, payload: dict) -> None:
    """Write `payload` as sorted, indented JSON, atomically: into a temp file
    beside `path`, then renamed over it, so a write that fails part way
    leaves any earlier file intact and no partial file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, weights: ModelWeights) -> None:
    """Sorted JSON: schema version, config, completed stages, each set's
    SHA-256 and, per parameter, its shape and its bytes as `_PARAM_DTYPE`
    in base64, so the round trip is exact and the same weights give the
    same file."""
    write_json(path, {
        "schema_version": CHECKPOINT_SCHEMA,
        "config": asdict(weights.config),
        "completed_stages": sorted(weights.completed_stages),
        "set_checksums": {s: weights.checksum(s) for s in PARAM_SETS},
        "params": {name: {"shape": list(arr.shape),
                          "data": base64.b64encode(
                              np.ascontiguousarray(arr, dtype=_PARAM_DTYPE)).decode("ascii")}
                   for name, arr in sorted(weights.params().items())},
    })


def load_checkpoint(path) -> ModelWeights:
    """The weights `save_checkpoint` wrote.  Raises ValueError for another
    schema, a parameter whose name, shape, base64 or byte count does not
    fit the config, a non-finite value, completed stages that are not a
    prefix of [0, 1, 2], or a set checksum that is missing or does not
    match."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"checkpoint schema {payload.get('schema_version')!r} unsupported "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    config = ModelConfig(**payload["config"])
    # every parameter is overwritten below, so build zeros and draw no RNG
    weights = _build_weights(config, lambda tag, shape, scale: np.zeros(shape))
    params = weights.params()
    stored = payload["params"]
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise ValueError(f"checkpoint parameter mismatch: missing {missing}, extra {extra}")
    for name, arr in params.items():
        entry = stored[name]
        if tuple(entry["shape"]) != arr.shape:
            raise ValueError(
                f"checkpoint shape for {name}: {entry['shape']} vs {list(arr.shape)}"
            )
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except binascii.Error as exc:
            raise ValueError(f"checkpoint data for {name} is not base64: {exc}") from None
        if len(raw) != arr.nbytes:
            raise ValueError(f"checkpoint data for {name}: {len(raw)} bytes, "
                             f"expected {arr.nbytes}")
        arr[:] = np.frombuffer(raw, dtype=_PARAM_DTYPE).reshape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint parameter {name} is not finite")
    stages = payload.get("completed_stages", [])
    # stages complete in order, and `save_checkpoint` sorts them
    if not (isinstance(stages, list) and all(type(s) is int for s in stages)
            and stages == [0, 1, 2][:len(stages)]):
        raise ValueError(f"checkpoint completed_stages must be a prefix of [0, 1, 2], "
                         f"got {stages!r}")
    weights.completed_stages.extend(stages)
    stored_checksums = payload["set_checksums"]
    for s in PARAM_SETS:
        if stored_checksums.get(s) != weights.checksum(s):
            raise ValueError(f"checkpoint checksum for set {s} is missing or does not match")
    return weights


# ---------------------------------------------------------------------------
# gradient check


def _rel_err(ga: float, gfd: float) -> float:
    # mixed relative/absolute: the floor keeps finite-difference roundoff on
    # near-zero gradients from registering as spurious failures
    return abs(ga - gfd) / max(abs(ga) + abs(gfd), 1e-6)


def gradient_check(stage: int, seed: int) -> dict:
    """Compare analytic gradients of the stage loss against central finite
    differences for every parameter in the stage's trainable set.

    Runs at tiny dims on a synthetic 2-sample batch; all weights (including
    the normally zero-initialized ones) are randomized first, since a zero
    point would hide sign and transposition bugs.
    """
    config = tiny_config()
    step = 1e-5
    weights = init_weights(config, seed)
    rng = RngState(seed).derive("gradcheck")
    for name, arr in weights.params().items():
        arr[:] = rng.derive(("point", name)).normal(arr.shape) * 0.3
    enc = build_encoders(config)
    schedule = linear_schedule(config.timesteps)

    def rand_image():
        raw = 0.5 + 0.25 * rng.normal((3, config.image_size, config.image_size))
        return np.clip(raw, 0.0, 1.0)

    images, refs = zip(*[(rand_image(), rand_image()) for _ in range(2)])  # image, then ref
    batch = Sample(np.stack(images), [0, 1], [i % config.n_text for i in range(2)])
    run = TrainConfig(stage=stage, steps=0, identity_scale=0.4,
                      mask_kind=MaskKind.LOW if stage == 2 else None)
    # the batch is one step; its identity ids are its row numbers, so row i's tokens are refs[i]'s
    draws = rng.derive("noise").example_draws(2, (config.latent_channels, config.latent_hw,
                                                  config.latent_hw))
    prepared, = _prepare(batch, [d[None] for d in draws], extract_tokens(np.stack(refs), enc),
                         schedule, enc, run, 0.0)

    def loss_only():
        return batch_loss(weights, prepared, run, compute_grads=False)[0]

    loss, grads = batch_loss(weights, prepared, run)

    params = weights.params()
    per_param: dict[str, float] = {}
    for name in sorted(grads):
        arr = params[name]
        worst = 0.0
        flat = arr.ravel()
        gflat = grads[name].ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = loss_only()
            flat[i] = keep - step
            down = loss_only()
            flat[i] = keep
            worst = max(worst, _rel_err(float(gflat[i]), (up - down) / (2 * step)))
        per_param[name] = worst
    max_err = max(per_param.values())
    return {
        "stage": stage,
        "trainable_set": STAGE_SETS[stage],
        "loss": float(loss),
        "tolerance": 1e-4,
        "per_param_max_rel_err": per_param,
        "max_rel_err": float(max_err),
        "pass": bool(max_err <= 1e-4),
    }


def dataset_checksum(dataset: Dataset) -> str:
    """The checksum a schema-3 dataset index records: the SHA-256 of the
    spec and the seed as sorted JSON, then the train and the test split's
    `labels` (identity ids, then context ids) as little-endian int64, then
    each split's stored levels in `IMAGE_FIELDS` order, one update per
    split.  Those levels are every image's 8-bit levels in P6 raster order,
    the bytes the dataset's PPM files store after their headers."""
    spec = dataset.spec
    header = json.dumps({"seed": int(dataset.seed), "spec": asdict(spec)}, sort_keys=True)
    digest = hashlib.sha256(header.encode())
    for count in (spec.train_size, spec.test_size):
        for arr in labels(spec, np.arange(count, dtype=np.int64)):
            digest.update(np.asarray(arr, dtype="<i8"))
    for name in IMAGE_FIELDS:
        digest.update(getattr(dataset, name))
    return digest.hexdigest()

