"""Staged optimization on a procedurally generated identity-texture dataset.

Stage 0 pretrains the backbone on unconditional plus text-conditional
denoising (a stand-in for the large pretrained model the real pipeline
assumes).  Stage 1 trains only the identity-injection parameters (pooler,
per-block feature heads, identity key/value projections) against references
of the same subject.  Stage 2 trains only the frequency-control branch
(projections and gates), conditioned on a band-filtered copy of the clean
latent.  Everything outside the active set stays bitwise frozen, tracked by
SHA-256 checksums.

Also houses the dataset generator (16 striped/spotted "subjects" on four
background classes), the orientation-histogram identity metric, JSON
checkpoints, and a finite-difference gradient check used as the training
oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attention import check_identity_scale
from .config import ModelConfig, tiny_config
from .dct_freq import MaskKind, make_control_signal
from .diffusion import (ModelWeights, NoiseSchedule, PARAM_SETS, denoiser_backward,
                        denoiser_forward, forward_noise, init_weights, latent_to_seq,
                        linear_schedule, reaches)
from .netpbm import quantize
from .reference_encoder import (FrozenEncoders, build_encoders, encode_latent,
                                reference_backward, reference_forward_train)
from .tensor_core import RngState

_LUMA = np.array([0.299, 0.587, 0.114])

STAGE_SETS = {0: "backbone", 1: "identity_adapter", 2: "control"}


class StageOrderError(RuntimeError):
    """Raised when a training stage runs before its prerequisite stage."""


# ---------------------------------------------------------------------------
# dataset


@dataclass(frozen=True)
class ToyDatasetSpec:
    n_identities: int = 16
    n_contexts: int = 4
    image_size: int = 32
    train_size: int = 512
    test_size: int = 64

    def __post_init__(self):
        if self.n_identities < 1:
            raise ValueError(f"n_identities must be >= 1, got {self.n_identities}")
        if not 1 <= self.n_contexts <= 4:
            raise ValueError(f"n_contexts must be in 1..4, got {self.n_contexts}")
        if self.image_size < 8:
            raise ValueError(f"image_size must be >= 8, got {self.image_size}")
        if self.train_size < 1 or self.test_size < 1:
            raise ValueError("split sizes must be >= 1")

    def to_dict(self) -> dict:
        return dict(n_identities=self.n_identities, n_contexts=self.n_contexts,
                    image_size=self.image_size, train_size=self.train_size,
                    test_size=self.test_size)

    @classmethod
    def from_dict(cls, d: dict) -> "ToyDatasetSpec":
        return cls(**d)


@dataclass(frozen=True)
class IdentityParams:
    angle: float            # stripe direction in [0, pi)
    freq: float             # stripe cycles across the frame
    spot_offsets: np.ndarray  # (n_spots, 2) unit offsets within the body disk
    color_a: np.ndarray     # bright stripe color
    color_b: np.ndarray     # dark stripe color


@dataclass(frozen=True)
class Sample:
    image: np.ndarray       # (3, S, S) floats in [0, 1], 8-bit quantized
    identity_id: int
    text_id: int            # background/context class
    ref: np.ndarray         # reference image of the same identity


@dataclass
class Dataset:
    spec: ToyDatasetSpec
    seed: int
    train_images: np.ndarray
    train_identity: np.ndarray
    train_text: np.ndarray
    test_images: np.ndarray
    test_identity: np.ndarray
    test_text: np.ndarray
    train_refs: np.ndarray  # (n_identities, 3, S, S)
    test_refs: np.ndarray

    def train_sample(self, i: int) -> Sample:
        ident = int(self.train_identity[i])
        return Sample(self.train_images[i], ident, int(self.train_text[i]),
                      self.train_refs[ident])

    def test_sample(self, i: int) -> Sample:
        ident = int(self.test_identity[i])
        return Sample(self.test_images[i], ident, int(self.test_text[i]),
                      self.test_refs[ident])


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


def render_sample(params: IdentityParams, size: int, context: int,
                  rng: RngState) -> np.ndarray:
    """One posed image of a subject on a context background.

    Pose jitter is deliberately mild (phase, small rotation, small shift) so
    the stripe orientation remains the subject's signature.
    """
    phase = (rng.uniform() - 0.5) * 0.5
    dtheta = (rng.uniform() - 0.5) * 0.08
    cx = size / 2.0 + (rng.uniform() - 0.5) * 1.2
    cy = size / 2.0 + (rng.uniform() - 0.5) * 1.2
    bg = _background(context, size)

    yy, xx = np.mgrid[0:size, 0:size].astype(float)
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
    return quantize(bg * (1.0 - alpha) + body * alpha)


def generate_dataset(spec: ToyDatasetSpec, seed: int) -> Dataset:
    """Deterministic dataset: identities round-robin over samples, context
    classes cycling above them, references rendered on plain backgrounds."""
    params = [identity_params(seed, i, spec.n_identities)
              for i in range(spec.n_identities)]
    root = RngState(seed)
    s = spec.image_size

    def split(name: str, count: int):
        images = np.empty((count, 3, s, s))
        idents = np.empty(count, dtype=np.int64)
        texts = np.empty(count, dtype=np.int64)
        for i in range(count):
            ident = i % spec.n_identities
            text = (i // spec.n_identities) % spec.n_contexts
            images[i] = render_sample(params[ident], s, text,
                                      root.derive((name, i)))
            idents[i] = ident
            texts[i] = text
        return images, idents, texts

    def refs(name: str):
        out = np.empty((spec.n_identities, 3, s, s))
        for i in range(spec.n_identities):
            out[i] = render_sample(params[i], s, 0, root.derive(("ref", name, i)))
        return out

    train_images, train_identity, train_text = split("train", spec.train_size)
    test_images, test_identity, test_text = split("test", spec.test_size)
    return Dataset(spec=spec, seed=seed,
                   train_images=train_images, train_identity=train_identity,
                   train_text=train_text, test_images=test_images,
                   test_identity=test_identity, test_text=test_text,
                   train_refs=refs("train"), test_refs=refs("test"))


# ---------------------------------------------------------------------------
# identity metric


def orientation_histogram(img: np.ndarray, bins: int = 16) -> np.ndarray | None:
    """Magnitude-weighted histogram of luma gradient orientations over
    [0, pi).  None for an (effectively) constant image.

    Mass is split linearly between the two nearest bin centers (circular in
    orientation), so the histogram varies smoothly with angle instead of
    jumping at bin edges.
    """
    luma = np.tensordot(_LUMA, np.asarray(img, dtype=np.float64), axes=1)
    gy, gx = np.gradient(luma)
    mag = np.hypot(gx, gy).ravel()
    total = mag.sum()
    if total <= 1e-12:
        return None
    ang = np.mod(np.arctan2(gy, gx), np.pi).ravel()
    pos = ang / np.pi * bins - 0.5
    lo = np.floor(pos).astype(int)
    frac = pos - lo
    hist = (np.bincount(lo % bins, weights=mag * (1.0 - frac), minlength=bins)
            + np.bincount((lo + 1) % bins, weights=mag * frac, minlength=bins))
    return hist / total


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
    value = ha @ hb / (np.linalg.norm(ha) * np.linalg.norm(hb))
    return float(np.clip(value, -1.0, 1.0)), False


# ---------------------------------------------------------------------------
# losses


@dataclass
class PreparedExample:
    z_t: np.ndarray
    t: int
    eps: np.ndarray
    text_id: int | None
    ref: np.ndarray | None
    ctrl: np.ndarray | None


def _prepare(batch: list[Sample], weights: ModelWeights, schedule: NoiseSchedule,
             rng: RngState, enc: FrozenEncoders, stage: int,
             cond_dropout: float, mask_kind: MaskKind | None) -> list[PreparedExample]:
    out = []
    for sample in batch:
        z0 = encode_latent(sample.image, enc)
        t = 1 + rng.randint(schedule.timesteps)
        eps = rng.normal(z0.shape)
        u = rng.uniform()
        dropped = stage <= 1 and u < cond_dropout
        text_id = None if dropped else sample.text_id
        ref = sample.ref if (stage == 1 and not dropped) else None
        ctrl = make_control_signal(z0, mask_kind) if stage == 2 else None
        out.append(PreparedExample(z_t=forward_noise(z0, t, eps, schedule),
                                   t=t, eps=eps, text_id=text_id, ref=ref,
                                   ctrl=ctrl))
    return out


def batch_loss(weights: ModelWeights, enc: FrozenEncoders,
               prepared: list[PreparedExample], stage: int,
               identity_scale: float, compute_grads: bool = True):
    """Mean-squared noise-prediction error and analytic gradients of the
    stage's trainable set.

    The backward differentiates only that set (see `denoiser_backward`); an
    example whose forward gives none of it a gradient (in stage 1, one
    whose conditioning was dropped) skips its backward.  `compute_grads=False`
    skips every backward and returns an empty gradient dict.
    """
    sets = (STAGE_SETS[stage],)
    names = weights.names_in_set(STAGE_SETS[stage])
    params = weights.params()
    acc = {name: np.zeros_like(params[name]) for name in names} if compute_grads else {}
    n = len(prepared)
    total = 0.0
    for ex in prepared:
        feats = rcache = None
        if ex.ref is not None and identity_scale != 0.0:
            feats, rcache = reference_forward_train(ex.ref, weights.projection,
                                                    weights.id_heads(), enc)
        ctrl_seq = latent_to_seq(ex.ctrl) if ex.ctrl is not None else None
        pred_seq, dcache = denoiser_forward(weights, latent_to_seq(ex.z_t),
                                            ex.t, ex.text_id, feats, ctrl_seq,
                                            identity_scale)
        diff = pred_seq - latent_to_seq(ex.eps)
        total += float(np.mean(diff ** 2))
        if not compute_grads or not reaches(dcache, sets):
            continue
        deps = (2.0 / (diff.size * n)) * diff
        grads, didentity = denoiser_backward(deps, dcache, sets)
        for name, g in grads.items():
            acc[name] += g
        if rcache is not None:
            # the cross term ran in every block, so every didentity is set
            rgrads = reference_backward(didentity, rcache)
            acc["proj.queries"] += rgrads["queries"]
            acc["proj.w_key"] += rgrads["w_key"]
            acc["proj.w_value"] += rgrads["w_value"]
            for k, dh in enumerate(rgrads["heads"]):
                acc[f"blocks.{k}.id_head"] += dh
    return total / n, acc


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_adam(params: dict[str, np.ndarray], names) -> AdamState:
    return AdamState(m={n: np.zeros_like(params[n]) for n in names},
                     v={n: np.zeros_like(params[n]) for n in names})


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """In-place Adam update."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name in sorted(grads):
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m[:] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[:] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        params[name] -= lr * update


# ---------------------------------------------------------------------------
# train loop


@dataclass(frozen=True)
class TrainConfig:
    stage: int
    steps: int
    lr: float = 1e-3
    batch_size: int = 4
    seed: int = 0
    identity_scale: float = 1.0
    mask_kind: MaskKind | None = None
    cond_dropout: float = 0.1

    def __post_init__(self):
        if self.stage not in (0, 1, 2):
            raise ValueError(f"stage must be 0, 1 or 2, got {self.stage}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.stage == 2 and self.mask_kind is None:
            raise ValueError("stage 2 requires a mask kind")
        check_identity_scale(self.identity_scale)

    def to_dict(self) -> dict:
        return dict(stage=self.stage, steps=self.steps, lr=self.lr,
                    batch_size=self.batch_size, seed=self.seed,
                    identity_scale=self.identity_scale,
                    mask_kind=None if self.mask_kind is None else MaskKind(self.mask_kind).value,
                    cond_dropout=self.cond_dropout)


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
        return dict(stage=self.stage, steps=self.steps, losses=self.losses,
                    initial_loss=self.initial_loss, final_loss=self.final_loss,
                    smoothing_window=self.smoothing_window,
                    initial_smoothed=self.initial_smoothed,
                    final_smoothed=self.final_smoothed,
                    trainable_set=self.trainable_set,
                    frozen_before=self.frozen_before,
                    frozen_after=self.frozen_after, config=self.config)


def smoothing_window(steps: int) -> int:
    return max(1, min(50, steps // 10))


def _draw_batch(dataset: Dataset, rng: RngState, size: int) -> list[Sample]:
    return [dataset.train_sample(rng.randint(dataset.spec.train_size))
            for _ in range(size)]


# a step loss above this multiple of the first step's loss counts as divergence
DIVERGENCE_FACTOR = 1e3


def train(config: TrainConfig, dataset: Dataset, weights: ModelWeights,
          schedule: NoiseSchedule | None = None,
          enc: FrozenEncoders | None = None) -> TrainReport:
    """Run one stage; updates `weights` in place and returns the report.

    Stages must run in order 0 -> 1 -> 2; the two non-active parameter sets
    are frozen and their checksums verified after the run.  A non-finite
    step loss, a step loss above DIVERGENCE_FACTOR times the first step's,
    or a non-finite trained weight after the last step raises
    FloatingPointError (the weights are then unusable; save nothing).
    """
    stage = config.stage
    if stage >= 1 and 0 not in weights.completed_stages:
        raise StageOrderError("stage 0 (backbone pretrain) has not run")
    if stage == 2 and 1 not in weights.completed_stages:
        raise StageOrderError("stage 1 (identity adapter) has not run")

    schedule = schedule or linear_schedule(weights.config.timesteps)
    enc = enc or build_encoders(weights.config)
    trainable = STAGE_SETS[stage]
    frozen_before = {s: weights.checksum(s) for s in PARAM_SETS}

    params = weights.params()
    adam = init_adam(params, weights.names_in_set(trainable))
    rng = RngState(config.seed).derive(("train", stage))

    def stage_loss(batch):
        prepared = _prepare(batch, weights, schedule, rng, enc, stage,
                            config.cond_dropout, config.mask_kind)
        scale = config.identity_scale if stage == 1 else 0.0
        return batch_loss(weights, enc, prepared, stage, scale)

    t_start = time.perf_counter()
    losses: list[float] = []
    if config.steps == 0:
        eval_loss, _ = stage_loss(_draw_batch(dataset, rng, config.batch_size))
        initial = final = eval_loss
    else:
        for step in range(config.steps):
            loss, grads = stage_loss(_draw_batch(dataset, rng, config.batch_size))
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

    frozen_after = {s: weights.checksum(s) for s in PARAM_SETS}
    for s in PARAM_SETS:
        if s != trainable and frozen_after[s] != frozen_before[s]:
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
        frozen_before={s: v for s, v in frozen_before.items() if s != trainable},
        frozen_after={s: v for s, v in frozen_after.items() if s != trainable},
        wall_clock_s=float(wall), config=config.to_dict(),
    )


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_SCHEMA = 2


def checkpoint_payload(weights: ModelWeights) -> dict:
    params = weights.params()
    return {
        "schema_version": CHECKPOINT_SCHEMA,
        "config": weights.config.to_dict(),
        "completed_stages": sorted(weights.completed_stages),
        "set_checksums": {s: weights.checksum(s) for s in PARAM_SETS},
        "params": {name: {"shape": list(arr.shape),
                          "data": arr.ravel().tolist()}
                   for name, arr in sorted(params.items())},
    }


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
    write_json(path, checkpoint_payload(weights))


def load_checkpoint(path) -> ModelWeights:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("schema_version") != CHECKPOINT_SCHEMA:
        raise ValueError(
            f"checkpoint schema {payload.get('schema_version')!r} unsupported "
            f"(expected {CHECKPOINT_SCHEMA})"
        )
    config = ModelConfig.from_dict(payload["config"])
    weights = init_weights(config, 0)
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
        arr[:] = np.asarray(entry["data"], dtype=np.float64).reshape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"checkpoint parameter {name} is not finite")
    weights.completed_stages = list(payload.get("completed_stages", []))
    for s in PARAM_SETS:
        want = payload["set_checksums"].get(s)
        have = weights.checksum(s)
        if want is not None and want != have:
            raise ValueError(f"checkpoint checksum mismatch for set {s}")
    return weights


# ---------------------------------------------------------------------------
# gradient check


def _rel_err(ga: float, gfd: float) -> float:
    # mixed relative/absolute: the floor keeps finite-difference roundoff on
    # near-zero gradients from registering as spurious failures
    return abs(ga - gfd) / max(abs(ga) + abs(gfd), 1e-6)


def gradient_check(stage: int, seed: int = 3) -> dict:
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

    batch = [Sample(rand_image(), i % 2, i % config.n_text, rand_image())
             for i in range(2)]
    mask = MaskKind.LOW
    prepared = _prepare(batch, weights, schedule, rng.derive("noise"), enc,
                        stage, 0.0, mask if stage == 2 else None)
    scale = 0.4 if stage == 1 else 0.0

    def loss_only():
        return batch_loss(weights, enc, prepared, stage, scale,
                          compute_grads=False)[0]

    loss, grads = batch_loss(weights, enc, prepared, stage, scale)

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
    digest = hashlib.sha256()
    for arr in (dataset.train_images, dataset.train_identity, dataset.train_text,
                dataset.test_images, dataset.test_identity, dataset.test_text,
                dataset.train_refs, dataset.test_refs):
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()
