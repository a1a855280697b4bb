"""Generation branch: noise schedule, epsilon-predicting denoiser built from
adaptive-attention blocks with an additive frequency-control residual,
deterministic DDIM sampling, and classifier-free guidance.

The denoiser is a small residual token network over flattened latent
positions.  Per block:

    h <- h + time_features @ time_proj + text_embed[text_id]
    gain = 1 + time_features @ time_gain                    (per channel)
    h <- h + gain * adaptive_attention(h, identity_tokens_k, scale)
    h <- h + ctrl_gate * gain * (control_tokens @ ctrl_proj)  (if control given)
    h <- h + tanh(h @ ff_w1) @ ff_w2

with a linear in/out projection and a fixed additive position code.  Forward
and backward passes are hand-written over a (B, seq, C) stack of latents,
one per row, under the stack's `Conditions` (one text id per row and sparse
stacks of identity and control, one entry per row that has them) and its
`TimeTerms`.  A single latent is a one-row stack, and the backward sums
each weight gradient over the rows in row order.  The test suite checks
every gradient against finite differences.

What the conditions contribute to each block does not depend on the latent
or the timestep: the text-embedding rows, the identity keys and values, and
the control fields.  `project_conditions` computes them once, so a DDIM run
projects them once for all its steps and a training batch once per forward.
Nor does what the timesteps contribute depend on the latent: each block's
time shift (the time features @ time_proj plus the row's text embedding)
and gain.  `time_terms` builds them, for a DDIM run every step's at once
before the first step, for a training batch once per forward.  The rows of
a guided step share one latent, which the forward takes as is, projects
through in_proj once and broadcasts over the rows.

The forward writes each block temporary it owns in place.  The backward's
products by the transposed `out_proj`, `ff_w2` and `ff_w1` run on the plain
BLAS layout (`matmul_t`), and the control gate's gradient sums each row in
one call, then the rows in order: both give the bits of the transposed,
per-row forms.

Parameters are grouped into three sets with distinct training stages:
`backbone` (stage 0 pretraining, frozen afterwards), `identity_adapter`
(stage 1: identity key/value projections, per-block feature heads, pooler),
and `control` (stage 2: control projections and their zero-initialized
gates).  `_build_weights` is the parameter registry: the statement that
makes a parameter also names it and puts it in its set.  The weight
dataclasses are frozen, and parameters change only in place.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .attention import (AdaptiveAttentionWeights, IdentityTerm, attention_backward,
                        attention_forward, check_identity_scale, check_real, identity_term)
from .codes import grid_position_codes, time_features
from .config import ModelConfig
from .dct_freq import MaskKind, make_control_signal
from .reference_encoder import (FrozenEncoders, ProjectionWeights, decode_latent,
                                encode_latent, reference_forward)
from .tensor_core import RngState, assert_all_finite, matmul_t, row_index, row_summed_grad


# ---------------------------------------------------------------------------
# noise schedule


@dataclass(frozen=True)
class NoiseSchedule:
    """The cumulative signal fractions alpha_bar_t of t = 0 .. T, and the
    square roots a DDIM step scales by.

    `alpha_bars` holds T + 1 values in [0, 1], alpha_bars[0] == 1.0, as a
    read-only copy of the array given.  `sqrt_alpha_bars[t]` and
    `sqrt_one_minus_alpha_bars[t]` are sqrt(alpha_bar_t) and
    sqrt(1 - alpha_bar_t), read-only tables built once from that copy, in
    which `ddim_step` looks up its four roots.  numpy's sqrt rounds
    correctly, as `math.sqrt` does, so each entry equals
    `math.sqrt(alpha_bars[t])` or `math.sqrt(1.0 - alpha_bars[t])`.
    """
    timesteps: int
    alpha_bars: np.ndarray
    sqrt_alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)
    sqrt_one_minus_alpha_bars: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ab = np.array(self.alpha_bars, dtype=np.float64)
        for name, table in (("alpha_bars", ab), ("sqrt_alpha_bars", np.sqrt(ab)),
                            ("sqrt_one_minus_alpha_bars", np.sqrt(1.0 - ab))):
            table.setflags(write=False)
            object.__setattr__(self, name, table)


def linear_schedule(timesteps: int) -> NoiseSchedule:
    """Linear beta schedule; endpoints are 1e-4..0.02 at T >= 1000 and are
    scaled by 500/T at shorter horizons.

    The scaling keeps the terminal alpha_bar below 1e-2 (signal essentially
    destroyed at the last step) at any step count without overshooting: a
    vanishingly small terminal alpha_bar makes the x0 estimate at the first
    sampling steps hypersensitive to prediction error, since DDIM divides
    by its square root.
    """
    if timesteps < 1:
        raise ValueError(f"timesteps must be >= 1, got {timesteps}")
    scale = max(1.0, 500.0 / timesteps)
    betas = np.linspace(1e-4 * scale, 0.02 * scale, timesteps)
    if betas[-1] >= 1.0:
        raise ValueError(f"schedule too short: terminal beta {betas[-1]:.3f} >= 1")
    alpha_bars = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
    return NoiseSchedule(timesteps=timesteps, alpha_bars=alpha_bars)


def forward_noise(z0: np.ndarray, t, eps: np.ndarray,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Noising step: sqrt(a_bar_t) z0 + sqrt(1 - a_bar_t) eps; `t` is one
    timestep, or one per row of a stack."""
    if z0.shape != eps.shape:
        raise ValueError(f"shape mismatch: z0 {z0.shape} vs eps {eps.shape}")
    t = np.asarray(t)
    outside = (t < 0) | (t > schedule.timesteps)
    if outside.any():
        raise ValueError(f"timestep {t[outside][0]} outside [0, {schedule.timesteps}]")
    ab = np.reshape(schedule.alpha_bars[t], t.shape + (1,) * (z0.ndim - t.ndim))
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def ddim_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int, t_prev: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic update via the predicted clean latent.

    x0 = (z_t - sqrt(1 - a_bar_t) eps) / sqrt(a_bar_t)
    z  = sqrt(a_bar_prev) x0 + sqrt(1 - a_bar_prev) eps

    The four roots are looked up in the schedule's tables.  Each operation
    of the formula is written, in its order, into the array this returns
    (one temporary holds sqrt(1 - a_bar_prev) eps), so the result has the
    formula's bits; z_t and eps_hat are not changed.
    """
    if not 0 <= t_prev <= t:
        raise ValueError(f"need t >= t_prev >= 0, got t={t}, t_prev={t_prev}")
    if t > schedule.timesteps:
        raise ValueError(f"timestep {t} outside [0, {schedule.timesteps}]")
    root_t, noise_t = schedule.sqrt_alpha_bars[t], schedule.sqrt_one_minus_alpha_bars[t]
    root_p, noise_p = schedule.sqrt_alpha_bars[t_prev], schedule.sqrt_one_minus_alpha_bars[t_prev]
    if root_t == 0.0:
        raise FloatingPointError(f"alpha_bar({t}) is zero; cannot recover x0")
    z = noise_t * eps_hat
    np.subtract(z_t, z, out=z)
    z /= root_t  # x0
    z *= root_p
    z += noise_p * eps_hat
    return z


def check_guidance(value: float) -> None:
    """Validate the classifier-free guidance weight: a real number (not a
    bool), finite and >= 0."""
    if not math.isfinite(check_real(value, "guidance scale")) or value < 0:
        raise ValueError(f"guidance scale must be finite and >= 0, got {value}")


def _check_integer(value, what: str) -> int:
    """`value` as an int, or ValueError naming `what` unless it is an
    integer: a bool, a fractional number or a string is none, though int()
    would take it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def check_text_id(value, n_text: int) -> None:
    """Validate a text id, an integer in [0, n_text) (see `_check_integer`);
    no id selects the null-text row."""
    if not 0 <= _check_integer(value, "text id") < n_text:
        raise ValueError(f"text id {value} outside [0, {n_text}); "
                         f"only None selects the null text")


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """Guided prediction w * cond + (1 - w) * uncond (exact at w in {0, 1}).
    Off the endpoints the sum is written into the product w * cond, a new
    array, which gives the formula's bits."""
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError(f"shape mismatch: {eps_cond.shape} vs {eps_uncond.shape}")
    if w == 1.0:
        return eps_cond
    if w == 0.0:
        return eps_uncond
    guided = w * eps_cond
    guided += (1.0 - w) * eps_uncond
    return guided


def sampling_timesteps(timesteps: int, steps: int) -> np.ndarray:
    """Ascending unique integer grid 0 .. T with ~`steps` strides, read-only:
    every call with these arguments shares one cached array.  `steps` must
    be an integer >= 1 (a bool is none); more steps than T give 0 .. T."""
    steps = _check_integer(steps, "steps")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return _sampling_grid(timesteps, min(steps, timesteps))


@lru_cache(maxsize=32)
def _sampling_grid(timesteps: int, steps: int) -> np.ndarray:
    grid = np.unique(np.round(np.linspace(0.0, timesteps, steps + 1)).astype(int))
    grid.setflags(write=False)
    return grid


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class BlockWeights:
    attn: AdaptiveAttentionWeights
    ff_w1: np.ndarray       # (d_model, d_ff)
    ff_w2: np.ndarray       # (d_ff, d_model)
    time_proj: np.ndarray   # (d_time, d_model)
    time_gain: np.ndarray   # (d_time, d_model); residual gain 1 + tfeat @ time_gain
    text_embed: np.ndarray  # (n_text + 1, d_model); last row is the null text
    id_head: np.ndarray     # (d_id, d_id) per-block identity feature head
    ctrl_proj: np.ndarray   # (latent_channels, d_model)
    ctrl_gate: np.ndarray   # (1,) zero-initialized gate


PARAM_SETS = ("backbone", "identity_adapter", "control")


@dataclass(frozen=True)
class ModelWeights:
    """A model's weights and its parameter registry, both made by
    `_build_weights`.  `registry` maps each parameter's name to its set and
    the very array a field holds.  The dataclasses are frozen, so no field
    can be rebound apart from the registry; parameters change in place."""
    config: ModelConfig
    in_proj: np.ndarray
    out_proj: np.ndarray
    blocks: tuple[BlockWeights, ...]
    projection: ProjectionWeights
    pos_code: np.ndarray = field(repr=False)  # fixed buffer, not a parameter
    registry: dict[str, tuple[str, np.ndarray]] = field(repr=False)
    completed_stages: list[int] = field(default_factory=list)

    def params(self) -> dict[str, np.ndarray]:
        return {name: arr for name, (_, arr) in self.registry.items()}

    def names_in_set(self, set_name: str) -> list[str]:
        return sorted(n for n, (s, _) in self.registry.items() if s == set_name)

    def checksum(self, set_name: str) -> str:
        """SHA-256 over the set's parameter bytes (bitwise freeze marker)."""
        digest = hashlib.sha256()
        for name in self.names_in_set(set_name):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(self.registry[name][1]).tobytes())
        return digest.hexdigest()

    def id_heads(self) -> list[np.ndarray]:
        return [blk.id_head for blk in self.blocks]


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Fresh weights: random backbone, pooler, and identity projections;
    zero control gates (frequency control is inert until stage 2 opens it).

    The identity branch starts random rather than zero because it is trained
    from scratch in its own stage.  A zero value path would silence every
    upstream adapter gradient (keys, pooler, heads) at that stage's first
    step only: that step gives `w_value_id` a gradient, and from the next
    step on every adapter parameter trains.
    """
    root = RngState(seed).derive("weights-init")
    return _build_weights(config, lambda tag, shape, scale:
                          root.derive(tag).normal(shape) * scale)


def _build_weights(config: ModelConfig, draw) -> ModelWeights:
    """The weights of `config` and their registry, the one statement of
    every parameter.  `backbone(name, arr)`, `adapter(...)` or `control(...)`
    registers a parameter under its name in its set, in the call that makes
    it: drawn as `draw(tag, shape, scale)` or, for the time gains and control
    gates, as zeros.  Checkpoints store the names and the initial values
    follow the RNG tags, so neither may change.  `init_weights` draws from
    the RNG; `load_checkpoint` draws zeros and fills them from the file."""
    c, d, dff = config.latent_channels, config.d_model, config.d_ff
    registry: dict[str, tuple[str, np.ndarray]] = {}

    def param(set_name: str, name: str, arr: np.ndarray) -> np.ndarray:
        registry[name] = (set_name, arr)
        return arr

    backbone, adapter, control = (partial(param, s) for s in PARAM_SETS)
    in_proj = backbone("in_proj", draw("in_proj", (c, d), 1.0 / np.sqrt(c)))
    out_proj = backbone("out_proj", draw("out_proj", (d, c), 0.5 / np.sqrt(d)))
    projection = ProjectionWeights(
        # large queries sharpen the pooler's softmax so each identity token
        # starts near a distinct patch rather than the patch average
        queries=adapter("proj.queries", draw("proj.q", (config.n_query, config.d_query), 2.0)),
        w_key=adapter("proj.w_key", draw("proj.k", (config.d_tok, config.d_query),
                                         1.0 / np.sqrt(config.d_tok))),
        w_value=adapter("proj.w_value", draw("proj.v", (config.d_tok, config.d_id),
                                             7.0 / np.sqrt(config.d_tok))),
    )
    blocks = []
    for k in range(config.n_blocks):
        p = f"blocks.{k}."
        attn = AdaptiveAttentionWeights(
            w_query=backbone(p + "attn.w_query", draw(f"b{k}.wq", (d, d), 1.0 / np.sqrt(d))),
            w_key=backbone(p + "attn.w_key", draw(f"b{k}.wk", (d, d), 1.0 / np.sqrt(d))),
            w_value=backbone(p + "attn.w_value", draw(f"b{k}.wv", (d, d), 1.0 / np.sqrt(d))),
            # wide value init: early adapter training first absorbs the random
            # branch into the frozen backbone, then mines it for identity
            w_key_id=adapter(p + "attn.w_key_id", draw(f"b{k}.wkid", (config.d_id, d),
                                                       0.2 / np.sqrt(config.d_id))),
            w_value_id=adapter(p + "attn.w_value_id", draw(f"b{k}.wvid", (config.d_id, d),
                                                           0.8 / np.sqrt(config.d_id))),
        )
        blocks.append(BlockWeights(
            attn=attn,
            ff_w1=backbone(p + "ff_w1", draw(f"b{k}.ff1", (d, dff), 1.0 / np.sqrt(d))),
            ff_w2=backbone(p + "ff_w2", draw(f"b{k}.ff2", (dff, d), 0.5 / np.sqrt(dff))),
            time_proj=backbone(p + "time_proj", draw(f"b{k}.time", (config.d_time, d), 0.3)),
            # zero so every residual gain starts at exactly 1; the pretrain
            # learns how strongly each channel's injections should scale
            # with the noise level (the useful correction magnitude spans
            # orders of magnitude across timesteps)
            time_gain=backbone(p + "time_gain", np.zeros((config.d_time, d))),
            text_embed=backbone(p + "text_embed",
                                draw(f"b{k}.text", (config.n_text + 1, d), 0.3)),
            # identity features start large so the zero-initialized injection
            # matrices need only small magnitudes to act; Adam moves weights
            # at ~lr per step, so the achievable injection strength within a
            # fixed step budget scales directly with this amplification
            id_head=adapter(p + "id_head", draw(f"b{k}.idh", (config.d_id, config.d_id),
                                                7.0 / np.sqrt(config.d_id))),
            ctrl_proj=control(p + "ctrl_proj", draw(f"b{k}.ctrl", (c, d), 1.0 / np.sqrt(c))),
            ctrl_gate=control(p + "ctrl_gate", np.zeros(1)),
        ))
    hw = config.latent_hw
    return ModelWeights(
        config=config, in_proj=in_proj, out_proj=out_proj, blocks=tuple(blocks),
        projection=projection, pos_code=grid_position_codes(hw, hw, config.d_model),
        registry=registry,
    )


# ---------------------------------------------------------------------------
# denoiser forward / backward


def latent_to_seq(latent: np.ndarray) -> np.ndarray:
    """(C, h, w) -> (h*w, C) row-major token order; a leading batch axis is kept."""
    return latent.reshape(*latent.shape[:-2], -1).swapaxes(-1, -2)


def seq_to_latent(seq: np.ndarray, hw: int) -> np.ndarray:
    return seq.swapaxes(-1, -2).reshape(*seq.shape[:-2], -1, hw, hw)


@dataclass(frozen=True)
class Conditions:
    """A stack's conditioning, projected for each block by `project_conditions`."""
    tids: np.ndarray                    # (B,) text_embed row of each sequence
    text: list[np.ndarray]              # per block, (B, 1, d_model) text-embedding rows
    identity: list[IdentityTerm | None]  # per block, the cross term (None: no row runs it)
    crows: slice | list                 # rows with control tokens, as `row_index` gives
    ctrl: np.ndarray | None             # (R, seq, C) control tokens of those rows
    fields: list[np.ndarray | None]     # per block, ctrl @ ctrl_proj (None without control)


def project_conditions(w: ModelWeights, text_id, identity=None, ctrl=None,
                       scale: float = 0.0) -> Conditions:
    """Check and project the conditions of a stack with one row per text id.

    text_id holds a text id in [0, n_text) per row, or None, which alone
    selects the reserved null-text row.  identity and ctrl are None or
    (rows, stack), increasing rows and their per-block (R, n_query, d_id)
    identity features or (R, C, h, w) control latents.  The cross term (at
    scale != 0) and the control residual run only for the rows listed.
    """
    cfg = w.config
    for i in text_id:
        if i is not None:
            check_text_id(i, cfg.n_text)
    n = len(text_id)
    tids = np.array([cfg.null_text_id if i is None else int(i) for i in text_id])
    terms = [identity_term(None if identity is None else (identity[0], identity[1][k]),
                           n, blk.attn, scale) for k, blk in enumerate(w.blocks)]
    crows, ctrl_seq = row_index(None if ctrl is None else (ctrl[0], latent_to_seq(ctrl[1])), n)
    return Conditions(
        tids=tids,
        # one (1, d_model) text row per sequence broadcasts over its tokens
        text=[blk.text_embed[tids][:, None] for blk in w.blocks],
        identity=terms, crows=crows, ctrl=ctrl_seq,
        fields=[ctrl_seq @ blk.ctrl_proj if crows else None for blk in w.blocks])


@dataclass(frozen=True)
class TimeTerms:
    """What each block adds to and scales its rows by at their timesteps, as
    `time_terms` builds them.  The axes before a stack's rows, if any, index
    the steps of a run, and `step(m)` gives step m's terms."""
    tfeat: np.ndarray        # (..., B or 1, 1, d_time) time features, one row per timestep
    shift: list[np.ndarray]  # per block, (..., B, 1, d_model): tfeat @ time_proj + text row
    gain: list[np.ndarray]   # per block, (..., B, 1, d_model): 1 + tfeat @ time_gain

    def step(self, m: int) -> TimeTerms:
        return TimeTerms(self.tfeat[m], [s[m] for s in self.shift], [g[m] for g in self.gain])


def time_terms(w: ModelWeights, t, cond: Conditions) -> TimeTerms:
    """Each block's time shift and gain for the rows of `cond`'s stack.

    t holds integer timesteps whose last axis runs over the rows: one per
    row, or one that every row shares.  Leading axes are steps, so a DDIM
    run passes its S steps as an (S, 1) array and builds every step's terms
    at once.  Each feature row is its own (1, d_time) matrix, since a 2-D
    (N, d_time) GEMM would change the bits.  Shifts and gains hold one row
    per row of the stack; rows at one timestep share their gain's bytes, as
    a read-only broadcast view.
    """
    cfg = w.config
    t = np.asarray(t)
    n = len(cond.tids)
    if t.ndim < 1 or t.shape[-1] not in (1, n):
        raise ValueError(f"a stack of {n} rows needs one timestep and text id per row, "
                         f"got timesteps of shape {t.shape}")
    tfeat = time_features(t[..., None], cfg.d_time, cfg.timesteps)
    shift, gain = [], []
    for blk, text in zip(w.blocks, cond.text):
        shift.append(tfeat @ blk.time_proj + text)
        g = tfeat @ blk.time_gain
        g += 1.0
        gain.append(g if g.shape == shift[-1].shape else np.broadcast_to(g, shift[-1].shape))
    return TimeTerms(tfeat, shift, gain)


def denoiser_forward(w: ModelWeights, z_seq: np.ndarray, terms: TimeTerms, cond: Conditions):
    """Predict noise tokens for the rows of `cond`'s stack at their time
    terms (one step of `time_terms`); returns (eps_seq, cache).

    z_seq is a (B, seq, C) stack of latents, one per row, or one (seq, C)
    latent that every row shares: it is projected through in_proj once and
    broadcast over the rows at block 0's time shift.  Each row's prediction
    equals the one-row call on it bit for bit.
    """
    n, rows = len(cond.tids), terms.shift[0].shape[:-2]
    if rows != (n,) or z_seq.ndim == 3 and len(z_seq) != n:
        raise ValueError(f"latents {z_seq.shape[:-2]} and time terms {rows} under {n} text "
                         f"ids: a stack needs one timestep and text id per row")
    crows = cond.crows
    # a shared latent is projected once and broadcast over the rows into block
    # 0's input, which is allocated first: made after the projection, it let
    # glibc trim the heap and fault it back (a median of 2,466 minor faults
    # per 20-step guided sample() over 16 fresh-process layouts, against 0)
    h1 = np.empty((n,) + w.pos_code.shape) if z_seq.ndim == 2 else None
    h = z_seq @ w.in_proj
    h += w.pos_code
    h = np.add(h, terms.shift[0], out=h if h1 is None else h1)
    caches = []
    for k, blk in enumerate(w.blocks):
        # every sum below goes into an array this block owns, its first summand
        # or a fresh product, which commutative IEEE addition leaves bit-equal
        if k:
            h += terms.shift[k]  # h1, the attention input
        gain = terms.gain[k]  # per-channel residual scale
        attn_out, acache = attention_forward(h, cond.identity[k], blk.attn)
        h3 = gain * attn_out
        h3 += h
        if crows:
            h3[crows] += blk.ctrl_gate[0] * (gain[crows] * cond.fields[k])
        ff_act = h3 @ blk.ff_w1
        np.tanh(ff_act, out=ff_act)
        h = ff_act @ blk.ff_w2
        h += h3
        caches.append(dict(acache=acache, h3=h3, gain=gain, attn_out=attn_out,
                           ff_act=ff_act))
    cache = dict(w=w, z_seq=z_seq, tfeat=terms.tfeat, cond=cond, h_final=h, caches=caches)
    return h @ w.out_proj, cache


def denoiser_backward(deps_seq: np.ndarray, cache, sets):
    """Gradients of the parameter sets named in `sets` (names in PARAM_SETS)
    plus the identity features, over the forward's stack.

    Returns (grads, didentity).  grads maps registry names to gradients,
    each summed over the rows in row order, for every parameter of those
    sets that the forward used: the control set only with a control signal,
    the identity projections only where the cross term ran.  didentity[k]
    is block k's gradient of the identity features, None unless the
    identity adapter is asked for and the cross term ran.  The full
    backward is the call with every set.

    Each weight-gradient product runs only under its set's flag, and the
    activation gradient goes below block 0's attention only for the
    backbone (its conditioning and in_proj need it).  Every gradient
    computed sums in the same order as in the full backward, so each equals
    the full backward's entry bit for bit.
    """
    sets = frozenset(sets)
    if not sets <= frozenset(PARAM_SETS):
        raise ValueError(f"unknown parameter sets {sorted(sets - frozenset(PARAM_SETS))}")
    backbone, identity, control = (s in sets for s in PARAM_SETS)
    w: ModelWeights = cache["w"]
    cond: Conditions = cache["cond"]
    crows, tfeat = cond.crows, cache["tfeat"]
    grads: dict[str, np.ndarray] = {}
    didentity = [None] * len(w.blocks)
    if backbone:
        grads["out_proj"] = row_summed_grad(cache["h_final"], deps_seq)
    dh = matmul_t(deps_seq, w.out_proj)

    for k in reversed(range(len(w.blocks))):
        blk, c = w.blocks[k], cache["caches"][k]
        p = f"blocks.{k}."
        need_dh1 = k > 0 or backbone
        # feed-forward residual
        dff_pre = matmul_t(dh, blk.ff_w2)
        dtanh = c["ff_act"] ** 2
        dff_pre *= np.subtract(1.0, dtanh, out=dtanh)  # the tanh derivative, in place
        del dtanh  # freed before the attention backward, the step's widest point
        if backbone:
            grads[p + "ff_w2"] = row_summed_grad(c["ff_act"], dh)
            grads[p + "ff_w1"] = row_summed_grad(c["h3"], dff_pre)
        dh3 = dh + matmul_t(dff_pre, blk.ff_w1)
        # control residual (scaled by the shared time gain)
        gain, fields = c["gain"], cond.fields[k]
        if control and crows:
            # each row's sum, then the rows summed in order
            grads[p + "ctrl_gate"] = np.array(
                [sum((dh3[crows] * (gain[crows] * fields)).sum(axis=(1, 2)))])
            grads[p + "ctrl_proj"] = row_summed_grad(
                cond.ctrl, blk.ctrl_gate[0] * (gain[crows] * dh3[crows]))
        dh2 = dh3
        # the gain scales both the control and the attention residual
        if backbone:
            dgain = (dh2 * c["attn_out"]).sum(axis=1)
            if crows:
                dgain[crows] += blk.ctrl_gate[0] * (dh3[crows] * fields).sum(axis=1)
            grads[p + "time_gain"] = (tfeat.swapaxes(-1, -2) * dgain[:, None, :]).sum(axis=0)
        # adaptive attention residual
        if need_dh1 or identity:
            dh1_attn, didentity[k], agrads = attention_backward(
                gain * dh2, c["acache"], self_grads=backbone, cross_grads=identity,
                need_dhidden=need_dh1)
            for leaf, g in agrads.items():
                grads[f"{p}attn.{leaf}"] = g
        if not need_dh1:
            break  # block 0 without the backbone: nothing needs its input gradient
        dh = dh2 + dh1_attn
        # timestep / text conditioning (broadcast add over each sequence)
        if backbone:
            dcond = dh.sum(axis=1)
            grads[p + "time_proj"] = (tfeat.swapaxes(-1, -2) * dcond[:, None, :]).sum(axis=0)
            demb = np.zeros(blk.text_embed.shape)  # only the used rows are nonzero
            np.add.at(demb, cond.tids, dcond)
            grads[p + "text_embed"] = demb
    if backbone:
        grads["in_proj"] = row_summed_grad(cache["z_seq"], dh)
    return grads, didentity


def predict_eps(w: ModelWeights, z_t: np.ndarray, terms: TimeTerms,
                cond: Conditions) -> np.ndarray:
    """Noise prediction, (B, C, h, w), for the rows of `cond`'s stack at
    their time terms, as one denoiser batch.  z_t is a (B, C, h, w) stack
    of latents, one per row, or one (C, h, w) latent that every row shares."""
    hw = w.config.latent_hw
    if z_t.ndim not in (3, 4) or z_t.shape[-3:] != (w.config.latent_channels, hw, hw):
        raise ValueError(
            f"latent shape {z_t.shape} matches neither a latent nor a stack for config "
            f"([B,] {w.config.latent_channels}, {hw}, {hw})"
        )
    eps_seq, _ = denoiser_forward(w, latent_to_seq(z_t), terms, cond)
    # checked in token order, where numpy's contiguous loop runs
    return seq_to_latent(assert_all_finite(eps_seq, "noise prediction"), hw)


# ---------------------------------------------------------------------------
# sampling


def sample(w: ModelWeights, enc: FrozenEncoders, schedule: NoiseSchedule,
           rng: RngState, ref_img: np.ndarray | None = None, text_id=None,
           mask_kind: MaskKind | None = None, *, steps: int, guidance: float,
           identity_scale: float):
    """DDIM sampling with classifier-free guidance.

    `steps`, `guidance` and `identity_scale` are checked before any work:
    an integer >= 1 (a bool is none), a finite real >= 0 and a real in
    [0, 1].  Identity features and the frequency control signal are
    computed once from the reference image, and the conditions projected
    once from them and the text id, then held fixed across all steps.  The
    time terms of every step are built once, before the first, on the
    cached timestep grid of `sampling_timesteps`.  Each step runs one
    `predict_eps`, one `cfg_combine` and one `ddim_step`, which looks its
    roots up in the schedule's tables.  Returns (image, info) where image
    is the decoded (3, H, W) float array (unclamped) and info records the
    run inputs.

    A guided step runs the conditional branch (row 0, the one both
    conditions are on) and the unconditional branch as one stacked denoiser
    forward, a (2, seq, d) batch on the one latent, which goes through
    in_proj once for both rows.  At guidance weight 1 the unconditional
    branch would not change the result, so it is skipped and the step runs
    the conditional branch alone.
    """
    check_guidance(guidance)
    check_identity_scale(identity_scale)
    taus = sampling_timesteps(schedule.timesteps, steps)
    cfg = w.config
    if schedule.timesteps != cfg.timesteps:
        raise ValueError(
            f"schedule has {schedule.timesteps} steps but config expects {cfg.timesteps}"
        )
    identity = None
    if ref_img is not None and identity_scale != 0.0:
        identity = ([0], reference_forward(ref_img[None], w.projection, w.id_heads(), enc))
    ctrl = None
    if mask_kind is not None:
        if ref_img is None:
            raise ValueError("frequency conditioning requires a reference image")
        ctrl = ([0], make_control_signal(encode_latent(ref_img[None], enc), mask_kind))

    texts = [text_id] if guidance == 1.0 else [text_id, None]  # one per branch
    cond = project_conditions(w, texts, identity, ctrl, identity_scale)
    z = rng.normal((cfg.latent_channels, cfg.latent_hw, cfg.latent_hw))
    plan = time_terms(w, taus[1:, None], cond)  # step m - 1: every row at taus[m]
    grid = taus.tolist()
    for m in range(len(grid) - 1, 0, -1):
        # a C-ordered copy of the prediction, which is a transposed view of the
        # forward's tokens: numpy's contiguous loops then run the combine and
        # the update, and z stays C-ordered, the layout the forward reads
        eps = np.ascontiguousarray(predict_eps(w, z, plan.step(m - 1), cond))
        z = ddim_step(z, cfg_combine(eps[0], eps[-1], guidance), grid[m], grid[m - 1], schedule)

    image = decode_latent(z, enc)
    info = dict(steps=len(grid) - 1, guidance=float(guidance),
                identity_scale=float(identity_scale),
                mask=None if mask_kind is None else MaskKind(mask_kind).value,
                text_id=None if text_id is None else int(text_id),
                used_reference=ref_img is not None and
                (identity_scale != 0.0 or mask_kind is not None))
    return image, info
