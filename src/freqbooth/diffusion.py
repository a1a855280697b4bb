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
and backward passes are hand-written; the test suite checks every gradient
against central finite differences.

Parameters are grouped into three sets with distinct training stages:
`backbone` (stage 0 pretraining, frozen afterwards), `identity_adapter`
(stage 1: identity key/value projections, per-block feature heads, pooler),
and `control` (stage 2: control projections and their zero-initialized
gates).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .attention import (AdaptiveAttentionWeights, attention_backward, attention_forward,
                        check_identity_scale)
from .codes import grid_position_codes, time_features
from .config import ModelConfig
from .dct_freq import MaskKind, make_control_signal
from .reference_encoder import (FrozenEncoders, ProjectionWeights, decode_latent,
                                encode_latent, reference_forward)
from .tensor_core import RngState, assert_all_finite


# ---------------------------------------------------------------------------
# noise schedule


@dataclass
class NoiseSchedule:
    timesteps: int
    betas: np.ndarray       # length T; betas[i] applies at step t = i + 1
    alphas: np.ndarray      # 1 - betas
    alpha_bars: np.ndarray  # length T + 1; alpha_bars[0] == 1.0

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.timesteps:
            raise ValueError(f"timestep {t} outside [0, {self.timesteps}]")
        return float(self.alpha_bars[t])


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
    alphas = 1.0 - betas
    alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
    return NoiseSchedule(timesteps=timesteps, betas=betas, alphas=alphas,
                         alpha_bars=alpha_bars)


def forward_noise(z0: np.ndarray, t: int, eps: np.ndarray,
                  schedule: NoiseSchedule) -> np.ndarray:
    """Noising step: sqrt(a_bar_t) z0 + sqrt(1 - a_bar_t) eps."""
    if z0.shape != eps.shape:
        raise ValueError(f"shape mismatch: z0 {z0.shape} vs eps {eps.shape}")
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * eps


def ddim_step(z_t: np.ndarray, eps_hat: np.ndarray, t: int, t_prev: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic update via the predicted clean latent.

    x0 = (z_t - sqrt(1 - a_bar_t) eps) / sqrt(a_bar_t)
    z  = sqrt(a_bar_prev) x0 + sqrt(1 - a_bar_prev) eps
    """
    if not 0 <= t_prev <= t:
        raise ValueError(f"need t >= t_prev >= 0, got t={t}, t_prev={t_prev}")
    ab_t = schedule.alpha_bar(t)
    ab_p = schedule.alpha_bar(t_prev)
    if ab_t <= 0.0:
        raise FloatingPointError(f"alpha_bar({t}) is zero; cannot recover x0")
    x0 = (z_t - np.sqrt(1.0 - ab_t) * eps_hat) / np.sqrt(ab_t)
    return np.sqrt(ab_p) * x0 + np.sqrt(1.0 - ab_p) * eps_hat


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """Guided prediction w * cond + (1 - w) * uncond (exact at w in {0, 1})."""
    if eps_cond.shape != eps_uncond.shape:
        raise ValueError(f"shape mismatch: {eps_cond.shape} vs {eps_uncond.shape}")
    if w == 1.0:
        return eps_cond
    if w == 0.0:
        return eps_uncond
    return w * eps_cond + (1.0 - w) * eps_uncond


def sampling_timesteps(timesteps: int, steps: int) -> np.ndarray:
    """Ascending unique integer grid 0 .. T with ~`steps` strides."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    steps = min(steps, timesteps)
    return np.unique(np.round(np.linspace(0.0, timesteps, steps + 1)).astype(int))


# ---------------------------------------------------------------------------
# weights


@dataclass
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

# The parameter registry: the one place that names parameters and their sets.
# name: (set, accessor on ModelWeights)
_MODEL_PARAMS = {
    "in_proj": ("backbone", lambda w: w.in_proj),
    "out_proj": ("backbone", lambda w: w.out_proj),
    "proj.queries": ("identity_adapter", lambda w: w.projection.queries),
    "proj.w_key": ("identity_adapter", lambda w: w.projection.w_key),
    "proj.w_value": ("identity_adapter", lambda w: w.projection.w_value),
}
# name under "blocks.<k>.": (set, accessor on BlockWeights)
_BLOCK_PARAMS = {
    "attn.w_query": ("backbone", lambda b: b.attn.w_query),
    "attn.w_key": ("backbone", lambda b: b.attn.w_key),
    "attn.w_value": ("backbone", lambda b: b.attn.w_value),
    "attn.w_key_id": ("identity_adapter", lambda b: b.attn.w_key_id),
    "attn.w_value_id": ("identity_adapter", lambda b: b.attn.w_value_id),
    "ff_w1": ("backbone", lambda b: b.ff_w1),
    "ff_w2": ("backbone", lambda b: b.ff_w2),
    "time_proj": ("backbone", lambda b: b.time_proj),
    "time_gain": ("backbone", lambda b: b.time_gain),
    "text_embed": ("backbone", lambda b: b.text_embed),
    "id_head": ("identity_adapter", lambda b: b.id_head),
    "ctrl_proj": ("control", lambda b: b.ctrl_proj),
    "ctrl_gate": ("control", lambda b: b.ctrl_gate),
}


@lru_cache(maxsize=None)
def param_registry(n_blocks: int) -> MappingProxyType:
    """Every parameter name of an `n_blocks` model -> (set, accessor), read-only
    because every caller shares the cached table."""
    registry = dict(_MODEL_PARAMS)
    for k in range(n_blocks):
        for leaf, (set_name, get) in _BLOCK_PARAMS.items():
            registry[f"blocks.{k}.{leaf}"] = (set_name, lambda w, k=k, get=get: get(w.blocks[k]))
    return MappingProxyType(registry)


@dataclass
class ModelWeights:
    config: ModelConfig
    in_proj: np.ndarray
    out_proj: np.ndarray
    blocks: list[BlockWeights]
    projection: ProjectionWeights
    pos_code: np.ndarray = field(repr=False)  # fixed buffer, not a parameter
    completed_stages: list[int] = field(default_factory=list)

    def params(self) -> dict[str, np.ndarray]:
        return {name: get(self) for name, (_, get) in param_registry(len(self.blocks)).items()}

    def names_in_set(self, set_name: str) -> list[str]:
        return sorted(n for n, (s, _) in param_registry(len(self.blocks)).items()
                      if s == set_name)

    def checksum(self, set_name: str) -> str:
        """SHA-256 over the set's parameter bytes (bitwise freeze marker)."""
        params = self.params()
        digest = hashlib.sha256()
        for name in self.names_in_set(set_name):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(params[name]).tobytes())
        return digest.hexdigest()

    def id_heads(self) -> list[np.ndarray]:
        return [blk.id_head for blk in self.blocks]


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Fresh weights: random backbone, pooler, and identity projections;
    zero control gates (frequency control is inert until stage 2 opens it).

    The identity branch starts random rather than zero because it is trained
    from scratch in its own stage, and a zero value path would silence every
    upstream adapter gradient at the start of that stage.
    """
    root = RngState(seed).derive("weights-init")

    def draw(tag, shape, scale):
        return root.derive(tag).normal(shape) * scale

    c, d, dff = config.latent_channels, config.d_model, config.d_ff
    blocks = []
    for k in range(config.n_blocks):
        attn = AdaptiveAttentionWeights(
            w_query=draw(f"b{k}.wq", (d, d), 1.0 / np.sqrt(d)),
            w_key=draw(f"b{k}.wk", (d, d), 1.0 / np.sqrt(d)),
            w_value=draw(f"b{k}.wv", (d, d), 1.0 / np.sqrt(d)),
            # wide value init: early adapter training first absorbs the random
            # branch into the frozen backbone, then mines it for identity
            w_key_id=draw(f"b{k}.wkid", (config.d_id, d), 0.2 / np.sqrt(config.d_id)),
            w_value_id=draw(f"b{k}.wvid", (config.d_id, d), 0.8 / np.sqrt(config.d_id)),
        )
        blocks.append(BlockWeights(
            attn=attn,
            ff_w1=draw(f"b{k}.ff1", (d, dff), 1.0 / np.sqrt(d)),
            ff_w2=draw(f"b{k}.ff2", (dff, d), 0.5 / np.sqrt(dff)),
            time_proj=draw(f"b{k}.time", (config.d_time, d), 0.3),
            # zero so every residual gain starts at exactly 1; the pretrain
            # learns how strongly each channel's injections should scale
            # with the noise level (the useful correction magnitude spans
            # orders of magnitude across timesteps)
            time_gain=np.zeros((config.d_time, d)),
            text_embed=draw(f"b{k}.text", (config.n_text + 1, d), 0.3),
            # identity features start large so the zero-initialized injection
            # matrices need only small magnitudes to act; Adam moves weights
            # at ~lr per step, so the achievable injection strength within a
            # fixed step budget scales directly with this amplification
            id_head=draw(f"b{k}.idh", (config.d_id, config.d_id), 7.0 / np.sqrt(config.d_id)),
            ctrl_proj=draw(f"b{k}.ctrl", (c, d), 1.0 / np.sqrt(c)),
            ctrl_gate=np.zeros(1),
        ))
    projection = ProjectionWeights(
        # large queries sharpen the pooler's softmax so each identity token
        # starts near a distinct patch rather than the patch average
        queries=draw("proj.q", (config.n_query, config.d_query), 2.0),
        w_key=draw("proj.k", (config.d_tok, config.d_query), 1.0 / np.sqrt(config.d_tok)),
        w_value=draw("proj.v", (config.d_tok, config.d_id), 7.0 / np.sqrt(config.d_tok)),
    )
    hw = config.latent_hw
    return ModelWeights(
        config=config,
        in_proj=draw("in_proj", (c, d), 1.0 / np.sqrt(c)),
        out_proj=draw("out_proj", (d, c), 0.5 / np.sqrt(d)),
        blocks=blocks,
        projection=projection,
        pos_code=grid_position_codes(hw, hw, config.d_model),
    )


# ---------------------------------------------------------------------------
# denoiser forward / backward


def latent_to_seq(latent: np.ndarray) -> np.ndarray:
    """(C, h, w) -> (h*w, C) row-major token order."""
    c = latent.shape[0]
    return latent.reshape(c, -1).T


def seq_to_latent(seq: np.ndarray, hw: int) -> np.ndarray:
    return seq.T.reshape(-1, hw, hw)


def denoiser_forward(w: ModelWeights, z_seq: np.ndarray, t: int,
                     text_id, identity, ctrl_seq, scale: float):
    """Predict noise tokens; returns (eps_seq, cache).

    text_id None selects the reserved null-text row; identity None (or
    scale 0) skips every cross-attention summand; ctrl_seq None skips the
    control residuals.
    """
    cfg = w.config
    tid = cfg.null_text_id if text_id is None else int(text_id)
    if not 0 <= tid <= cfg.n_text:
        raise ValueError(f"text id {tid} outside [0, {cfg.n_text}]")
    tfeat = time_features(t, cfg.d_time, cfg.timesteps)
    h = z_seq @ w.in_proj + w.pos_code
    caches = []
    for k, blk in enumerate(w.blocks):
        cond = tfeat @ blk.time_proj + blk.text_embed[tid]
        h1 = h + cond
        gain = 1.0 + tfeat @ blk.time_gain  # per-channel residual scale
        ident_k = identity[k] if identity is not None else None
        attn_out, acache = attention_forward(h1, ident_k, blk.attn, scale)
        h2 = h1 + gain * attn_out
        if ctrl_seq is not None:
            fields = ctrl_seq @ blk.ctrl_proj
            h3 = h2 + blk.ctrl_gate[0] * (gain * fields)
        else:
            fields = None
            h3 = h2
        ff_act = np.tanh(h3 @ blk.ff_w1)
        h = h3 + ff_act @ blk.ff_w2
        caches.append(dict(tfeat=tfeat, tid=tid, acache=acache, h3=h3,
                           gain=gain, attn_out=attn_out,
                           fields=fields, ff_act=ff_act))
    eps_seq = h @ w.out_proj
    cache = dict(w=w, z_seq=z_seq, h_final=h, ctrl_seq=ctrl_seq, caches=caches)
    return eps_seq, cache


def _set_flags(sets) -> tuple[bool, bool, bool]:
    """(backbone, identity_adapter, control): which of PARAM_SETS `sets` names."""
    sets = frozenset(sets)
    if not sets <= frozenset(PARAM_SETS):
        raise ValueError(f"unknown parameter sets {sorted(sets - frozenset(PARAM_SETS))}")
    return tuple(s in sets for s in PARAM_SETS)


def reaches(cache, sets) -> bool:
    """Whether the forward in `cache` gives any parameter of `sets` (names in
    PARAM_SETS) a gradient: the backbone always, the identity adapter when
    the cross term ran (in every block or in none), the control set when a
    control signal was given.  Without one, the backward can be skipped."""
    backbone, identity, control = _set_flags(sets)
    cross = any(c["acache"]["use_cross"] for c in cache["caches"])
    return backbone or (identity and cross) or (control and cache["ctrl_seq"] is not None)


def denoiser_backward(deps_seq: np.ndarray, cache, sets):
    """Gradients of the parameter sets named in `sets` (names in PARAM_SETS)
    plus the identity features.

    Returns (grads, didentity).  grads maps registry names to gradients, for
    every parameter of those sets that the forward used: the control set
    only with a control signal, the identity projections only where the
    cross term ran.  didentity is a per-block list of the identity-feature
    gradients, None unless the identity adapter is asked for and the cross
    term ran.  The full backward is the call with every set.

    Each weight-gradient product runs only under its set's flag, and the
    activation gradient goes below block 0's attention only for the
    backbone (its conditioning and in_proj need it).  Every gradient
    computed sums in the same order as in the full backward, so each equals
    the full backward's entry bit for bit.
    """
    w: ModelWeights = cache["w"]
    ctrl_seq = cache["ctrl_seq"]
    backbone, identity, control = _set_flags(sets)
    grads: dict[str, np.ndarray] = {}
    didentity: list = [None] * len(w.blocks)
    if backbone:
        grads["out_proj"] = cache["h_final"].T @ deps_seq
    dh = deps_seq @ w.out_proj.T

    for k in reversed(range(len(w.blocks))):
        blk, c = w.blocks[k], cache["caches"][k]
        p = f"blocks.{k}."
        need_dh1 = k > 0 or backbone
        # feed-forward residual
        dff_pre = (dh @ blk.ff_w2.T) * (1.0 - c["ff_act"] ** 2)
        if backbone:
            grads[p + "ff_w2"] = c["ff_act"].T @ dh
            grads[p + "ff_w1"] = c["h3"].T @ dff_pre
        dh3 = dh + dff_pre @ blk.ff_w1.T
        # control residual (scaled by the shared time gain)
        gain, fields = c["gain"], c["fields"]
        if control and fields is not None:
            grads[p + "ctrl_gate"] = np.array([np.sum(dh3 * (gain * fields))])
            grads[p + "ctrl_proj"] = ctrl_seq.T @ (blk.ctrl_gate[0] * (gain * dh3))
        dh2 = dh3
        # the gain scales both the control and the attention residual
        if backbone:
            dgain = (np.zeros(gain.shape[0]) if fields is None
                     else blk.ctrl_gate[0] * (dh3 * fields).sum(axis=0))
            dgain += (dh2 * c["attn_out"]).sum(axis=0)
            grads[p + "time_gain"] = np.outer(c["tfeat"], dgain)
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
        # timestep / text conditioning (broadcast add over the sequence)
        if backbone:
            dcond = dh.sum(axis=0)
            grads[p + "time_proj"] = np.outer(c["tfeat"], dcond)
            demb = np.zeros(blk.text_embed.shape)  # only the used row is nonzero
            demb[c["tid"]] = dcond
            grads[p + "text_embed"] = demb
    if backbone:
        grads["in_proj"] = cache["z_seq"].T @ dh
    return grads, didentity


def predict_eps(w: ModelWeights, z_t: np.ndarray, t: int, text_id=None,
                identity=None, ctrl: np.ndarray | None = None,
                scale: float = 0.0) -> np.ndarray:
    """Noise prediction on a (C, h, w) latent; conditions are all optional."""
    hw = w.config.latent_hw
    if z_t.shape != (w.config.latent_channels, hw, hw):
        raise ValueError(
            f"latent shape {z_t.shape} does not match config "
            f"({w.config.latent_channels}, {hw}, {hw})"
        )
    ctrl_seq = latent_to_seq(ctrl) if ctrl is not None else None
    eps_seq, _ = denoiser_forward(w, latent_to_seq(z_t), t, text_id, identity,
                                  ctrl_seq, scale)
    return assert_all_finite(seq_to_latent(eps_seq, hw), "noise prediction")


# ---------------------------------------------------------------------------
# sampling


def sample(w: ModelWeights, enc: FrozenEncoders, schedule: NoiseSchedule,
           rng: RngState, ref_img: np.ndarray | None = None, text_id=None,
           mask_kind: MaskKind | None = None, steps: int = 20,
           guidance: float = 3.0, identity_scale: float = 0.4,
           force_both_branches: bool = False):
    """DDIM sampling with classifier-free guidance.

    Identity features and the frequency control signal are computed once
    from the reference image and held fixed across all steps.  Returns
    (image, info) where image is the decoded (3, H, W) float array
    (unclamped) and info records the run inputs.

    `force_both_branches` evaluates the unconditional branch even when the
    guidance weight makes it a no-op (test hook for the w == 1 identity).
    """
    if not np.isfinite(guidance) or guidance < 0:
        raise ValueError(f"guidance scale must be finite and >= 0, got {guidance}")
    check_identity_scale(identity_scale)
    cfg = w.config
    if schedule.timesteps != cfg.timesteps:
        raise ValueError(
            f"schedule has {schedule.timesteps} steps but config expects {cfg.timesteps}"
        )
    identity = None
    if ref_img is not None and identity_scale != 0.0:
        identity = reference_forward(ref_img, w.projection, w.id_heads(), enc)
    ctrl = None
    if mask_kind is not None:
        if ref_img is None:
            raise ValueError("frequency conditioning requires a reference image")
        ctrl = make_control_signal(encode_latent(ref_img, enc), mask_kind)

    z = rng.normal((cfg.latent_channels, cfg.latent_hw, cfg.latent_hw))
    taus = sampling_timesteps(schedule.timesteps, steps)
    for m in range(len(taus) - 1, 0, -1):
        t, t_prev = int(taus[m]), int(taus[m - 1])
        eps_cond = predict_eps(w, z, t, text_id, identity, ctrl, identity_scale)
        if guidance == 1.0 and not force_both_branches:
            eps_hat = eps_cond
        else:
            eps_uncond = predict_eps(w, z, t, None, None, None, 0.0)
            eps_hat = cfg_combine(eps_cond, eps_uncond, guidance)
        z = ddim_step(z, eps_hat, t, t_prev, schedule)

    image = decode_latent(z, enc)
    info = dict(steps=int(len(taus) - 1), guidance=float(guidance),
                identity_scale=float(identity_scale),
                mask=None if mask_kind is None else MaskKind(mask_kind).value,
                text_id=None if text_id is None else int(text_id),
                used_reference=ref_img is not None and
                (identity_scale != 0.0 or mask_kind is not None))
    return image, info
