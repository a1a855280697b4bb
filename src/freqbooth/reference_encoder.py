"""Reference branch: a frozen orthogonal patch codec (latent encoder/decoder),
a frozen patch tokenizer, and a trainable attention pooler that turns a
reference image into identity tokens, fanned out through one linear head per
generation-branch attention block.  The pooler is the same single-head
softmax-attention kernel as both terms of adaptive attention
(`attention.softmax_attention`), with learned queries over the tokens.

The reference image is processed noise-free and exactly once per sampling
run.

Codec
-----
Each p x p RGB patch (a 3p^2 vector) is projected onto `latent_channels`
fixed orthonormal directions: the patch luma mean, two luma gradient
components, and a red-blue opponent mean.  With analysis matrix A (orthonormal
rows) and gain s:

    encode: z = s * A x        decode: x = A^T z / s

so encode(decode(z)) == z exactly, while decode(encode(x)) is the projection
of x onto the codec subspace (the codec is deliberately lossy: rank
latent_channels per patch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import softmax_attention, softmax_attention_backward
from .codes import grid_position_codes
from .config import ModelConfig
from .dct_freq import dct_matrix
from .tensor_core import RngState


@dataclass
class FrozenEncoders:
    """Deterministic non-trainable buffers derived from a ModelConfig."""

    config: ModelConfig
    analysis: np.ndarray     # (latent_channels, 3 p^2) orthonormal rows
    token_embed: np.ndarray  # (3 p^2, d_tok)
    token_pos: np.ndarray    # (n_patches, d_tok)


@dataclass
class ProjectionWeights:
    """Trainable attention pooler: learned queries cross-attend over tokens."""

    queries: np.ndarray  # (n_query, d_query)
    w_key: np.ndarray    # (d_tok, d_query)
    w_value: np.ndarray  # (d_tok, d_id)


_ENCODER_SEED = 0x5EEDC0DE


def build_encoders(config: ModelConfig) -> FrozenEncoders:
    p = config.patch
    c = config.latent_channels
    if c != 4:
        raise ValueError(f"codec defines exactly 4 analysis directions, got {c} channels")
    d = dct_matrix(p)  # rows: orthonormal 1D DCT basis
    luma = np.ones(3) / np.sqrt(3.0)
    opponent = np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0)
    basis = [
        np.einsum("c,i,j->cij", luma, d[0], d[0]),      # patch mean (luma)
        np.einsum("c,i,j->cij", luma, d[0], d[1]),      # horizontal luma gradient
        np.einsum("c,i,j->cij", luma, d[1], d[0]),      # vertical luma gradient
        np.einsum("c,i,j->cij", opponent, d[0], d[0]),  # red-blue opponent mean
    ]
    analysis = np.stack([b.reshape(-1) for b in basis])

    rng = RngState(_ENCODER_SEED).derive(("token_embed", p, config.d_tok))
    token_embed = rng.normal((3 * p * p, config.d_tok)) / np.sqrt(3.0 * p * p)
    # project out the luma-DC direction so tokens respond to contrast and
    # color structure, not to the shared brightness pedestal every natural
    # patch carries (that pedestal would otherwise dominate every token)
    dc = np.ones(3 * p * p) / np.sqrt(3.0 * p * p)
    token_embed -= np.outer(dc, dc @ token_embed)
    gh = config.latent_hw
    # quiet position codes: tokens should be mostly patch content, with just
    # enough positional signal for the pooler to distinguish locations
    token_pos = 0.25 * grid_position_codes(gh, gh, config.d_tok)
    return FrozenEncoders(config=config, analysis=analysis,
                          token_embed=token_embed, token_pos=token_pos)


def _patches(img: np.ndarray, p: int) -> np.ndarray:
    """(n_patches, 3 p^2) patch vectors, channel-major, row-major patch order."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ValueError(f"expected (3, H, W) image, got shape {img.shape}")
    _, h, w = img.shape
    if h % p != 0 or w % p != 0:
        raise ValueError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    # (gh, gw, 3, p, p) patch blocks, flattened channel-major per patch
    blocks = img.reshape(3, gh, p, gw, p).transpose(1, 3, 0, 2, 4)
    return blocks.reshape(gh * gw, 3 * p * p)


def _unpatch(vecs: np.ndarray, p: int, gh: int, gw: int) -> np.ndarray:
    blocks = vecs.reshape(gh, gw, 3, p, p).transpose(2, 0, 3, 1, 4)
    return blocks.reshape(3, gh * p, gw * p)


def encode_latent(img: np.ndarray, enc: FrozenEncoders) -> np.ndarray:
    """Image -> (latent_channels, H/p, W/p) latent via the frozen codec."""
    cfg = enc.config
    vecs = _patches(img, cfg.patch) @ enc.analysis.T * cfg.latent_scale
    gh = img.shape[1] // cfg.patch
    gw = img.shape[2] // cfg.patch
    return vecs.T.reshape(cfg.latent_channels, gh, gw)


def decode_latent(latent: np.ndarray, enc: FrozenEncoders) -> np.ndarray:
    """Latent -> (3, H, W) image (unclamped; PPM writing clamps)."""
    cfg = enc.config
    c, gh, gw = latent.shape
    vecs = latent.reshape(c, gh * gw).T / cfg.latent_scale
    return _unpatch(vecs @ enc.analysis, cfg.patch, gh, gw)


def extract_tokens(img: np.ndarray, enc: FrozenEncoders) -> np.ndarray:
    """Frozen patch tokens: embedded patch vectors plus fixed position codes."""
    return _patches(img, enc.config.patch) @ enc.token_embed + enc.token_pos


def project_identity_forward(tokens: np.ndarray, proj: ProjectionWeights):
    """Learned queries attend over tokens; returns (identity matrix, cache)."""
    if tokens.shape[1] != proj.w_key.shape[0]:
        raise ValueError(
            f"token dim {tokens.shape[1]} vs pooler key rows {proj.w_key.shape[0]}"
        )
    inv = 1.0 / np.sqrt(proj.queries.shape[1])
    keys = tokens @ proj.w_key
    values = tokens @ proj.w_value
    pooled, attn = softmax_attention(proj.queries, keys, values, inv)
    cache = dict(tokens=tokens, proj=proj, inv=inv, keys=keys, values=values, attn=attn)
    return pooled, cache


def project_identity_backward(dpooled: np.ndarray, cache):
    """Gradients of the pooler output wrt queries/w_key/w_value."""
    proj: ProjectionWeights = cache["proj"]
    tokens = cache["tokens"]
    dqueries, dkeys, dvalues = softmax_attention_backward(
        dpooled, proj.queries, cache["keys"], cache["values"], cache["attn"],
        cache["inv"], need_dq=True)
    return {
        "queries": dqueries,
        "w_key": tokens.T @ dkeys,
        "w_value": tokens.T @ dvalues,
    }


def reference_forward_train(img: np.ndarray, proj: ProjectionWeights,
                            heads: list[np.ndarray], enc: FrozenEncoders):
    """Reference branch forward with cache kept for backprop.

    Returns (per-block identity features, cache).  Only the patch tokenizer
    and the pooler run; the latent that feeds frequency control is encoded
    separately (`encode_latent`) and carries no gradient.
    """
    tokens = extract_tokens(img, enc)
    pooled, pcache = project_identity_forward(tokens, proj)
    feats = [pooled @ h for h in heads]
    return feats, dict(pooled=pooled, pcache=pcache, heads=heads)


def reference_backward(dfeats: list[np.ndarray], cache):
    """Gradients for the pooler and the per-block heads."""
    pooled, heads = cache["pooled"], cache["heads"]
    dpooled = np.zeros_like(pooled)
    dheads = []
    for df, h in zip(dfeats, heads):
        dheads.append(pooled.T @ df)
        dpooled += df @ h.T
    grads = project_identity_backward(dpooled, cache["pcache"])
    grads["heads"] = dheads
    return grads


def reference_forward(img: np.ndarray, proj: ProjectionWeights,
                      heads: list[np.ndarray], enc: FrozenEncoders) -> list[np.ndarray]:
    """Per-block identity features for a reference image (no backprop cache)."""
    return reference_forward_train(img, proj, heads, enc)[0]
