"""Reference branch: a frozen orthogonal patch codec (latent encoder/decoder),
a frozen patch tokenizer, and a trainable attention pooler that turns a
reference image into identity tokens, fanned out through one linear head per
generation-branch attention block.  The pooler is the same single-head
softmax-attention kernel as both terms of adaptive attention
(`attention.softmax_attention`), with learned queries over the tokens.

The branch runs on the frozen tokens of a stack of noise-free reference
images.  Their tokens are fixed, so training tokenizes each reference once
per run and the branch runs once per training batch over its referenced
rows; `reference_forward` tokenizes and runs it once per sampling run.  The
backward sums each weight gradient over the rows in row order.

Codec
-----
Each p x p RGB patch (a 3p^2 vector) is projected onto 4 fixed orthonormal
directions, the latent channels: the patch luma mean, two luma gradient
components, and a red-blue opponent mean.  With analysis matrix A
(orthonormal rows):

    encode: z = A x        decode: x = A^T z

so encode(decode(z)) == z exactly, while decode(encode(x)) is the projection
of x onto the codec subspace (the codec is deliberately lossy: rank 4 per
patch).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import softmax_attention, softmax_attention_backward
from .codes import grid_position_codes
from .config import ModelConfig
from .dct_freq import dct_matrix
from .tensor_core import RngState, row_summed_grad


@dataclass
class FrozenEncoders:
    """Deterministic non-trainable buffers derived from a ModelConfig."""

    config: ModelConfig
    analysis: np.ndarray     # (latent_channels, 3 p^2) orthonormal rows
    token_embed: np.ndarray  # (3 p^2, d_tok)
    token_pos: np.ndarray    # (n_patches, d_tok)


@dataclass(frozen=True)
class ProjectionWeights:
    """Trainable attention pooler: learned queries cross-attend over tokens."""

    queries: np.ndarray  # (n_query, d_query)
    w_key: np.ndarray    # (d_tok, d_query)
    w_value: np.ndarray  # (d_tok, d_id)


_ENCODER_SEED = 0x5EEDC0DE


def build_encoders(config: ModelConfig) -> FrozenEncoders:
    p = config.patch
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
    """(..., n_patches, 3 p^2) channel-major patch vectors of (..., 3, H, W), patches
    in row-major order."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim not in (3, 4) or img.shape[-3] != 3:
        raise ValueError(f"expected (3, H, W) image or a stack of them, got shape {img.shape}")
    *lead, _, h, w = img.shape
    if h % p != 0 or w % p != 0:
        raise ValueError(f"image {h}x{w} not divisible by patch size {p}")
    gh, gw = h // p, w // p
    # (..., gh, gw, 3, p, p) patch blocks, flattened channel-major per patch
    k = len(lead)
    blocks = img.reshape(*lead, 3, gh, p, gw, p).transpose(*range(k), k + 1, k + 3, k,
                                                           k + 2, k + 4)
    return blocks.reshape(*lead, gh * gw, 3 * p * p)


def _unpatch(vecs: np.ndarray, p: int, gh: int, gw: int) -> np.ndarray:
    blocks = vecs.reshape(gh, gw, 3, p, p).transpose(2, 0, 3, 1, 4)
    return blocks.reshape(3, gh * p, gw * p)


def encode_latent(img: np.ndarray, enc: FrozenEncoders) -> np.ndarray:
    """(..., 3, H, W) -> (..., latent_channels, H/p, W/p) via the frozen codec."""
    cfg = enc.config
    vecs = _patches(img, cfg.patch) @ enc.analysis.T
    gh = img.shape[-2] // cfg.patch
    gw = img.shape[-1] // cfg.patch
    return vecs.swapaxes(-1, -2).reshape(*vecs.shape[:-2], cfg.latent_channels, gh, gw)


def decode_latent(latent: np.ndarray, enc: FrozenEncoders) -> np.ndarray:
    """Latent -> (3, H, W) image (unclamped; PPM writing clamps)."""
    c, gh, gw = latent.shape
    vecs = latent.reshape(c, gh * gw).T
    return _unpatch(vecs @ enc.analysis, enc.config.patch, gh, gw)


def extract_tokens(img: np.ndarray, enc: FrozenEncoders) -> np.ndarray:
    """Frozen patch tokens: embedded patch vectors plus fixed position codes."""
    return _patches(img, enc.config.patch) @ enc.token_embed + enc.token_pos


def project_identity_forward(tokens: np.ndarray, proj: ProjectionWeights):
    """Learned queries attend over (..., n_tokens, d_tok) tokens; returns
    (identity matrices, cache)."""
    if tokens.shape[-1] != proj.w_key.shape[0]:
        raise ValueError(
            f"token dim {tokens.shape[-1]} vs pooler key rows {proj.w_key.shape[0]}"
        )
    inv = 1.0 / np.sqrt(proj.queries.shape[1])
    keys = tokens @ proj.w_key
    values = tokens @ proj.w_value
    pooled, attn = softmax_attention(proj.queries, keys, values, inv)
    cache = dict(tokens=tokens, proj=proj, inv=inv, keys=keys, values=values, attn=attn)
    return pooled, cache


def project_identity_backward(dpooled: np.ndarray, cache):
    """Gradients of the pooler output wrt queries/w_key/w_value, each
    summed over the forward's rows in row order."""
    proj: ProjectionWeights = cache["proj"]
    tokens = cache["tokens"]
    dqueries, dkeys, dvalues = softmax_attention_backward(
        dpooled, proj.queries, cache["keys"], cache["values"], cache["attn"],
        cache["inv"], need_dq=True)
    return {
        "queries": dqueries.sum(axis=0),
        "w_key": row_summed_grad(tokens, dkeys),
        "w_value": row_summed_grad(tokens, dvalues),
    }


def reference_forward_train(tokens: np.ndarray, proj: ProjectionWeights,
                            heads: list[np.ndarray]):
    """Reference branch forward over the (R, n_tokens, d_tok) frozen tokens
    of R references (`extract_tokens`), with cache kept for backprop.

    Returns (per-block (R, n_query, d_id) identity features, cache).  Only
    the pooler and the heads run; the latent that feeds frequency control
    is encoded separately (`encode_latent`) and carries no gradient.
    """
    pooled, pcache = project_identity_forward(tokens, proj)
    feats = [pooled @ h for h in heads]
    return feats, dict(pooled=pooled, pcache=pcache, heads=heads)


def reference_backward(dfeats: list[np.ndarray], cache):
    """Gradients for the pooler and the per-block heads from the per-block
    feature gradients, each summed over the forward's rows in row order."""
    pooled, heads = cache["pooled"], cache["heads"]
    dpooled = sum(df @ h.T for df, h in zip(dfeats, heads))
    grads = project_identity_backward(dpooled, cache["pcache"])
    grads["heads"] = [row_summed_grad(pooled, df) for df in dfeats]
    return grads


def reference_forward(img: np.ndarray, proj: ProjectionWeights,
                      heads: list[np.ndarray], enc: FrozenEncoders) -> list[np.ndarray]:
    """Per-block identity features for reference image(s): their tokens
    through `reference_forward_train`, without the backprop cache."""
    return reference_forward_train(extract_tokens(img, enc), proj, heads)[0]
