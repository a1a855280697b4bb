"""Adaptive attention: a frozen self-attention term plus a scale-weighted
trainable cross-attention term over identity tokens, sharing one query matrix.

    out = Softmax(Q K^T / sqrt(d)) V + scale * Softmax(Q K_id^T / sqrt(d)) V_id

with Q, K, V projected from the hidden sequence and K_id, V_id projected from
the identity tokens.  The two summands share Q, so the self-attention term is
bitwise independent of the identity projections; at scale 0 (or with no
identity tokens) the cross term is skipped entirely and the output equals
plain self-attention bitwise.

Both terms, and the reference branch's identity pooler, are one single-head
kernel: `softmax_attention` and its backward `softmax_attention_backward`.

Forward passes return a cache consumed by the matching backward pass.  The
backward takes three flags, one per group of gradients: the self-term
projections, the identity cross term (its two projections and the identity
input), and the hidden input.  It computes only those groups and is
validated against central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import softmax_rows


@dataclass
class AdaptiveAttentionWeights:
    w_query: np.ndarray     # (d_model, d_model) frozen after backbone pretraining
    w_key: np.ndarray       # (d_model, d_model) frozen
    w_value: np.ndarray     # (d_model, d_model) frozen
    w_key_id: np.ndarray    # (d_id, d_model)    trainable
    w_value_id: np.ndarray  # (d_id, d_model)    trainable


def check_identity_scale(value: float) -> float:
    """Validate the cross-attention strength; must lie in [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0) or not np.isfinite(value):
        raise ValueError(f"identity scale must be in [0, 1], got {value}")
    return value


def _check_dims(hidden, identity, w):
    if hidden.ndim != 2 or hidden.shape[0] < 1:
        raise ValueError(f"hidden sequence must be a nonempty matrix, got {hidden.shape}")
    if hidden.shape[1] != w.w_query.shape[0]:
        raise ValueError(
            f"query projection mismatch: hidden dim {hidden.shape[1]} "
            f"vs w_query rows {w.w_query.shape[0]}"
        )
    if identity is not None and identity.shape[1] != w.w_key_id.shape[0]:
        raise ValueError(
            f"identity key projection mismatch: token dim {identity.shape[1]} "
            f"vs w_key_id rows {w.w_key_id.shape[0]}"
        )


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, inv: float):
    """Single-head softmax attention; returns (Softmax(q k^T * inv) v, weights)."""
    a = softmax_rows(q @ k.T * inv)
    return a @ v, a


def softmax_attention_backward(do: np.ndarray, q: np.ndarray, k: np.ndarray,
                               v: np.ndarray, a: np.ndarray, inv: float,
                               need_dq: bool):
    """Backward of softmax_attention given its weights `a`; returns
    (dq, dk, dv), with dq None unless `need_dq`."""
    da = do @ v.T
    dv = a.T @ do
    ds = a * (da - (da * a).sum(axis=1, keepdims=True))  # gradient wrt the logits
    dq = ds @ k * inv if need_dq else None
    dk = ds.T @ q * inv
    return dq, dk, dv


def attention_forward(hidden: np.ndarray, identity, w: AdaptiveAttentionWeights,
                      scale: float):
    """Run adaptive attention; returns (output, cache-for-backward).

    `identity` is an (n_tokens, d_id) matrix or None; None (or scale == 0)
    skips the cross term so the output is the pure self-attention summand.
    """
    _check_dims(hidden, identity, w)
    use_cross = identity is not None and scale != 0.0
    inv = 1.0 / np.sqrt(w.w_query.shape[1])

    q = hidden @ w.w_query
    k = hidden @ w.w_key
    v = hidden @ w.w_value
    out, attn = softmax_attention(q, k, v, inv)
    k_id = v_id = attn_id = None
    if use_cross:
        k_id = identity @ w.w_key_id
        v_id = identity @ w.w_value_id
        cross, attn_id = softmax_attention(q, k_id, v_id, inv)
        out = out + scale * cross

    cache = dict(hidden=hidden, identity=identity, w=w, scale=scale, inv=inv,
                 q=q, k=k, v=v, k_id=k_id, v_id=v_id,
                 attn=attn, attn_id=attn_id, use_cross=use_cross)
    return out, cache


def attention_backward(dout: np.ndarray, cache, self_grads: bool, cross_grads: bool,
                       need_dhidden: bool):
    """Backward pass; returns (dhidden, didentity, grads dict).

    `self_grads` asks for the self-term projections (w_query, w_key,
    w_value), `cross_grads` for the identity projections (w_key_id,
    w_value_id) and the identity input, and `need_dhidden` for the hidden
    input.  grads holds only the projections asked for that the forward
    used: the identity projections and didentity are absent (None) when the
    cross term was skipped, and dhidden is None unless asked for.

    Only what those gradients depend on runs.  The self-attention term and
    the query gradient run for `self_grads` or `need_dhidden`; without them
    the cross term computes only dk_id, dv_id and didentity.  Every gradient
    computed sums in the same order as in the full backward (every flag set).
    """
    w: AdaptiveAttentionWeights = cache["w"]
    hidden, identity = cache["hidden"], cache["identity"]
    inv, scale = cache["inv"], cache["scale"]
    q, k, v = cache["q"], cache["k"], cache["v"]
    k_id, v_id = cache["k_id"], cache["v_id"]
    self_term = self_grads or need_dhidden
    # the query gradient takes a share from the cross term too
    cross_term = cache["use_cross"] and (self_term or cross_grads)

    if self_term:
        dq, dk, dv = softmax_attention_backward(dout, q, k, v, cache["attn"], inv,
                                                need_dq=True)
    if cross_term:
        dq_id, dk_id, dv_id = softmax_attention_backward(
            scale * dout, q, k_id, v_id, cache["attn_id"], inv, need_dq=self_term)
        if self_term:
            dq = dq + dq_id

    grads = {}
    if self_grads:
        grads["w_query"] = hidden.T @ dq
        grads["w_key"] = hidden.T @ dk
        grads["w_value"] = hidden.T @ dv
    didentity = None
    if cross_grads and cross_term:
        grads["w_key_id"] = identity.T @ dk_id
        grads["w_value_id"] = identity.T @ dv_id
        didentity = dk_id @ w.w_key_id.T + dv_id @ w.w_value_id.T
    dhidden = dq @ w.w_query.T + dk @ w.w_key.T + dv @ w.w_value.T if need_dhidden else None
    return dhidden, didentity, grads
