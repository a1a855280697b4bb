"""Adaptive attention: a frozen self-attention term plus a scale-weighted
trainable cross-attention term over identity tokens, sharing one query matrix.

    out = Softmax(Q K^T / sqrt(d)) V + scale * Softmax(Q K_id^T / sqrt(d)) V_id

with Q, K, V projected from the hidden sequence and K_id, V_id projected from
the identity tokens.  The two summands share Q, so the self-attention term is
bitwise independent of the identity projections; at scale 0 (or with no
identity tokens) the cross term is skipped entirely and the output equals
plain self-attention bitwise.

Forward passes return a cache consumed by the matching backward pass; the
backward produces gradients for all five projections plus the inputs, and is
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
    heads: int = 1


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


def _head_slices(d_model: int, heads: int):
    d_head = d_model // heads
    return [slice(h * d_head, (h + 1) * d_head) for h in range(heads)]


def attention_forward(hidden: np.ndarray, identity, w: AdaptiveAttentionWeights,
                      scale: float):
    """Run adaptive attention; returns (output, cache-for-backward).

    `identity` is an (n_tokens, d_id) matrix or None; None (or scale == 0)
    skips the cross term so the output is the pure self-attention summand.
    """
    _check_dims(hidden, identity, w)
    use_cross = identity is not None and scale != 0.0
    d_model = w.w_query.shape[1]
    slices = _head_slices(d_model, w.heads)
    inv = 1.0 / np.sqrt(d_model // w.heads)

    q = hidden @ w.w_query
    k = hidden @ w.w_key
    v = hidden @ w.w_value
    k_id = identity @ w.w_key_id if use_cross else None
    v_id = identity @ w.w_value_id if use_cross else None

    out = np.empty((hidden.shape[0], d_model))
    attn, attn_id = [], []
    for sl in slices:
        a = softmax_rows(q[:, sl] @ k[:, sl].T * inv)
        attn.append(a)
        head_out = a @ v[:, sl]
        if use_cross:
            a2 = softmax_rows(q[:, sl] @ k_id[:, sl].T * inv)
            attn_id.append(a2)
            head_out = head_out + scale * (a2 @ v_id[:, sl])
        out[:, sl] = head_out

    cache = dict(hidden=hidden, identity=identity, w=w, scale=scale, inv=inv,
                 slices=slices, q=q, k=k, v=v, k_id=k_id, v_id=v_id,
                 attn=attn, attn_id=attn_id, use_cross=use_cross)
    return out, cache


def _softmax_backward(a: np.ndarray, da: np.ndarray) -> np.ndarray:
    # rows of a are softmax outputs; returns gradient wrt the logits
    return a * (da - (da * a).sum(axis=1, keepdims=True))


def attention_backward(dout: np.ndarray, cache):
    """Backward pass; returns (dhidden, didentity, grads dict).

    grads has entries for all five projection matrices (zeros for the
    identity projections when the cross term was skipped).
    """
    w: AdaptiveAttentionWeights = cache["w"]
    hidden, identity = cache["hidden"], cache["identity"]
    inv, scale = cache["inv"], cache["scale"]
    q, k, v = cache["q"], cache["k"], cache["v"]
    k_id, v_id = cache["k_id"], cache["v_id"]

    dq = np.zeros_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    dk_id = np.zeros_like(k_id) if cache["use_cross"] else None
    dv_id = np.zeros_like(v_id) if cache["use_cross"] else None

    for idx, sl in enumerate(cache["slices"]):
        do = dout[:, sl]
        a = cache["attn"][idx]
        da = do @ v[:, sl].T
        dv[:, sl] += a.T @ do
        ds = _softmax_backward(a, da)
        dq[:, sl] += ds @ k[:, sl] * inv
        dk[:, sl] += ds.T @ q[:, sl] * inv
        if cache["use_cross"]:
            do2 = scale * do
            a2 = cache["attn_id"][idx]
            da2 = do2 @ v_id[:, sl].T
            dv_id[:, sl] += a2.T @ do2
            ds2 = _softmax_backward(a2, da2)
            dq[:, sl] += ds2 @ k_id[:, sl] * inv
            dk_id[:, sl] += ds2.T @ q[:, sl] * inv

    grads = {
        "w_query": hidden.T @ dq,
        "w_key": hidden.T @ dk,
        "w_value": hidden.T @ dv,
        "w_key_id": np.zeros_like(w.w_key_id),
        "w_value_id": np.zeros_like(w.w_value_id),
    }
    dhidden = dq @ w.w_query.T + dk @ w.w_key.T + dv @ w.w_value.T
    didentity = None
    if cache["use_cross"]:
        grads["w_key_id"] = identity.T @ dk_id
        grads["w_value_id"] = identity.T @ dv_id
        didentity = dk_id @ w.w_key_id.T + dv_id @ w.w_value_id.T
    return dhidden, didentity, grads

