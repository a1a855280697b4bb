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

Adaptive attention runs on a (B, seq, d_model) stack of hidden sequences
and an `IdentityTerm`: the rows that have identity tokens, those tokens,
their K_id and V_id projections and the scale.  None of these depends on
the hidden sequences, so `identity_term` projects them once and a DDIM run
reuses them at every step; a single sequence is a one-row stack.  The
forward returns a cache consumed by the matching backward pass, which sums
each weight gradient over the rows in row order.  The backward takes three
flags, one per group of gradients: the self-term projections, the identity
cross term (its two projections and the identity input), and the hidden
input.  It computes only those groups and is validated against central
finite differences in the test suite.

The softmax scores are the one full-size temporary of each term:
`softmax_attention` scales the q k^T product and normalises it in place,
and its backward builds the logit gradient in place in the do v^T product.

Products by a transpose run on the plain BLAS layout (`matmul_t`), faster
and, at the model's shapes, bit-equal: the self term's and the pooler's
q k^T and do v^T, and the input gradient's products by the transposed
query, key and value weights.  Two keep the transposed form, because the
plain layout changes their bits: the cross term's products against its
identity keys, which are fewer than its queries, and the identity-token
gradient's products by the transposed identity weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import matmul_t, row_index, row_summed_grad, softmax_rows


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class IdentityTerm:
    """The cross term's inputs on a stack that no hidden sequence changes."""
    rows: slice | list   # the stack rows that run the cross term, as `row_index` gives
    tokens: np.ndarray   # (R, n_tokens, d_id) identity tokens of those rows
    keys: np.ndarray     # tokens @ w_key_id
    values: np.ndarray   # tokens @ w_value_id
    scale: float


def identity_term(identity, n: int, w: AdaptiveAttentionWeights,
                  scale: float) -> IdentityTerm | None:
    """Check `identity`, None or (rows, tokens) with increasing rows of an
    n-row stack and their (R, n_tokens, d_id) tokens, and project the tokens
    once.  None when no row runs the cross term: no rows, or scale 0."""
    rows, ident = row_index(identity, n)
    if ident is not None and ident.shape[-1] != w.w_key_id.shape[0]:
        raise ValueError(
            f"identity key projection mismatch: token dim {ident.shape[-1]} "
            f"vs w_key_id rows {w.w_key_id.shape[0]}"
        )
    if not rows or scale == 0.0:
        return None
    return IdentityTerm(rows, ident, ident @ w.w_key_id, ident @ w.w_value_id, scale)


def _query_key_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y^T for rows of queries x against rows of keys y, on the plain
    layout (`matmul_t`) unless the keys are fewer than the queries: the
    cross term's scores against the identity keys, which round differently
    on it."""
    return x @ y.swapaxes(-1, -2) if y.shape[-2] < x.shape[-2] else matmul_t(x, y)


def softmax_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, inv: float):
    """Single-head softmax attention; returns (Softmax(q k^T * inv) v, weights).
    Leading axes, if any, are batch axes.  The weights are the q k^T product,
    scaled and normalised in place."""
    s = _query_key_product(q, k)
    s *= inv
    a = softmax_rows(s)
    return a @ v, a


def softmax_attention_backward(do: np.ndarray, q: np.ndarray, k: np.ndarray,
                               v: np.ndarray, a: np.ndarray, inv: float,
                               need_dq: bool):
    """Backward of softmax_attention given its weights `a` (leading axes, if
    any, are batch axes); returns (dq, dk, dv), dq None unless `need_dq`."""
    ds = _query_key_product(do, v)  # the gradient wrt a, made the logits' in place
    dv = a.swapaxes(-1, -2) @ do
    ds -= (ds * a).sum(axis=-1, keepdims=True)
    ds *= a  # IEEE products commute: the bits of a * (ds - ...)
    dq = None
    if need_dq:
        dq = ds @ k
        dq *= inv
    dk = ds.swapaxes(-1, -2) @ q
    dk *= inv
    return dq, dk, dv


def attention_forward(hidden: np.ndarray, identity: IdentityTerm | None,
                      w: AdaptiveAttentionWeights):
    """Run adaptive attention on a (B, seq, d_model) stack of hidden
    sequences; returns (output, cache-for-backward).

    `identity` comes from `identity_term` on the same stack and weights.  A
    row it does not list (or None) skips the cross term, so its output is
    the pure self-attention summand.  Each row of the output equals a
    one-row call on it bit for bit.
    """
    if hidden.ndim != 3 or 0 in hidden.shape[:-1]:
        raise ValueError(
            f"hidden sequences must be a nonempty (B, seq, d_model) stack, got {hidden.shape}")
    if hidden.shape[-1] != w.w_query.shape[0]:
        raise ValueError(
            f"query projection mismatch: hidden dim {hidden.shape[-1]} "
            f"vs w_query rows {w.w_query.shape[0]}"
        )
    inv = 1.0 / math.sqrt(w.w_query.shape[1])

    q = hidden @ w.w_query
    k = hidden @ w.w_key
    v = hidden @ w.w_value
    out, attn = softmax_attention(q, k, v, inv)
    # the cross term runs only for the rows that have identity tokens, as one sub-stack
    rows = [] if identity is None else identity.rows
    attn_id = None
    if rows:
        cross, attn_id = softmax_attention(q[rows], identity.keys, identity.values, inv)
        cross *= identity.scale
        out[rows] += cross
    cache = dict(hidden=hidden, rows=rows, identity=identity, w=w, inv=inv,
                 q=q, k=k, v=v, attn=attn, attn_id=attn_id)
    return out, cache


def attention_backward(dout: np.ndarray, cache, self_grads: bool, cross_grads: bool,
                       need_dhidden: bool):
    """Backward pass over the forward's stack; returns (dhidden, didentity,
    grads dict).

    `self_grads` asks for the self-term projections (w_query, w_key,
    w_value), `cross_grads` for the identity projections (w_key_id,
    w_value_id) and the identity input, and `need_dhidden` for the hidden
    input.  grads holds only the projections asked for that the forward
    used, each summed over the rows in row order: the identity projections
    are absent when no row ran the cross term.  didentity is the gradient of
    the identity tokens, None unless asked for and the cross term ran;
    dhidden is None unless asked for.

    Only what those gradients depend on runs.  The self-attention term and
    the query gradient run for `self_grads` or `need_dhidden`; without them
    the cross term computes only dk_id, dv_id and didentity.  Every gradient
    computed sums in the same order as in the full backward (every flag set).
    """
    w: AdaptiveAttentionWeights = cache["w"]
    hidden, rows, identity = cache["hidden"], cache["rows"], cache["identity"]
    inv = cache["inv"]
    q, k, v = cache["q"], cache["k"], cache["v"]
    self_term = self_grads or need_dhidden
    # the query gradient takes a share from the cross term too
    cross_term = bool(rows) and (self_term or cross_grads)

    if self_term:
        dq, dk, dv = softmax_attention_backward(dout, q, k, v, cache["attn"], inv,
                                                need_dq=True)
    if cross_term:
        dq_id, dk_id, dv_id = softmax_attention_backward(
            identity.scale * dout[rows], q[rows], identity.keys, identity.values,
            cache["attn_id"], inv, need_dq=self_term)
        if self_term:
            dq[rows] += dq_id

    grads = {}
    if self_grads:
        grads["w_query"] = row_summed_grad(hidden, dq)
        grads["w_key"] = row_summed_grad(hidden, dk)
        grads["w_value"] = row_summed_grad(hidden, dv)
    didentity = None
    if cross_grads and cross_term:
        grads["w_key_id"] = row_summed_grad(identity.tokens, dk_id)
        grads["w_value_id"] = row_summed_grad(identity.tokens, dv_id)
        # transposed: the plain layout would change these products' bits
        didentity = dk_id @ w.w_key_id.T + dv_id @ w.w_value_id.T
    dhidden = (matmul_t(dq, w.w_query) + matmul_t(dk, w.w_key) + matmul_t(dv, w.w_value)
               if need_dhidden else None)
    return dhidden, didentity, grads
