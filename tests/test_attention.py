import numpy as np
import pytest

from freqbooth.attention import (AdaptiveAttentionWeights, attention_backward,
                                 attention_forward, check_identity_scale)
from freqbooth.tensor_core import softmax_rows


def make_weights(rng, d_model, d_id, heads=1, scale=1.0):
    return AdaptiveAttentionWeights(
        w_query=rng.normal(size=(d_model, d_model)) * scale,
        w_key=rng.normal(size=(d_model, d_model)) * scale,
        w_value=rng.normal(size=(d_model, d_model)) * scale,
        w_key_id=rng.normal(size=(d_id, d_model)) * scale,
        w_value_id=rng.normal(size=(d_id, d_model)) * scale,
        heads=heads,
    )


def naive_adaptive(hidden, identity, w, lam):
    """Explicit per-query/per-key evaluation with python loops."""
    d_model = w.w_query.shape[1]
    d_head = d_model // w.heads
    q = hidden @ w.w_query
    k = hidden @ w.w_key
    v = hidden @ w.w_value
    out = np.zeros((hidden.shape[0], d_model))
    for h in range(w.heads):
        sl = slice(h * d_head, (h + 1) * d_head)
        for i in range(hidden.shape[0]):
            logits = np.array([q[i, sl] @ k[j, sl] for j in range(hidden.shape[0])])
            a = np.exp(logits / np.sqrt(d_head))
            a /= a.sum()
            for j in range(hidden.shape[0]):
                out[i, sl] += a[j] * v[j, sl]
            if identity is not None and lam != 0.0:
                k_id = identity @ w.w_key_id
                v_id = identity @ w.w_value_id
                logits2 = np.array([q[i, sl] @ k_id[j, sl]
                                    for j in range(identity.shape[0])])
                a2 = np.exp(logits2 / np.sqrt(d_head))
                a2 /= a2.sum()
                for j in range(identity.shape[0]):
                    out[i, sl] += lam * a2[j] * v_id[j, sl]
    return out


def forward(hidden, identity, w, lam):
    return attention_forward(hidden, identity, w, lam)[0]


# ---------------------------------------------------------------------------
# forward contract


def test_zero_strength_reduces_to_self_attention():
    rng = np.random.default_rng(0)
    w = make_weights(rng, 6, 3)
    hidden = rng.normal(size=(5, 6))
    identity = rng.normal(size=(4, 3))
    plain = forward(hidden, None, w, 0.0)
    with_tokens = forward(hidden, identity, w, 0.0)
    assert np.array_equal(plain, with_tokens)
    # and the self term itself is what softmax attention computes
    q, k, v = hidden @ w.w_query, hidden @ w.w_key, hidden @ w.w_value
    want = softmax_rows(q @ k.T * (1.0 / np.sqrt(6))) @ v
    assert np.array_equal(plain, want)


def test_scalar_hand_evaluation():
    w = AdaptiveAttentionWeights(
        w_query=np.array([[1.0]]), w_key=np.array([[1.0]]),
        w_value=np.array([[3.0]]),
        w_key_id=np.array([[7.0]]), w_value_id=np.array([[5.0]]), heads=1)
    out = forward(np.array([[1.0]]), np.array([[1.0]]), w, 0.4)
    assert abs(out[0, 0] - 5.0) <= 1e-15


@pytest.mark.parametrize("heads", [1, 2])
def test_matches_naive_loop_oracle(heads):
    rng = np.random.default_rng(1)
    w = make_weights(rng, 8, 5, heads=heads, scale=0.5)
    hidden = rng.normal(size=(6, 8))
    identity = rng.normal(size=(3, 5))
    for lam in (0.0, 0.3, 1.0):
        got = forward(hidden, identity, w, lam)
        want = naive_adaptive(hidden, identity, w, lam)
        assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_output_is_affine_in_strength(lam):
    rng = np.random.default_rng(2)
    w = make_weights(rng, 8, 4, heads=2, scale=0.5)
    hidden = rng.normal(size=(5, 8))
    identity = rng.normal(size=(3, 4))
    base = forward(hidden, identity, w, 0.0)
    full = forward(hidden, identity, w, lam)
    want = lam * (forward(hidden, identity, w, 1.0) - base)
    assert np.max(np.abs((full - base) - want)) <= 1e-12


def test_zero_identity_token_contributes_nothing():
    rng = np.random.default_rng(3)
    w = make_weights(rng, 6, 3)
    hidden = rng.normal(size=(4, 6))
    # zero keys give uniform weights over zero values: the cross term is 0
    assert np.array_equal(forward(hidden, np.zeros((1, 3)), w, 0.7),
                          forward(hidden, None, w, 0.0))


def test_strength_validation():
    assert check_identity_scale(0.0) == 0.0
    assert check_identity_scale(1.0) == 1.0
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            check_identity_scale(bad)


def test_dimension_errors_name_the_projection():
    rng = np.random.default_rng(4)
    w = make_weights(rng, 6, 3)
    with pytest.raises(ValueError, match="w_query"):
        forward(rng.normal(size=(4, 5)), None, w, 0.0)
    with pytest.raises(ValueError, match="w_key_id"):
        forward(rng.normal(size=(4, 6)), rng.normal(size=(2, 2)), w, 0.5)
    with pytest.raises(ValueError, match="nonempty"):
        forward(np.zeros((0, 6)), None, w, 0.0)


# ---------------------------------------------------------------------------
# backward pass, checked against central finite differences


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    w = make_weights(rng, 4, 3, heads=2, scale=0.4)
    hidden = rng.normal(size=(3, 4))
    identity = rng.normal(size=(2, 3))
    scale = 0.7
    dout = rng.normal(size=(3, 4))

    def objective():
        out, _ = attention_forward(hidden, identity, w, scale)
        return float(np.sum(out * dout))

    out, cache = attention_forward(hidden, identity, w, scale)
    dhidden, didentity, grads = attention_backward(dout, cache)

    step = 1e-6
    tol = 1e-4

    def fd(arr):
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            up = objective()
            flat[i] = keep - step
            down = objective()
            flat[i] = keep
            gflat[i] = (up - down) / (2 * step)
        return g

    for name in ("w_query", "w_key", "w_value", "w_key_id", "w_value_id"):
        num = fd(getattr(w, name))
        den = max(np.max(np.abs(num)), 1e-8)
        assert np.max(np.abs(grads[name] - num)) / den <= tol, name
    assert np.max(np.abs(dhidden - fd(hidden))) <= tol
    assert np.max(np.abs(didentity - fd(identity))) <= tol


def test_backward_reports_zero_identity_grads_when_skipped():
    rng = np.random.default_rng(6)
    w = make_weights(rng, 4, 3)
    hidden = rng.normal(size=(3, 4))
    _, cache = attention_forward(hidden, None, w, 0.0)
    _, didentity, grads = attention_backward(rng.normal(size=(3, 4)), cache)
    assert didentity is None
    assert not grads["w_key_id"].any()
    assert not grads["w_value_id"].any()
