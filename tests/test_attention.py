import numpy as np
import pytest

from freqbooth.attention import (AdaptiveAttentionWeights, attention_backward,
                                 attention_forward, check_identity_scale)
from freqbooth.tensor_core import softmax_rows


def make_weights(rng, d_model, d_id, scale=1.0):
    return AdaptiveAttentionWeights(
        w_query=rng.normal(size=(d_model, d_model)) * scale,
        w_key=rng.normal(size=(d_model, d_model)) * scale,
        w_value=rng.normal(size=(d_model, d_model)) * scale,
        w_key_id=rng.normal(size=(d_id, d_model)) * scale,
        w_value_id=rng.normal(size=(d_id, d_model)) * scale,
    )


def naive_adaptive(hidden, identity, w, lam):
    """Explicit per-query/per-key evaluation with python loops."""
    d_model = w.w_query.shape[1]
    q = hidden @ w.w_query
    k = hidden @ w.w_key
    v = hidden @ w.w_value
    out = np.zeros((hidden.shape[0], d_model))
    for i in range(hidden.shape[0]):
        logits = np.array([q[i] @ k[j] for j in range(hidden.shape[0])])
        a = np.exp(logits / np.sqrt(d_model))
        a /= a.sum()
        for j in range(hidden.shape[0]):
            out[i] += a[j] * v[j]
        if identity is not None and lam != 0.0:
            k_id = identity @ w.w_key_id
            v_id = identity @ w.w_value_id
            logits2 = np.array([q[i] @ k_id[j] for j in range(identity.shape[0])])
            a2 = np.exp(logits2 / np.sqrt(d_model))
            a2 /= a2.sum()
            for j in range(identity.shape[0]):
                out[i] += lam * a2[j] * v_id[j]
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
        w_key_id=np.array([[7.0]]), w_value_id=np.array([[5.0]]))
    out = forward(np.array([[1.0]]), np.array([[1.0]]), w, 0.4)
    assert abs(out[0, 0] - 5.0) <= 1e-15


def test_matches_naive_loop_oracle():
    rng = np.random.default_rng(1)
    w = make_weights(rng, 8, 5, scale=0.5)
    hidden = rng.normal(size=(6, 8))
    identity = rng.normal(size=(3, 5))
    for lam in (0.0, 0.3, 1.0):
        got = forward(hidden, identity, w, lam)
        want = naive_adaptive(hidden, identity, w, lam)
        assert np.max(np.abs(got - want)) <= 1e-10


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_output_is_affine_in_strength(lam):
    rng = np.random.default_rng(2)
    w = make_weights(rng, 8, 4, scale=0.5)
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
    w = make_weights(rng, 4, 3, scale=0.4)
    hidden = rng.normal(size=(3, 4))
    identity = rng.normal(size=(2, 3))
    scale = 0.7
    dout = rng.normal(size=(3, 4))

    def objective():
        out, _ = attention_forward(hidden, identity, w, scale)
        return float(np.sum(out * dout))

    out, cache = attention_forward(hidden, identity, w, scale)
    dhidden, didentity, grads = attention_backward(dout, cache, self_grads=True,
                                                   cross_grads=True, need_dhidden=True)

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


def test_backward_omits_identity_grads_when_skipped():
    rng = np.random.default_rng(6)
    w = make_weights(rng, 4, 3)
    hidden = rng.normal(size=(3, 4))
    _, cache = attention_forward(hidden, None, w, 0.0)
    dhidden, didentity, grads = attention_backward(
        rng.normal(size=(3, 4)), cache, self_grads=True, cross_grads=True,
        need_dhidden=True)
    assert didentity is None
    assert sorted(grads) == ["w_key", "w_query", "w_value"]
    assert dhidden.shape == hidden.shape
