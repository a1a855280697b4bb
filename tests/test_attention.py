import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbooth.attention import (AdaptiveAttentionWeights, attention_backward,
                                 attention_forward, check_identity_scale, identity_term,
                                 softmax_attention, softmax_attention_backward)
from freqbooth.config import tiny_config, toy_config
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


def one_row(identity, w, lam):
    """The projected identity term of a one-row stack."""
    return identity_term(None if identity is None else ([0], identity[None]), 1, w, lam)


def forward(hidden, identity, w, lam):
    """The output for one sequence, run as a one-row stack."""
    return attention_forward(hidden[None], one_row(identity, w, lam), w)[0][0]


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


@pytest.mark.parametrize("bad", [True, False, "0.4", None])
def test_a_strength_that_is_not_a_real_number_is_rejected(bad):
    """float() would take True as 1.0 and "0.4" as 0.4."""
    with pytest.raises(ValueError, match=rf"identity scale {bad!r} is not a real number"):
        check_identity_scale(bad)
    assert check_identity_scale(np.float64(0.4)) == 0.4
    assert type(check_identity_scale(1)) is float


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
        return float(np.sum(forward(hidden, identity, w, scale) * dout))

    _, cache = attention_forward(hidden[None], one_row(identity, w, scale), w)
    (dhidden,), (didentity,), grads = attention_backward(
        dout[None], cache, self_grads=True, cross_grads=True, need_dhidden=True)

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
    _, cache = attention_forward(hidden[None], None, w)
    (dhidden,), didentity, grads = attention_backward(
        rng.normal(size=(1, 3, 4)), cache, self_grads=True, cross_grads=True,
        need_dhidden=True)
    assert didentity is None
    assert sorted(grads) == ["w_key", "w_query", "w_value"]
    assert dhidden.shape == hidden.shape


def transposed_kernel(q, k, v, do, inv):
    """softmax_attention and its backward as written before the backward
    worked in place and the self term took the plain layout: every q k^T and
    do v^T on the transposed operand, the logit gradient out of place."""
    s = q @ k.swapaxes(-1, -2)
    s *= inv
    a = softmax_rows(s)
    da = do @ v.swapaxes(-1, -2)
    dv = a.swapaxes(-1, -2) @ do
    ds = a * (da - (da * a).sum(axis=-1, keepdims=True))
    return a @ v, a, ds @ k * inv, ds.swapaxes(-1, -2) @ q * inv, dv


def kernel_shapes(cfg, term, rows):
    """(q, k, v) shapes of one call of the kernel on a `rows`-row stack."""
    seq, d, n_query = cfg.latent_hw ** 2, cfg.d_model, cfg.n_query
    return {
        "self": ((rows, seq, d), (rows, seq, d), (rows, seq, d)),
        "cross": ((rows, seq, d), (rows, n_query, d), (rows, n_query, d)),
        # the pooler's learned queries attend over each reference's patch tokens
        "pooler": ((n_query, cfg.d_query), (rows, seq, cfg.d_query), (rows, seq, cfg.d_id)),
    }[term]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 8),
       term=st.sampled_from(("self", "cross", "pooler")), toy=st.booleans())
def test_the_kernel_gives_the_transposed_kernels_bits(seed, rows, term, toy):
    """At the shapes of the self term, the cross term and the pooler, on
    the toy and the tiny model, the forward and the in-place backward equal
    the transposed, out-of-place formulas bit for bit."""
    cfg = toy_config() if toy else tiny_config()
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal(shape) for shape in kernel_shapes(cfg, term, rows))
    inv = 1.0 / np.sqrt(q.shape[-1])
    out, a = softmax_attention(q, k, v, inv)
    do = rng.standard_normal(out.shape)
    got = (out, a, *softmax_attention_backward(do, q, k, v, a, inv, need_dq=True))
    for name, x, y in zip(("out", "a", "dq", "dk", "dv"), got,
                          transposed_kernel(q, k, v, do, inv)):
        assert np.array_equal(x, y), name
