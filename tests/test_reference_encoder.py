import numpy as np
import pytest

from freqbooth.config import tiny_config, toy_config
from freqbooth.reference_encoder import (ProjectionWeights, build_encoders,
                                         decode_latent, encode_latent,
                                         extract_tokens, project_identity_forward,
                                         reference_backward, reference_forward,
                                         reference_forward_train)


@pytest.fixture(scope="module")
def enc():
    return build_encoders(toy_config())


# ---------------------------------------------------------------------------
# codec


def test_zero_image_encodes_to_zero_latent(enc):
    z = encode_latent(np.zeros((3, 32, 32)), enc)
    assert z.shape == (4, 8, 8)
    assert not z.any()


def test_encode_then_decode_recovers_codec_subspace(enc):
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 8, 8))
    img = decode_latent(z, enc)  # lands in the codec subspace by construction
    assert np.max(np.abs(encode_latent(img, enc) - z)) <= 1e-12
    back = decode_latent(encode_latent(img, enc), enc)
    assert np.max(np.abs(back - img)) <= 1e-9


def test_codec_is_a_projection(enc):
    rng = np.random.default_rng(1)
    x = rng.uniform(size=(3, 32, 32))
    once = decode_latent(encode_latent(x, enc), enc)
    twice = decode_latent(encode_latent(once, enc), enc)
    assert np.max(np.abs(twice - once)) <= 1e-9


def test_constant_image_latent_matches_matrix_oracle(enc):
    cfg = enc.config
    img = np.full((3, 32, 32), 0.5)
    patch_vec = np.full(3 * cfg.patch * cfg.patch, 0.5)
    want = enc.analysis @ patch_vec  # every patch identical
    z = encode_latent(img, enc)
    for c in range(4):
        assert np.max(np.abs(z[c] - want[c])) <= 1e-12


def test_analysis_rows_are_orthonormal(enc):
    gram = enc.analysis @ enc.analysis.T
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_patch_divisibility_is_checked(enc):
    with pytest.raises(ValueError, match="divisible"):
        encode_latent(np.zeros((3, 30, 30)), enc)
    with pytest.raises(ValueError, match="image"):
        encode_latent(np.zeros((32, 32)), enc)
    # a leading stack axis is accepted, but not a wrong channel count or rank
    assert encode_latent(np.zeros((2, 3, 32, 32)), enc).shape == (2, 4, 8, 8)
    for shape in ((2, 4, 32, 32), (4, 32, 32), (1, 2, 3, 32, 32)):
        with pytest.raises(ValueError, match="image"):
            encode_latent(np.zeros(shape), enc)


# ---------------------------------------------------------------------------
# tokenizer


def test_tokens_are_deterministic(enc):
    rng = np.random.default_rng(2)
    img = rng.uniform(size=(3, 32, 32))
    assert np.array_equal(extract_tokens(img, enc), extract_tokens(img.copy(), enc))


def test_token_rows_are_patch_local(enc):
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(3, 32, 32))
    altered = img.copy()
    altered[0, 5, 9] += 0.125  # inside patch row 1, column 2 on the 8x8 grid
    base = extract_tokens(img, enc)
    moved = extract_tokens(altered, enc)
    changed = np.nonzero(np.any(base != moved, axis=1))[0]
    assert list(changed) == [1 * 8 + 2]


def test_tokens_match_per_patch_linear_oracle(enc):
    cfg = enc.config
    rng = np.random.default_rng(4)
    img = rng.uniform(size=(3, 32, 32))
    tokens = extract_tokens(img, enc)
    p, gh = cfg.patch, 32 // cfg.patch
    for idx in (0, 9, 63):
        r, c = divmod(idx, gh)
        block = img[:, r * p:(r + 1) * p, c * p:(c + 1) * p].reshape(-1)
        want = np.zeros(cfg.d_tok)
        for m in range(block.size):
            want += block[m] * enc.token_embed[m]
        want += enc.token_pos[idx]
        assert np.max(np.abs(tokens[idx] - want)) <= 1e-12


# ---------------------------------------------------------------------------
# identity pooler


def project_identity(tokens, proj):
    return project_identity_forward(tokens, proj)[0]


def test_pooler_zero_tokens_zero_values_give_zero_output():
    rng = np.random.default_rng(5)
    proj = ProjectionWeights(queries=rng.normal(size=(3, 4)),
                             w_key=rng.normal(size=(6, 4)),
                             w_value=np.zeros((6, 5)))
    pooled = project_identity(np.zeros((7, 6)), proj)
    assert not pooled.any()


def test_pooler_single_token_passes_its_value_projection():
    rng = np.random.default_rng(6)
    proj = ProjectionWeights(queries=rng.normal(size=(1, 4)),
                             w_key=rng.normal(size=(6, 4)),
                             w_value=rng.normal(size=(6, 5)))
    token = rng.normal(size=(1, 6))
    pooled = project_identity(token, proj)
    assert np.max(np.abs(pooled - token @ proj.w_value)) <= 1e-12


def test_pooler_matches_naive_loop_oracle():
    rng = np.random.default_rng(7)
    nq, dq, dt, di, nt = 3, 4, 6, 5, 8
    proj = ProjectionWeights(queries=rng.normal(size=(nq, dq)),
                             w_key=rng.normal(size=(dt, dq)),
                             w_value=rng.normal(size=(dt, di)))
    tokens = rng.normal(size=(nt, dt))
    got = project_identity(tokens, proj)
    keys = tokens @ proj.w_key
    values = tokens @ proj.w_value
    want = np.zeros((nq, di))
    for i in range(nq):
        logits = np.array([proj.queries[i] @ keys[j] for j in range(nt)])
        a = np.exp(logits / np.sqrt(dq))
        a /= a.sum()
        for j in range(nt):
            want[i] += a[j] * values[j]
    assert np.max(np.abs(got - want)) <= 1e-10


def test_pooler_checks_token_dimension():
    proj = ProjectionWeights(queries=np.zeros((2, 4)), w_key=np.zeros((6, 4)),
                             w_value=np.zeros((6, 5)))
    with pytest.raises(ValueError, match="key rows"):
        project_identity(np.zeros((3, 5)), proj)


# ---------------------------------------------------------------------------
# reference branch


def test_zero_image_with_zero_value_maps_gives_zero_features(enc):
    cfg = enc.config
    rng = np.random.default_rng(8)
    proj = ProjectionWeights(queries=rng.normal(size=(cfg.n_query, cfg.d_query)),
                             w_key=rng.normal(size=(cfg.d_tok, cfg.d_query)),
                             w_value=np.zeros((cfg.d_tok, cfg.d_id)))
    heads = [rng.normal(size=(cfg.d_id, cfg.d_id)) for _ in range(2)]
    feats = reference_forward(np.zeros((3, 32, 32)), proj, heads, enc)
    assert len(feats) == 2
    assert all(not f.any() for f in feats)


def make_proj(cfg, seed):
    rng = np.random.default_rng(seed)
    return (ProjectionWeights(queries=rng.normal(size=(cfg.n_query, cfg.d_query)),
                              w_key=rng.normal(size=(cfg.d_tok, cfg.d_query)),
                              w_value=rng.normal(size=(cfg.d_tok, cfg.d_id))),
            [rng.normal(size=(cfg.d_id, cfg.d_id)) for _ in range(2)])


def test_reference_forward_matches_the_training_forward(enc):
    cfg = enc.config
    proj, heads = make_proj(cfg, 11)
    rng = np.random.default_rng(12)
    img = rng.uniform(size=(3, 32, 32))
    plain = reference_forward(img, proj, heads, enc)
    trained, _ = reference_forward_train(extract_tokens(img, enc), proj, heads)
    assert all(np.array_equal(a, b) for a, b in zip(plain, trained))

    # a 3-row stack, one reference repeated: each row of the features and
    # each gradient equals the one-row calls, the gradients summed in row order
    other = rng.uniform(size=(3, 32, 32))
    stack = np.stack([img, other, img])
    dfeats = [rng.normal(size=(3, cfg.n_query, cfg.d_id)) for _ in heads]
    tokens = extract_tokens(stack, enc)
    feats, cache = reference_forward_train(tokens, proj, heads)
    grads = reference_backward(dfeats, cache)
    want = None
    for i in range(len(stack)):
        row_feats, row_cache = reference_forward_train(tokens[i:i + 1], proj, heads)
        assert all(np.array_equal(f[i], g[0]) for f, g in zip(feats, row_feats)), i
        row = reference_backward([d[i:i + 1] for d in dfeats], row_cache)
        if want is None:
            want = row
        else:
            want = {k: [a + b for a, b in zip(want[k], row[k])] if k == "heads"
                    else want[k] + row[k] for k in want}
    assert sorted(grads) == sorted(want) == ["heads", "queries", "w_key", "w_value"]
    assert all(np.array_equal(a, b) for a, b in zip(grads["heads"], want["heads"]))
    for k in ("queries", "w_key", "w_value"):
        assert np.array_equal(grads[k], want[k]), k


def test_frozen_buffers_are_config_deterministic():
    a = build_encoders(tiny_config())
    b = build_encoders(tiny_config())
    assert np.array_equal(a.analysis, b.analysis)
    assert np.array_equal(a.token_embed, b.token_embed)
    assert np.array_equal(a.token_pos, b.token_pos)
