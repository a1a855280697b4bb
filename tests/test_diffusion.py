import copy
import dataclasses
import hashlib

import numpy as np
import pytest

from freqbooth.config import tiny_config
from freqbooth.dct_freq import MaskKind, make_control_signal
import freqbooth.diffusion
from freqbooth.diffusion import (PARAM_SETS, cfg_combine, ddim_step, denoiser_forward,
                                 forward_noise, init_weights, latent_to_seq,
                                 linear_schedule, predict_eps, project_conditions, sample,
                                 sampling_timesteps, seq_to_latent, time_terms)
from freqbooth.reference_encoder import build_encoders, encode_latent, reference_forward
from freqbooth.tensor_core import RngState
from freqbooth.training import load_checkpoint, save_checkpoint
from conftest import both_branch_sample, predict_one


@pytest.fixture(scope="module")
def cfg():
    return tiny_config()


@pytest.fixture(scope="module")
def enc(cfg):
    return build_encoders(cfg)


@pytest.fixture(scope="module")
def schedule(cfg):
    return linear_schedule(cfg.timesteps)


def rand_latent(cfg, seed):
    return RngState(seed).derive("latent").normal(
        (cfg.latent_channels, cfg.latent_hw, cfg.latent_hw))


# ---------------------------------------------------------------------------
# schedule


@pytest.mark.parametrize("steps", [50, 200, 1000])
def test_schedule_destroys_signal_by_the_final_step(steps):
    sched = linear_schedule(steps)
    assert sched.alpha_bar(0) == 1.0
    assert sched.alpha_bar(steps) < 0.01
    assert np.all(np.diff(sched.alpha_bars) < 0)
    ratios = sched.alpha_bars[1:] / sched.alpha_bars[:-1]  # 1 - beta_t
    assert np.all((ratios > 0) & (ratios < 1))


def test_schedule_validation():
    with pytest.raises(ValueError):
        linear_schedule(0)
    sched = linear_schedule(50)
    with pytest.raises(ValueError):
        sched.alpha_bar(51)
    with pytest.raises(ValueError):
        sched.alpha_bar(-1)


# ---------------------------------------------------------------------------
# forward noising


def test_no_noise_at_step_zero(cfg, schedule):
    z0 = rand_latent(cfg, 0)
    eps = rand_latent(cfg, 1)
    assert np.array_equal(forward_noise(z0, 0, eps, schedule), z0)


def test_pure_noise_scaling_for_zero_signal(cfg, schedule):
    eps = rand_latent(cfg, 2)
    t = 30
    want = np.sqrt(1.0 - schedule.alpha_bar(t)) * eps
    got = forward_noise(np.zeros_like(eps), t, eps, schedule)
    assert np.max(np.abs(got - want)) <= 1e-15


def test_forward_noise_matches_elementwise_oracle(cfg, schedule):
    z0 = rand_latent(cfg, 3)
    eps = rand_latent(cfg, 4)
    t = 17
    got = forward_noise(z0, t, eps, schedule)
    ab = schedule.alpha_bar(t)
    for idx in np.ndindex(z0.shape):
        want = np.sqrt(ab) * z0[idx] + np.sqrt(1.0 - ab) * eps[idx]
        assert abs(got[idx] - want) <= 1e-12


def test_forward_noise_shape_check(cfg, schedule):
    with pytest.raises(ValueError, match="mismatch"):
        forward_noise(np.zeros((4, 2, 2)), 1, np.zeros((4, 2, 3)), schedule)


@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("bad", [-1, "T+1"])
def test_forward_noise_rejects_a_timestep_outside_the_schedule_in_any_row(cfg, schedule,
                                                                        row, bad):
    """ᾱ is gathered in one indexing call, where -1 would silently read
    ᾱ_T; the range check ahead of it names the timestep instead."""
    bad = schedule.timesteps + 1 if bad == "T+1" else bad
    z0 = np.stack([rand_latent(cfg, k) for k in range(3)])
    t = [5, 9, 13]
    t[row] = bad
    with pytest.raises(ValueError, match=rf"timestep {bad} outside \[0, {schedule.timesteps}\]"):
        forward_noise(z0, t, np.zeros_like(z0), schedule)
    with pytest.raises(ValueError, match=rf"timestep {bad} outside"):
        forward_noise(z0[row], bad, z0[row], schedule)
    t[row] = schedule.timesteps
    got = forward_noise(z0, t, np.zeros_like(z0), schedule)
    assert np.array_equal(got[row], np.sqrt(schedule.alpha_bar(schedule.timesteps)) * z0[row])


# ---------------------------------------------------------------------------
# deterministic stepping


def test_true_noise_inverts_to_clean_latent(cfg, schedule):
    z0 = rand_latent(cfg, 5)
    eps = rand_latent(cfg, 6)
    for t in (1, 10, cfg.timesteps):
        z_t = forward_noise(z0, t, eps, schedule)
        assert np.max(np.abs(ddim_step(z_t, eps, t, 0, schedule) - z0)) <= 1e-9


def test_degenerate_step_is_identity(cfg, schedule):
    z = rand_latent(cfg, 7)
    eps = rand_latent(cfg, 8)
    assert np.max(np.abs(ddim_step(z, eps, 25, 25, schedule) - z)) <= 1e-12


def test_zero_prediction_follows_closed_form(cfg, schedule):
    z = rand_latent(cfg, 9)
    start = z.copy()
    taus = [40, 31, 17, 6, 0]
    for t, t_prev in zip(taus[:-1], taus[1:]):
        z = ddim_step(z, np.zeros_like(z), t, t_prev, schedule)
    want = start * np.sqrt(schedule.alpha_bar(0) / schedule.alpha_bar(40))
    assert np.max(np.abs(z - want)) <= 1e-12


def test_step_ordering_is_enforced(cfg, schedule):
    z = rand_latent(cfg, 10)
    with pytest.raises(ValueError):
        ddim_step(z, z, 5, 6, schedule)


def test_sampling_grid_is_strictly_ascending():
    taus = sampling_timesteps(200, 20)
    assert taus[0] == 0 and taus[-1] == 200
    assert np.all(np.diff(taus) > 0)
    full = sampling_timesteps(50, 50)
    assert np.array_equal(full, np.arange(51))
    dense = sampling_timesteps(50, 500)  # clamps to the schedule length
    assert np.array_equal(dense, np.arange(51))
    with pytest.raises(ValueError):
        sampling_timesteps(50, 0)


# ---------------------------------------------------------------------------
# guidance


def test_guidance_endpoints_are_exact():
    rng = np.random.default_rng(0)
    cond, uncond = rng.normal(size=(2, 4, 3, 3))
    assert cfg_combine(cond, uncond, 1.0) is cond
    assert cfg_combine(cond, uncond, 0.0) is uncond


def test_guidance_scalar_blend():
    cond = np.array([1.0])
    uncond = np.array([0.0])
    assert cfg_combine(cond, uncond, 7.5)[0] == 7.5


def test_guidance_validation(cfg, schedule, enc):
    weights = init_weights(cfg, 0)
    for bad in (-1.0, float("inf")):
        with pytest.raises(ValueError, match="guidance"):
            sample(weights, enc, schedule, RngState(0), steps=1, guidance=bad,
                   identity_scale=0.4)
    with pytest.raises(ValueError, match="mismatch"):
        cfg_combine(np.zeros(2), np.zeros(3), 2.0)


# ---------------------------------------------------------------------------
# denoiser


def test_sequence_layout_roundtrip(cfg):
    z = rand_latent(cfg, 11)
    seq = latent_to_seq(z)
    assert seq.shape == (cfg.latent_hw ** 2, cfg.latent_channels)
    assert np.array_equal(seq_to_latent(seq, cfg.latent_hw), z)


def test_parameter_sets_partition_all_names(cfg):
    weights = init_weights(cfg, 0)
    names = weights.params().keys()
    by_set = {s: weights.names_in_set(s) for s in PARAM_SETS}
    spread = sorted(n for group in by_set.values() for n in group)
    assert spread == sorted(names)
    assert "blocks.0.attn.w_key_id" in by_set["identity_adapter"]
    assert "in_proj" in by_set["backbone"]


def ndarray_fields(obj):
    return [getattr(obj, f.name) for f in dataclasses.fields(obj)
            if isinstance(getattr(obj, f.name), np.ndarray)]


def field_at(weights, name):
    """The field a registry name spells: `blocks.1.attn.w_key` is
    weights.blocks[1].attn.w_key, and `proj.` stands for `projection.`."""
    obj = weights
    for part in name.split("."):
        obj = obj[int(part)] if part.isdigit() else \
            getattr(obj, "projection" if part == "proj" else part)
    return obj


def test_registry_names_every_weight_array_once(cfg, tmp_path):
    fresh = init_weights(cfg, 0)
    save_checkpoint(tmp_path / "ckpt.json", fresh)
    # built, loaded, and copied as `ablate-masks` copies its stage-1 model
    for weights in (fresh, load_checkpoint(tmp_path / "ckpt.json"), copy.deepcopy(fresh)):
        arrays = [a for a in ndarray_fields(weights) if a is not weights.pos_code]
        arrays += ndarray_fields(weights.projection)
        for blk in weights.blocks:
            arrays += ndarray_fields(blk) + ndarray_fields(blk.attn)
        params = weights.params()
        assert len(params) == len(arrays)
        assert sorted(map(id, params.values())) == sorted(map(id, arrays))
        for name, arr in params.items():
            assert arr is field_at(weights, name), name
        by_set = [set(weights.names_in_set(s)) for s in PARAM_SETS]
        assert sum(map(len, by_set)) == len(params)
        assert set().union(*by_set) == set(params)


def test_no_weight_field_can_be_rebound(cfg):
    weights = init_weights(cfg, 0)
    for obj, name in ((weights, "in_proj"), (weights.blocks[0].attn, "w_query"),
                      (weights.blocks[0], "ctrl_gate"), (weights.projection, "queries"),
                      (weights, "blocks"), (weights, "completed_stages")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))


def test_fresh_weights_keep_control_inert(cfg):
    weights = init_weights(cfg, 4)
    for blk in weights.blocks:
        assert not blk.ctrl_gate.any()
        assert not blk.time_gain.any()
    again = init_weights(cfg, 4)
    assert weights.checksum("backbone") == again.checksum("backbone")
    assert init_weights(cfg, 5).checksum("backbone") != weights.checksum("backbone")


def test_prediction_is_deterministic(cfg, schedule, enc):
    weights = init_weights(cfg, 1)
    z = rand_latent(cfg, 12)
    a = predict_one(weights, z, 10, 1)
    b = predict_one(weights, z, 10, 1)
    assert np.array_equal(a, b)
    assert a.shape == z.shape


def test_zero_strength_ignores_identity_features(cfg):
    weights = init_weights(cfg, 2)
    z = rand_latent(cfg, 13)
    feats = [RngState(7).derive(("f", k)).normal((cfg.n_query, cfg.d_id))
             for k in range(cfg.n_blocks)]
    plain = predict_one(weights, z, 9, 0)
    with_feats = predict_one(weights, z, 9, 0, feats, scale=0.0)
    assert np.array_equal(plain, with_feats)


def test_zeroed_adapters_and_gates_silence_all_conditions(cfg):
    """With identity projections and control gates zeroed, the prediction is
    independent of both the identity features and the control signal."""
    weights = init_weights(cfg, 3)
    for blk in weights.blocks:
        blk.attn.w_key_id[:] = 0.0
        blk.attn.w_value_id[:] = 0.0
        blk.ctrl_gate[:] = 0.0
    z = rand_latent(cfg, 14)
    feats = [RngState(8).derive(("f", k)).normal((cfg.n_query, cfg.d_id))
             for k in range(cfg.n_blocks)]
    ctrl = rand_latent(cfg, 15)
    bare = predict_one(weights, z, 12, 0)
    loaded = predict_one(weights, z, 12, 0, feats, ctrl, scale=1.0)
    assert np.array_equal(bare, loaded)


def test_invalid_latents_and_text_ids_are_rejected(cfg):
    weights = init_weights(cfg, 6)
    with pytest.raises(ValueError, match="latent shape"):
        predict_one(weights, np.zeros((4, 3, 3)), 5, None)
    with pytest.raises(ValueError, match="latent shape"):
        # one latent plane, neither a latent nor a stack
        cond = project_conditions(weights, [None])
        predict_eps(weights, rand_latent(cfg, 16)[0], time_terms(weights, [5], cond), cond)
    with pytest.raises(ValueError, match="text id"):
        predict_one(weights, rand_latent(cfg, 16), 5, 11)
    # int() would take each to text 1
    for text_id in (1.5, True, "1"):
        with pytest.raises(ValueError, match=rf"text id {text_id!r} is not an integer"):
            predict_one(weights, rand_latent(cfg, 16), 5, text_id)


def test_only_none_selects_the_null_text_row(cfg):
    """An integer text id lies in [0, n_text): the id of the reserved null
    row is rejected, while None runs on that row."""
    weights = init_weights(cfg, 6)
    z = rand_latent(cfg, 16)
    for text_id in (cfg.n_text, cfg.null_text_id, -1):
        with pytest.raises(ValueError, match=rf"text id {text_id} outside \[0, {cfg.n_text}\)"):
            predict_one(weights, z, 5, text_id)
    predict_one(weights, z, 5, None)
    predict_one(weights, z, 5, cfg.n_text - 1)


# ---------------------------------------------------------------------------
# sampling


def make_ref(cfg, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(3, cfg.image_size, cfg.image_size))


def test_sampling_is_seed_deterministic(cfg, schedule, enc):
    weights = init_weights(cfg, 7)
    ref = make_ref(cfg, 0)
    kw = dict(ref_img=ref, text_id=0, steps=5, guidance=2.0, identity_scale=0.4)
    a, info_a = sample(weights, enc, schedule, RngState(42), **kw)
    b, info_b = sample(weights, enc, schedule, RngState(42), **kw)
    assert np.array_equal(a, b)
    assert info_a == info_b
    c, _ = sample(weights, enc, schedule, RngState(43), **kw)
    assert not np.array_equal(a, c)


def test_unconditioned_sampling_ignores_the_reference(cfg, schedule, enc):
    weights = init_weights(cfg, 8)
    kw = dict(text_id=0, steps=5, guidance=2.0, identity_scale=0.0, mask_kind=None)
    a, info = sample(weights, enc, schedule, RngState(1), ref_img=make_ref(cfg, 1), **kw)
    b, _ = sample(weights, enc, schedule, RngState(1), ref_img=make_ref(cfg, 2), **kw)
    assert np.array_equal(a, b)
    assert info["used_reference"] is False


def test_single_step_matches_hand_trace(cfg, schedule, enc):
    from freqbooth.diffusion import cfg_combine as combine
    from freqbooth.reference_encoder import decode_latent

    weights = init_weights(cfg, 9)
    got, _ = sample(weights, enc, schedule, RngState(5), text_id=1, steps=1,
                    guidance=2.0, identity_scale=0.0)

    z = RngState(5).normal((cfg.latent_channels, cfg.latent_hw, cfg.latent_hw))
    t = cfg.timesteps
    eps_c = predict_one(weights, z, t, 1)
    eps_u = predict_one(weights, z, t, None)
    eps_hat = combine(eps_c, eps_u, 2.0)
    ab = schedule.alpha_bar(t)
    x0 = (z - np.sqrt(1 - ab) * eps_hat) / np.sqrt(ab)
    assert np.max(np.abs(got - decode_latent(x0, enc))) <= 1e-12


def test_unit_guidance_equals_the_both_branch_loop(cfg, schedule, enc):
    weights = init_weights(cfg, 10)
    fast, _ = sample(weights, enc, schedule, RngState(6), text_id=0, steps=4,
                     guidance=1.0, identity_scale=0.0)
    slow = both_branch_sample(weights, enc, schedule, RngState(6), 4, text_id=0)
    assert np.array_equal(fast, slow)


@pytest.fixture(scope="module")
def live_toy_weights(toy_cfg):
    """Toy-sized weights whose control gates and time gains are non-zero, so
    the control residual and the residual gain act in every block."""
    weights = init_weights(toy_cfg, 15)
    draw = RngState(15).derive("live")
    for blk in weights.blocks:
        blk.ctrl_gate[0] = 0.7
        blk.time_gain[...] = 0.2 * draw.normal(blk.time_gain.shape)
    return weights


@pytest.mark.parametrize("mask_kind", [None, MaskKind.LOW])
@pytest.mark.parametrize("identity_scale", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("guidance", [0.0, 2.0, 3.0])
def test_stacked_guidance_equals_the_both_branch_loop(live_toy_weights, toy_enc, guidance,
                                                      identity_scale, mask_kind):
    weights = live_toy_weights
    schedule = linear_schedule(weights.config.timesteps)
    kw = dict(ref_img=make_ref(weights.config, 16), text_id=1, identity_scale=identity_scale)
    fast, _ = sample(weights, toy_enc, schedule, RngState(17), steps=3, guidance=guidance,
                     mask_kind=mask_kind, **kw)
    slow = both_branch_sample(weights, toy_enc, schedule, RngState(17), 3, guidance=guidance,
                              mask_kind=mask_kind, **kw)
    assert np.array_equal(fast, slow)


# SHA-256 of sample()'s float64 image bytes on live_toy_weights, reference
# make_ref(cfg, 16), text 1, RngState(17), 3 steps, keyed by (mask, λ,
# guidance), as recorded before the softmax ran in place and the conditions
# were projected once per run (numpy 2.4, OpenBLAS 0.3.31).
PINNED_SAMPLES = {
    (None, 0.0, 1.0): "6b6d42afaef6e4630af59db9f3fc614a006794c96da1992df1eaed8c021ca074",
    (None, 0.0, 3.0): "d6ba41ae7ffcf724fbea2c6ba58bb0fb111b71ef97edc3aebd395b881044f2a3",
    (None, 0.4, 1.0): "893aa8847f2022ad0b6bd1e858dced879b2b59ca3c92b3b3a8b6600d6b52ed14",
    (None, 0.4, 3.0): "d0604e3388886d20d9539baaeced8eda314145aa3936735bfd30fea63da8b352",
    (None, 1.0, 1.0): "bdc1b2b2af301bb27a585cdda7a771263a9d67a9ba28bd8b12dc21e0227a9125",
    (None, 1.0, 3.0): "20ccfb5ea4fae8166941dec1583861ee4d3c44f42980eba2c93bbe951ad5b9d1",
    ("low", 0.0, 1.0): "4979f9dfe09b5fe8a457c73dd3b2231610a55389d251f4e302aab5bd5cf176d9",
    ("low", 0.0, 3.0): "7553e28623997335ff0a13d6fa1155ebb580a363db6623b5ceeedcfc400508e9",
    ("low", 0.4, 1.0): "7c562a9cd9fc8d846b7cf6257872a7466fb6d419a77e37a8c5b2a122222774aa",
    ("low", 0.4, 3.0): "348b8b8532273cd28144c4ed9c789f5a49a81e7b4046e52c5e3194c8f241bb73",
    ("low", 1.0, 1.0): "a2b783e166efa858e85ea0b0753c22bfb2fb321411c2ee16f65f35cc335233c4",
    ("low", 1.0, 3.0): "19971efeafd485fb510810b62e90450eb2de9ac09e8a62b3879b9fb6c322e176",
}


@pytest.mark.parametrize("mask, identity_scale, guidance", sorted(PINNED_SAMPLES, key=str))
def test_sample_images_are_pinned(live_toy_weights, toy_enc, mask, identity_scale, guidance):
    """The stack-versus-loop tests run the same kernels on both sides; these
    literals hold the images to what the pure kernels gave."""
    weights = live_toy_weights
    img, _ = sample(weights, toy_enc, linear_schedule(weights.config.timesteps), RngState(17),
                    ref_img=make_ref(weights.config, 16), text_id=1,
                    mask_kind=None if mask is None else MaskKind(mask), steps=3,
                    guidance=guidance, identity_scale=identity_scale)
    assert hashlib.sha256(img.tobytes()).hexdigest() == \
        PINNED_SAMPLES[(mask, identity_scale, guidance)]


def test_a_guided_step_runs_one_denoiser_forward(cfg, schedule, enc, monkeypatch):
    """A run builds its time features once; each step runs one prediction,
    one denoiser forward and one DDIM update, guided or not."""
    names = ("time_features", "predict_eps", "denoiser_forward", "ddim_step",
             "reference_forward")
    calls = {}

    def counting(name):
        real = getattr(freqbooth.diffusion, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(freqbooth.diffusion, name, counted)

    for name in names:
        counting(name)
    weights = init_weights(cfg, 18)
    for guidance in (1.0, 3.0):
        calls.update(dict.fromkeys(names, 0))
        sample(weights, enc, schedule, RngState(2), ref_img=make_ref(cfg, 5), text_id=0,
               steps=5, guidance=guidance, identity_scale=0.4)
        assert calls == {"time_features": 1, "predict_eps": 5, "denoiser_forward": 5,
                         "ddim_step": 5, "reference_forward": 1}, guidance


def test_control_conditioning_requires_a_reference(cfg, schedule, enc):
    weights = init_weights(cfg, 11)
    with pytest.raises(ValueError, match="reference"):
        sample(weights, enc, schedule, RngState(7), ref_img=None,
               mask_kind=MaskKind.LOW, steps=2, guidance=3.0, identity_scale=0.4)


def test_sample_computes_reference_features_once(cfg, schedule, enc, monkeypatch):
    calls = []
    real = freqbooth.diffusion.reference_forward

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(freqbooth.diffusion, "reference_forward", counting)
    weights = init_weights(cfg, 13)
    kw = dict(ref_img=make_ref(cfg, 3), text_id=0, steps=5, guidance=2.0)
    sample(weights, enc, schedule, RngState(1), identity_scale=0.4, **kw)
    assert len(calls) == 1
    sample(weights, enc, schedule, RngState(1), identity_scale=0.0, **kw)
    assert len(calls) == 1


def test_sample_projects_its_conditions_once(cfg, schedule, enc, monkeypatch):
    """The identity keys and values, text rows and control fields are
    projected once per call, not once per step."""
    calls = []
    real = freqbooth.diffusion.identity_term

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(freqbooth.diffusion, "identity_term", counting)
    weights = init_weights(cfg, 13)
    sample(weights, enc, schedule, RngState(1), ref_img=make_ref(cfg, 3), text_id=0, steps=5,
           guidance=2.0, identity_scale=0.4, mask_kind=MaskKind.LOW)
    assert len(calls) == cfg.n_blocks


def test_identity_scale_outside_unit_interval_is_rejected(cfg, schedule, enc):
    weights = init_weights(cfg, 14)
    for bad in (-0.5, 1.5, 5.0, float("nan")):
        with pytest.raises(ValueError, match="identity scale"):
            sample(weights, enc, schedule, RngState(0), ref_img=make_ref(cfg, 4),
                   steps=1, guidance=3.0, identity_scale=bad)


def test_schedule_config_mismatch_is_rejected(cfg, enc):
    weights = init_weights(cfg, 12)
    with pytest.raises(ValueError, match="schedule"):
        sample(weights, enc, linear_schedule(cfg.timesteps + 1), RngState(8), steps=2,
               guidance=3.0, identity_scale=0.4)


def test_a_stack_equals_its_one_row_calls_and_keeps_its_cache(live_toy_weights, toy_enc):
    weights = live_toy_weights
    cfg = weights.config
    refs = [make_ref(cfg, 19), make_ref(cfg, 21)]
    feats = [reference_forward(ref, weights.projection, weights.id_heads(), toy_enc)
             for ref in refs]
    ctrls = [make_control_signal(encode_latent(ref, toy_enc), MaskKind.LOW) for ref in refs]
    # (timestep, text id, identity features, control latent) of each row
    rows = [(37, 0, feats[0], ctrls[0]), (1, None, None, None), (120, 2, None, ctrls[1]),
            (200, 3, feats[1], None)]
    ts, texts, row_feats, row_ctrls = map(list, zip(*rows))

    def sparse(entries):
        listed = [i for i, e in enumerate(entries) if e is not None]
        return listed, [entries[i] for i in listed]

    irows, ifeats = sparse(row_feats)
    identity = (irows, [np.stack([f[k] for f in ifeats]) for k in range(cfg.n_blocks)])
    crows, cstack = sparse(row_ctrls)
    z = np.stack([latent_to_seq(rand_latent(cfg, 20 + i)) for i in range(len(rows))])
    cond = project_conditions(weights, texts, identity, (crows, np.stack(cstack)), 0.6)
    stacked, cache = denoiser_forward(weights, z, time_terms(weights, ts, cond), cond)
    assert cache is not None and len(cache["caches"]) == cfg.n_blocks
    for i, (t, text_id, f, c) in enumerate(rows):
        alone = project_conditions(
            weights, [text_id], None if f is None else ([0], [x[None] for x in f]),
            None if c is None else ([0], c[None]), 0.6)
        alone, _ = denoiser_forward(weights, z[i:i + 1], time_terms(weights, [t], alone), alone)
        assert np.array_equal(stacked[i], alone[0]), i
    pair = project_conditions(weights, [0, None])
    with pytest.raises(ValueError, match="one timestep and text id per row"):
        denoiser_forward(weights, z, time_terms(weights, [37] * 2, pair), pair)
    with pytest.raises(ValueError, match="one timestep and text id per row"):
        time_terms(weights, [37] * 3, pair)

    # one latent shared by the rows of a 2- and a 4-row stack, each with and
    # without its identity and control rows, at one timestep and at one per row
    shared = rand_latent(cfg, 24)
    stacks = [(([0, None], ts[:2]), ([0], [f[:1] for f in identity[1]]), ([0], cstack[0][None])),
              ((texts, ts), identity, (crows, np.stack(cstack)))]
    for (row_texts, row_ts), ident, ctrl in stacks:
        n = len(row_texts)
        for ident, ctrl in ((None, None), (ident, ctrl)):
            cond = project_conditions(weights, row_texts, ident, ctrl, 0.6)
            for t in ([120], row_ts):
                terms = time_terms(weights, t, cond)
                copies = predict_eps(weights, np.stack([shared] * n), terms, cond)
                assert np.array_equal(predict_eps(weights, shared, terms, cond), copies), n
            for other in {1, 3, 5} - {n}:
                with pytest.raises(ValueError, match="one timestep and text id per row"):
                    predict_eps(weights, np.stack([shared] * other), terms, cond)
    with pytest.raises(ValueError, match="increasing rows"):
        project_conditions(weights, texts, None, (crows[::-1], np.stack(cstack)), 0.6)
    with pytest.raises(ValueError, match="one entry per row"):
        project_conditions(weights, texts, None, ([0], np.stack(cstack)), 0.6)
