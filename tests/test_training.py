import inspect
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbooth import diffusion, training
from freqbooth.config import tiny_config
from freqbooth.dct_freq import MaskKind, make_control_signal
from freqbooth.diffusion import (PARAM_SETS, denoiser_backward, denoiser_forward,
                                 forward_noise, init_weights, latent_to_seq)
from freqbooth.reference_encoder import (build_encoders, encode_latent,
                                         reference_backward, reference_forward_train)
from freqbooth.tensor_core import RngState
from freqbooth.training import (STAGE_SETS, PreparedExample, StageOrderError,
                                ToyDatasetSpec, TrainConfig, _prepare, adam_step,
                                batch_loss, dataset_checksum, generate_dataset,
                                gradient_check, identity_metric_flagged,
                                identity_params, init_adam, load_checkpoint,
                                orientation_histogram, save_checkpoint,
                                smoothing_window, train, write_json)
from conftest import SMALL_SPEC, flip_one_gradient, striped_test_image


def identity_metric(generated, reference):
    return identity_metric_flagged(generated, reference)[0]


# ---------------------------------------------------------------------------
# dataset


def test_dataset_is_bit_deterministic(tiny_dataset):
    again = generate_dataset(SMALL_SPEC, 0)
    assert dataset_checksum(again) == dataset_checksum(tiny_dataset)
    assert np.array_equal(again.train_images, tiny_dataset.train_images)
    other = generate_dataset(SMALL_SPEC, 1)
    assert dataset_checksum(other) != dataset_checksum(tiny_dataset)


def test_dataset_counts_and_round_robin(tiny_dataset):
    spec = tiny_dataset.spec
    assert tiny_dataset.train_images.shape == (spec.train_size, 3, 8, 8)
    assert tiny_dataset.test_refs.shape == (spec.n_identities, 3, 8, 8)
    want_ids = np.arange(spec.train_size) % spec.n_identities
    assert np.array_equal(tiny_dataset.train_identity, want_ids)
    assert tiny_dataset.train_text.max() < spec.n_contexts


def test_samples_pair_with_their_identity_reference(tiny_dataset):
    s = tiny_dataset.train_sample(5)
    assert s.identity_id == 5 % tiny_dataset.spec.n_identities
    assert np.array_equal(s.ref, tiny_dataset.train_refs[s.identity_id])


def test_identity_traits_are_angle_separated():
    n = 16
    angles = sorted(identity_params(0, i, n).angle for i in range(n))
    gaps = np.diff(angles + [angles[0] + np.pi])
    assert gaps.min() > np.pi / (2 * n)  # jitter can't collapse neighbours


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        ToyDatasetSpec(n_identities=0)
    with pytest.raises(ValueError):
        ToyDatasetSpec(n_contexts=9)
    with pytest.raises(ValueError):
        ToyDatasetSpec(image_size=4)


def test_own_reference_scores_above_other_identities():
    ds = generate_dataset(ToyDatasetSpec(), 0)
    rng = RngState(99).derive("pairing")
    better = 0
    total = ds.spec.train_size
    for i in range(total):
        s = ds.train_sample(i)
        other = (s.identity_id + 1 + rng.randint(ds.spec.n_identities - 1)) \
            % ds.spec.n_identities
        own = identity_metric(s.image, ds.train_refs[s.identity_id])
        cross = identity_metric(s.image, ds.train_refs[other])
        better += own > cross
    assert better / total >= 0.90


# ---------------------------------------------------------------------------
# identity metric


def test_metric_self_similarity_is_one():
    img = striped_test_image()
    assert identity_metric(img, img) == 1.0


def test_metric_is_symmetric():
    a = striped_test_image(angle=0.3)
    b = striped_test_image(angle=1.1)
    assert identity_metric(a, b) == identity_metric(b, a)


def test_rotated_stripes_hit_the_histogram_floor():
    a = striped_test_image(angle=0.4)
    b = np.rot90(a, axes=(1, 2)).copy()
    value = identity_metric(a, b)
    assert -1.0 <= value <= 0.05


def test_metric_flags_degenerate_images():
    flat = np.full((3, 32, 32), 0.5)
    value, degenerate = identity_metric_flagged(flat, striped_test_image())
    assert value == 0.0 and degenerate is True
    with pytest.raises(ValueError, match="shapes"):
        identity_metric(np.zeros((3, 8, 8)), np.zeros((3, 16, 16)))


def test_histogram_is_normalized_and_smooth_in_angle():
    h1 = orientation_histogram(striped_test_image(angle=0.40))
    h2 = orientation_histogram(striped_test_image(angle=0.45))
    assert abs(h1.sum() - 1.0) <= 1e-12
    cos = h1 @ h2 / (np.linalg.norm(h1) * np.linalg.norm(h2))
    assert 0.5 < cos < 1.0  # small rotations move the histogram, gradually
    assert orientation_histogram(np.zeros((3, 8, 8))) is None


# ---------------------------------------------------------------------------
# objectives


def batch_of(ds, n):
    return [ds.train_sample(i) for i in range(n)]


def prepared_batch(ds, weights, schedule, enc, stage, n):
    mask = MaskKind.LOW if stage == 2 else None
    return _prepare(batch_of(ds, n), weights, schedule, RngState(stage), enc,
                    stage, 0.1, mask)


def zero_output_weights(cfg, seed):
    weights = init_weights(cfg, seed)
    weights.out_proj[:] = 0.0  # every noise prediction is exactly 0
    return weights


def test_perfect_prediction_gives_zero_loss(tiny_dataset, tiny_schedule, tiny_enc,
                                            tiny_cfg):
    weights = zero_output_weights(tiny_cfg, 0)
    for stage in (0, 1, 2):
        prepared = prepared_batch(tiny_dataset, weights, tiny_schedule, tiny_enc,
                                  stage, 2)
        for ex in prepared:
            ex.eps = np.zeros_like(ex.eps)
        loss, grads = batch_loss(weights, tiny_enc, prepared, stage, 1.0)
        assert loss == 0.0
        assert not any(g.any() for g in grads.values())


def test_constant_offset_gives_squared_loss(tiny_dataset, tiny_schedule, tiny_enc,
                                            tiny_cfg):
    weights = zero_output_weights(tiny_cfg, 0)
    delta = 0.37
    for stage in (0, 1, 2):
        prepared = prepared_batch(tiny_dataset, weights, tiny_schedule, tiny_enc,
                                  stage, 3)
        loss, _ = batch_loss(weights, tiny_enc, prepared, stage, 1.0)
        want = np.mean([np.mean(ex.eps ** 2) for ex in prepared])
        assert abs(loss - want) <= 1e-12
        for ex in prepared:
            ex.eps = np.full_like(ex.eps, -delta)
        loss, _ = batch_loss(weights, tiny_enc, prepared, stage, 1.0)
        assert abs(loss - delta ** 2) <= 1e-12


def test_gradients_cover_exactly_the_trainable_set(tiny_dataset, tiny_schedule,
                                                   tiny_enc, tiny_cfg):
    weights = init_weights(tiny_cfg, 1)
    for stage, scale in ((0, 0.0), (1, 0.5), (2, 0.0)):
        prepared = prepared_batch(tiny_dataset, weights, tiny_schedule, tiny_enc,
                                  stage, 2)
        _, grads = batch_loss(weights, tiny_enc, prepared, stage, scale)
        assert sorted(grads) == weights.names_in_set(STAGE_SETS[stage])


def test_inert_gates_match_the_unconditioned_loss(tiny_dataset, tiny_schedule,
                                                  tiny_enc, tiny_cfg):
    """Zeroed control gates make the control-conditioned loss equal the same
    model's loss on the identical batch without any control signal."""
    weights = init_weights(tiny_cfg, 2)  # gates start at zero
    rng = RngState(3)
    prepared = []
    for i in range(3):
        s = tiny_dataset.train_sample(i)
        z0 = encode_latent(s.image, tiny_enc)
        t = 1 + rng.randint(tiny_schedule.timesteps)
        eps = rng.normal(z0.shape)
        prepared.append(dict(z_t=forward_noise(z0, t, eps, tiny_schedule),
                             t=t, eps=eps, text_id=s.text_id,
                             ctrl=make_control_signal(z0, MaskKind.LOW)))
    with_ctrl = [PreparedExample(ref=None, **p) for p in prepared]
    without = [PreparedExample(**{**p, "ctrl": None}, ref=None) for p in prepared]
    loss_ctrl, _ = batch_loss(weights, tiny_enc, with_ctrl, 2, 0.0,
                              compute_grads=False)
    loss_plain, _ = batch_loss(weights, tiny_enc, without, 2, 0.0,
                               compute_grads=False)
    assert loss_ctrl == loss_plain


# ---------------------------------------------------------------------------
# stage-restricted backward


def full_backward_grads(weights, enc, prepared, scale):
    """batch_loss's gradients the unrestricted way: every example runs the
    full backward (every parameter set) and the reference backward, and
    every parameter accumulates."""
    acc = {name: np.zeros_like(arr) for name, arr in weights.params().items()}
    for ex in prepared:
        feats = rcache = None
        if ex.ref is not None and scale != 0.0:
            feats, rcache = reference_forward_train(ex.ref, weights.projection,
                                                    weights.id_heads(), enc)
        ctrl_seq = latent_to_seq(ex.ctrl) if ex.ctrl is not None else None
        pred, cache = denoiser_forward(weights, latent_to_seq(ex.z_t), ex.t,
                                       ex.text_id, feats, ctrl_seq, scale)
        diff = pred - latent_to_seq(ex.eps)
        grads, didentity = denoiser_backward((2.0 / (diff.size * len(prepared))) * diff,
                                             cache, PARAM_SETS)
        for name, g in grads.items():
            acc[name] += g
        if rcache is not None:
            rgrads = reference_backward(didentity, rcache)
            for leaf in ("queries", "w_key", "w_value"):
                acc[f"proj.{leaf}"] += rgrads[leaf]
            for k, dh in enumerate(rgrads["heads"]):
                acc[f"blocks.{k}.id_head"] += dh
    return acc


def random_point(cfg, seed):
    """Weights with every entry random, the zero-initialised ones included,
    as in gradient_check."""
    weights = init_weights(cfg, seed)
    rng = RngState(seed).derive("point")
    for name, arr in weights.params().items():
        arr[:] = rng.derive(name).normal(arr.shape) * 0.3
    return weights


def mixed_batch(cfg, enc, stage, kept, seed):
    """One example per entry of `kept`; False drops the text and reference
    conditioning as `_prepare` does for stages 0 and 1."""
    rng = RngState(seed).derive("batch")
    schedule = diffusion.linear_schedule(cfg.timesteps)

    def rand_image():
        return np.clip(0.5 + 0.25 * rng.normal((3, cfg.image_size, cfg.image_size)), 0, 1)

    out = []
    for i, keep in enumerate(kept):
        z0 = encode_latent(rand_image(), enc)
        ref = rand_image()
        t = 1 + rng.randint(cfg.timesteps)
        eps = rng.normal(z0.shape)
        out.append(PreparedExample(
            z_t=forward_noise(z0, t, eps, schedule), t=t, eps=eps,
            text_id=i % cfg.n_text if keep or stage == 2 else None,
            ref=ref if keep and stage == 1 else None,
            ctrl=make_control_signal(z0, MaskKind.LOW) if stage == 2 else None))
    return out


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), stage=st.sampled_from((0, 1, 2)),
       scale=st.sampled_from((0.0, 0.4, 1.0)), n_blocks=st.integers(1, 3),
       kept=st.lists(st.booleans(), min_size=1, max_size=4))
def test_stage_backward_equals_the_full_backward_bitwise(seed, stage, scale, n_blocks,
                                                         kept):
    cfg = tiny_config(n_blocks=n_blocks)
    enc = build_encoders(cfg)
    weights = random_point(cfg, seed)
    prepared = mixed_batch(cfg, enc, stage, kept, seed)
    _, grads = batch_loss(weights, enc, prepared, stage, scale)
    full = full_backward_grads(weights, enc, prepared, scale)
    assert sorted(grads) == weights.names_in_set(STAGE_SETS[stage])
    for name, g in grads.items():
        assert np.array_equal(g, full[name]), name


def test_backward_rejects_unknown_set_names():
    # a bare string would otherwise iterate as letters and train nothing
    for sets in ("control", ("controls",)):
        with pytest.raises(ValueError, match="unknown parameter sets"):
            diffusion.reaches({}, sets)


def recording(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call's arguments
    as a dict by parameter name."""
    calls = []
    real = getattr(module, name)
    signature = inspect.signature(real)

    def wrapper(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_stage2_backward_enters_only_the_last_attention_block(monkeypatch, tiny_cfg,
                                                             tiny_enc):
    weights = random_point(tiny_cfg, 4)
    prepared = mixed_batch(tiny_cfg, tiny_enc, 2, [True] * 3, 4)
    calls = recording(monkeypatch, diffusion, "attention_backward")
    batch_loss(weights, tiny_enc, prepared, 2, 0.0)
    # one call per example, from the last block, for its input gradient only
    assert len(calls) == len(prepared)
    last = tiny_cfg.n_blocks - 1
    for call in calls:
        assert call["cache"]["w"] is weights.blocks[last].attn
        assert (call["self_grads"], call["cross_grads"], call["need_dhidden"]) == \
            (False, False, True)


def test_stage1_skips_the_backward_of_unreferenced_examples(monkeypatch, tiny_cfg,
                                                            tiny_enc):
    weights = random_point(tiny_cfg, 5)
    kept = [True, False, False, True, False]
    prepared = mixed_batch(tiny_cfg, tiny_enc, 1, kept, 5)
    denoiser_calls = recording(monkeypatch, training, "denoiser_backward")
    attention_calls = recording(monkeypatch, diffusion, "attention_backward")
    batch_loss(weights, tiny_enc, prepared, 1, 0.4)
    assert len(denoiser_calls) == sum(kept)
    assert all(call["sets"] == ("identity_adapter",) for call in denoiser_calls)
    # block 1 passes its input gradient down; block 0 runs the cross term only
    flags = [(call["self_grads"], call["cross_grads"], call["need_dhidden"])
             for call in attention_calls]
    assert flags == [(False, True, True), (False, True, False)] * sum(kept)
    # without identity features no example reaches a trainable parameter
    denoiser_calls.clear()
    _, grads = batch_loss(weights, tiny_enc, prepared, 1, 0.0)
    assert denoiser_calls == []
    assert not any(g.any() for g in grads.values())


# ---------------------------------------------------------------------------
# optimizer


def test_adam_moves_against_the_gradient():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.array([0.5, -0.5])}
    state = init_adam(params, ["w"])
    adam_step(params, grads, state, lr=0.1)
    assert params["w"][0] < 1.0 and params["w"][1] > -2.0
    assert state.step == 1


# ---------------------------------------------------------------------------
# train loop


def test_stage_order_is_enforced(tiny_dataset, tiny_cfg):
    fresh = init_weights(tiny_cfg, 0)
    with pytest.raises(StageOrderError):
        train(TrainConfig(stage=1, steps=1), tiny_dataset, fresh)
    with pytest.raises(StageOrderError):
        fresh2 = init_weights(tiny_cfg, 0)
        fresh2.completed_stages.append(0)
        train(TrainConfig(stage=2, steps=1, mask_kind=MaskKind.LOW),
              tiny_dataset, fresh2)


def test_zero_steps_changes_nothing(tiny_dataset, tiny_schedule, tiny_enc, tiny_cfg):
    weights = init_weights(tiny_cfg, 3)
    before = {s: weights.checksum(s) for s in PARAM_SETS}
    report = train(TrainConfig(stage=0, steps=0), tiny_dataset, weights,
                   tiny_schedule, tiny_enc)
    after = {s: weights.checksum(s) for s in PARAM_SETS}
    assert before == after
    assert report.initial_loss == report.final_loss
    assert report.losses == []
    assert report.initial_smoothed == report.final_smoothed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises_before_the_update(tiny_dataset, tiny_schedule,
                                                  tiny_enc, tiny_cfg):
    weights = init_weights(tiny_cfg, 3)
    with pytest.raises(FloatingPointError, match="loss"):
        train(TrainConfig(stage=0, steps=5, lr=1e200), tiny_dataset, weights,
              tiny_schedule, tiny_enc)
    assert weights.completed_stages == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_weights_after_the_last_step_raise(tiny_dataset, tiny_schedule,
                                                      tiny_enc, tiny_cfg):
    # one step: its loss is finite, the update it applies is not
    weights = init_weights(tiny_cfg, 3)
    with pytest.raises(FloatingPointError, match="not finite"):
        train(TrainConfig(stage=0, steps=1, lr=np.inf), tiny_dataset, weights,
              tiny_schedule, tiny_enc)


def test_each_stage_touches_only_its_parameter_set(tiny_trained):
    _, reports = tiny_trained
    for stage, trainable in ((0, "backbone"), (1, "identity_adapter"),
                             (2, "control")):
        report = reports[stage]
        assert report.trainable_set == trainable
        assert report.frozen_before == report.frozen_after
        assert trainable not in report.frozen_before
        assert len(report.frozen_before) == 2


def test_training_runs_are_reproducible(tiny_dataset, tiny_schedule, tiny_enc,
                                        tiny_cfg):
    def run():
        weights = init_weights(tiny_cfg, 5)
        report = train(TrainConfig(stage=0, steps=8, seed=11), tiny_dataset,
                       weights, tiny_schedule, tiny_enc)
        return report, weights

    r1, w1 = run()
    r2, w2 = run()
    assert r1.losses == r2.losses
    assert all(w1.checksum(s) == w2.checksum(s) for s in PARAM_SETS)
    r3 = train(TrainConfig(stage=0, steps=8, seed=12), tiny_dataset,
               init_weights(tiny_cfg, 5), tiny_schedule, tiny_enc)
    assert r1.losses != r3.losses


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(stage=3, steps=1)
    with pytest.raises(ValueError):
        TrainConfig(stage=0, steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(stage=0, steps=1, batch_size=0)
    with pytest.raises(ValueError, match="mask"):
        TrainConfig(stage=2, steps=1)
    for bad in (-0.1, 7.0, float("nan")):
        with pytest.raises(ValueError, match="identity scale"):
            TrainConfig(stage=1, steps=1, identity_scale=bad)


def test_smoothing_window_bounds():
    assert smoothing_window(0) == 1
    assert smoothing_window(40) == 4
    assert smoothing_window(2000) == 50
    assert smoothing_window(100000) == 50


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_is_bitwise(tiny_trained, tmp_path):
    weights, _ = tiny_trained
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, weights)
    loaded = load_checkpoint(path)
    for name, arr in weights.params().items():
        assert np.array_equal(arr, loaded.params()[name]), name
    assert loaded.completed_stages == sorted(weights.completed_stages)
    assert loaded.config == weights.config


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_blocks=st.integers(1, 3),
       stages=st.lists(st.sampled_from((0, 1, 2)), unique=True))
def test_checkpoint_roundtrip_over_random_configs(tmp_path_factory, seed, n_blocks,
                                                  stages):
    cfg = tiny_config(n_blocks=n_blocks)
    weights = random_point(cfg, seed)
    weights.completed_stages = stages
    path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
    save_checkpoint(path, weights)
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    assert loaded.completed_stages == sorted(stages)
    params, back = weights.params(), loaded.params()
    assert sorted(back) == sorted(params)
    for name, arr in params.items():
        assert np.array_equal(arr, back[name]), name
    checksums = {s: weights.checksum(s) for s in PARAM_SETS}
    assert json.loads(path.read_text())["set_checksums"] == checksums
    assert {s: loaded.checksum(s) for s in PARAM_SETS} == checksums


def test_checkpoint_rejects_tampering(tiny_cfg, tmp_path):
    weights = init_weights(tiny_cfg, 0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, weights)

    payload = json.loads(path.read_text())
    payload["params"]["in_proj"]["data"][0] += 1.0
    tampered = tmp_path / "bad.json"
    tampered.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="checksum"):
        load_checkpoint(tampered)

    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    versioned = tmp_path / "ver.json"
    versioned.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="schema"):
        load_checkpoint(versioned)

    payload = json.loads(path.read_text())
    del payload["params"]["in_proj"]
    pruned = tmp_path / "pruned.json"
    pruned.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="missing"):
        load_checkpoint(pruned)


def test_checkpoint_rejects_non_finite_params(tiny_cfg, tmp_path):
    weights = init_weights(tiny_cfg, 0)
    weights.blocks[1].ff_w1[0, 0] = np.nan
    path = tmp_path / "nan.json"
    save_checkpoint(path, weights)  # checksums match the NaN bytes
    with pytest.raises(ValueError, match=r"blocks\.1\.ff_w1 is not finite"):
        load_checkpoint(path)


def test_interrupted_json_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    write_json(path, {"run": 1})
    before = path.read_bytes()

    def failing_dump(payload, fh, **kwargs):
        fh.write('{"run": ')
        raise OSError("disk full")

    monkeypatch.setattr(training.json, "dump", failing_dump)
    with pytest.raises(OSError, match="disk full"):
        write_json(path, {"run": 2})
    assert path.read_bytes() == before
    assert json.loads(before) == {"run": 1}
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# ---------------------------------------------------------------------------
# gradient check harness


def test_gradient_check_detects_an_injected_fault(monkeypatch):
    flip_one_gradient(monkeypatch)
    res = gradient_check(2)
    assert res["pass"] is False
    assert res["max_rel_err"] > 1e-4


def test_gradient_check_report_schema():
    res = gradient_check(2)
    assert res["trainable_set"] == "control"
    assert set(res["per_param_max_rel_err"]) == \
        set(init_weights(tiny_config(), 0).names_in_set("control"))
    assert res["tolerance"] == 1e-4
