import base64
import hashlib
import inspect
import json
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqbooth import diffusion, training
from freqbooth.config import tiny_config, toy_config
from freqbooth.dct_freq import MaskKind, make_control_signal
from freqbooth.diffusion import (PARAM_SETS, denoiser_backward, denoiser_forward,
                                 forward_noise, init_weights, latent_to_seq,
                                 linear_schedule, predict_eps, project_conditions, sample,
                                 time_terms)
from freqbooth.netpbm import decode_levels, quantize
from freqbooth.reference_encoder import (build_encoders, encode_latent, extract_tokens,
                                         reference_backward, reference_forward_train)
from freqbooth.tensor_core import RngState
from freqbooth.training import (COND_DROPOUT, IMAGE_FIELDS, STAGE_SETS, PreparedBatch,
                                StageOrderError, ToyDatasetSpec, TrainConfig, _prepare,
                                adam_step, batch_loss, dataset_checksum, draw_trials,
                                generate_dataset, gradient_check, held_out_losses,
                                identity_metric_flagged, identity_params,
                                init_adam, labels, load_checkpoint, orientation_histogram,
                                paired_sweep, save_checkpoint, smoothing_window, train,
                                write_json)
from conftest import (SMALL_SPEC, flip_one_gradient, reference_orientation_histogram,
                      striped_test_image)


def identity_metric(generated, reference):
    return identity_metric_flagged(generated, reference)[0]


# ---------------------------------------------------------------------------
# dataset


def test_dataset_is_bit_deterministic(tiny_dataset):
    again = generate_dataset(SMALL_SPEC, 0)
    assert dataset_checksum(again) == dataset_checksum(tiny_dataset)
    for name in IMAGE_FIELDS:
        assert np.array_equal(getattr(again, name), getattr(tiny_dataset, name)), name
    other = generate_dataset(SMALL_SPEC, 1)
    assert dataset_checksum(other) != dataset_checksum(tiny_dataset)


def test_dataset_checksums_are_pinned(tiny_dataset):
    """The recorded checksums dataset indexes and config echoes hold:
    SMALL_SPEC at seed 0 and the default spec at seed 1."""
    default = generate_dataset(ToyDatasetSpec(), 1)
    assert dataset_checksum(tiny_dataset) == \
        "269184a8f9a5c88135b576b4db1e13b4e024456136b0e5694b3ae49b75f9999f"
    assert dataset_checksum(default) == \
        "9d584e19b2722084ef25f306afcb72cde58fec86ff4afb44e75766bb6ce8c617"


def test_the_dataset_checksum_covers_the_seed_and_every_level(tiny_dataset):
    """The checksum hashes the seed and each split's stored 8-bit levels:
    moving one pixel of any split by one level changes it, and the same
    levels in a new array do not."""
    checksum = dataset_checksum(tiny_dataset)
    reseeded = replace(tiny_dataset, seed=tiny_dataset.seed + 1)
    assert dataset_checksum(reseeded) != checksum
    for field in IMAGE_FIELDS:
        arr = getattr(tiny_dataset, field).copy()
        assert dataset_checksum(replace(tiny_dataset, **{field: arr})) == checksum, field
        level = int(arr[-1, -1, -1, 2])
        arr[-1, -1, -1, 2] = level + (1 if level < 128 else -1)
        assert dataset_checksum(replace(tiny_dataset, **{field: arr})) != checksum, field


def test_each_context_background_is_drawn_once(monkeypatch):
    drawn = []
    real = training._background

    def counted(kind, size):
        drawn.append(kind)
        return real(kind, size)

    monkeypatch.setattr(training, "_background", counted)
    generate_dataset(SMALL_SPEC, 0)
    assert sorted(drawn) == list(range(SMALL_SPEC.n_contexts))


def test_the_pixel_grid_is_built_once_and_read_only(monkeypatch):
    built = []
    real = training._pixel_grid

    def counted(size):
        built.append(size)
        return real(size)

    monkeypatch.setattr(training, "_pixel_grid", counted)
    generate_dataset(SMALL_SPEC, 0)
    assert built == [SMALL_SPEC.image_size]
    assert not real(8).flags.writeable


def test_dataset_counts_and_round_robin(tiny_dataset):
    spec = tiny_dataset.spec
    assert tiny_dataset.train_levels.shape == (spec.train_size, 8, 8, 3)
    assert tiny_dataset.test_levels.shape == (spec.test_size, 8, 8, 3)
    assert tiny_dataset.test_refs.shape == (spec.n_identities, 3, 8, 8)
    want_ids = np.arange(spec.train_size) % spec.n_identities
    idents, texts = labels(spec, np.arange(spec.train_size, dtype=np.int64))
    assert np.array_equal(idents, want_ids)
    assert texts.max() < spec.n_contexts


# SHA-256 of each split of the default spec at seed 1, decoded to C-ordered
# float64 (level / 255): the bytes of the float64 arrays a dataset held
# before it kept its levels
DECODED_SPLIT_SHA256 = {
    "train_levels": "868fcb9cd6f888f5411144660641fdd0ceddab4906912a4e4ccf2db6af5a7085",
    "test_levels": "51e7a418fe8dbd9222ea4277a05d8abc63cca9c232d7329ab9493d43551c6eb2",
    "train_ref_levels": "77b7de4468114d07f1fbde3405d0346c30ecf942cb449a72fa5e6175bbe8059f",
    "test_ref_levels": "e90158de407eb59f0a419d4313e49a4c447f0fb9576e441f84c3ef53830cd974",
}


@pytest.fixture(scope="module")
def default_dataset():
    return generate_dataset(ToyDatasetSpec(), 1)


def test_decoded_splits_are_pinned(default_dataset):
    for name, want in DECODED_SPLIT_SHA256.items():
        decoded = decode_levels(getattr(default_dataset, name))
        assert decoded.dtype == np.float64 and decoded.flags.c_contiguous, name
        assert hashlib.sha256(decoded).hexdigest() == want, name
    assert hashlib.sha256(decode_levels(default_dataset.train_ref_levels)).hexdigest() == \
        DECODED_SPLIT_SHA256["train_ref_levels"]
    assert hashlib.sha256(default_dataset.test_refs).hexdigest() == \
        DECODED_SPLIT_SHA256["test_ref_levels"]


def test_the_references_are_held_as_float64_levels_over_255(default_dataset):
    ds = default_dataset
    for refs, levels in ((decode_levels(ds.train_ref_levels), ds.train_ref_levels),
                         (ds.test_refs, ds.test_ref_levels)):
        assert refs.dtype == np.float64 and refs.flags.c_contiguous
        assert refs.shape == (ds.spec.n_identities, 3, 32, 32)
        want = np.moveaxis(levels, -1, 1) / 255.0
        assert np.ascontiguousarray(want).tobytes() == refs.tobytes()


def test_the_image_levels_take_one_byte_per_level(default_dataset):
    spec = default_dataset.spec
    n_images = spec.train_size + spec.test_size + 2 * spec.n_identities
    for name in IMAGE_FIELDS:
        levels = getattr(default_dataset, name)
        assert levels.dtype == np.uint8 and levels.flags.c_contiguous, name
    assert sum(getattr(default_dataset, name).nbytes for name in IMAGE_FIELDS) \
        == n_images * 3 * spec.image_size ** 2 == 1_867_776


def test_generating_the_default_dataset_holds_little_beyond_its_arrays():
    """The generator writes each image's levels into its split as it goes,
    so its traced peak is the dataset's four level stacks plus a few
    images' floats (the float64 splits alone took 14.9 MB)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ds = generate_dataset(ToyDatasetSpec(), 1)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    arrays = sum(getattr(ds, name).nbytes for name in IMAGE_FIELDS)
    assert arrays <= peak < 4_000_000


def test_a_chunk_decodes_the_stacked_float_images_of_its_picks(monkeypatch, default_dataset,
                                                               toy_cfg, toy_enc):
    """`train` prepares its steps a chunk at a time, CHUNK_EXAMPLES examples
    at most: each chunk gathers its steps' picks, B `randint` ticks at the
    head of each step, and decodes them with one divide, bit for bit the
    `np.stack` of the rows' float images (pinned above), with their context
    classes.  Only a stage-1 `_prepare` keeps the tokens of the rows'
    references: at cond dropout 0 every row keeps its own, and stages 0
    and 2 keep none."""
    ds = default_dataset
    images = decode_levels(ds.train_levels)
    enc, schedule = toy_enc, linear_schedule(toy_cfg.timesteps)
    per_chunk = training.CHUNK_EXAMPLES // 4
    chunks = preparing(monkeypatch)
    train(TrainConfig(stage=0, steps=2 * per_chunk + 1, seed=7), ds, init_weights(toy_cfg, 0),
          schedule, enc)
    assert [len(batch.image) for batch, _, _ in chunks] == [4 * per_chunk] * 2 + [4]
    replay = RngState(7).derive(("train", 0))
    per_example = 2 + int(np.prod(latent_of(enc)))
    for batch, _, _ in chunks:
        rows = []
        for _ in range(len(batch.image) // 4):
            rows += [replay.randint(ds.spec.train_size) for _ in range(4)]
            replay.counter += 4 * per_example
        assert batch.image.flags.c_contiguous
        assert batch.image.tobytes() == np.stack([images[i] for i in rows]).tobytes()
        assert list(batch.text_id) == list(labels(ds.spec, np.array(rows))[1])
    rows = np.arange(4) * 5
    tokens = run_tokens(ds, enc)
    for stage in (0, 1, 2):
        prepared = prepare_one(ds.train_sample(rows), tokens, schedule, RngState(stage), enc,
                               stage_config(stage), 0.0)
        if stage == 1:
            assert prepared.ref[0] == list(range(4))
            assert prepared.ref[1].tobytes() == \
                np.stack([tokens[k] for k in labels(ds.spec, rows)[0]]).tobytes()
        else:
            assert prepared.ref is None


@pytest.mark.parametrize("stage", [0, 1, 2])
@pytest.mark.parametrize("size", [1, 3, 4])
@pytest.mark.parametrize("model", ["tiny", "toy"])
def test_a_chunk_prepares_the_batches_its_steps_give_alone(request, stage, size, model):
    """An S-step chunk gives, bit for bit, the S batches that S one-step
    chunks from the same stream give, and leaves the stream where they do:
    the chunk's one decode, encode, noising and band filter change no
    row."""
    ds, enc = {"tiny": ("tiny_dataset", "tiny_enc"),
               "toy": ("default_dataset", "toy_enc")}[model]
    ds, enc = request.getfixturevalue(ds), request.getfixturevalue(enc)
    schedule = linear_schedule(enc.config.timesteps)
    tokens, config = run_tokens(ds, enc), stage_config(stage)

    def chunk(rng, steps):
        picks, *draws = rng.step_draws(steps, size, ds.spec.train_size, latent_of(enc))
        return _prepare(ds.train_sample(picks.ravel()), draws, tokens, schedule, enc, config,
                        COND_DROPOUT)

    whole_rng, alone_rng = RngState(40 + stage), RngState(40 + stage)
    whole = chunk(whole_rng, 5)
    alone = [chunk(alone_rng, 1) for _ in range(5)]
    assert whole_rng.counter == alone_rng.counter
    assert [len(one) for one in alone] == [1] * 5 and len(whole) == 5
    for got, (want,) in zip(whole, alone):
        assert batch_fields(got) == batch_fields(want)


def test_samples_pair_with_their_identity_reference(tiny_dataset, tiny_schedule, tiny_enc):
    s = tiny_dataset.train_sample(5)
    assert s.identity_id == 5 % tiny_dataset.spec.n_identities
    tokens = run_tokens(tiny_dataset, tiny_enc)
    prepared = prepare_one(tiny_dataset.train_sample(np.array([5])), tokens,
                           tiny_schedule, RngState(0), tiny_enc, stage_config(1), 0.0)
    assert np.array_equal(prepared.ref[1][0], tokens[s.identity_id])


def test_a_stage1_run_tokenizes_each_reference_once(monkeypatch, tiny_schedule, tiny_enc,
                                                    tiny_cfg):
    """A stage-1 `train` decodes and tokenizes the train references once per
    run, in consecutive stacks of at most a batch, whatever its step count
    and however many chunks its steps take.  Each step's kept rows, here
    with an interior row dropped, get bit for bit the tokens of their
    identity's reference tokenized alone; stages 0 and 2 get no tokens, and
    the dataset caches no decoded reference."""
    ds = generate_dataset(SMALL_SPEC, 0)
    n = ds.spec.n_identities
    alone = [extract_tokens(decode_levels(ds.train_ref_levels[k]), tiny_enc) for k in range(n)]
    batch = ds.train_sample(np.array([6, 1, 3, 7]))
    prepared = prepare_one(batch, run_tokens(ds, tiny_enc), tiny_schedule, RngState(13),
                           tiny_enc, stage_config(1), COND_DROPOUT)
    assert prepared.ref[0] == [0, 1, 3]
    assert prepared.ref[1].tobytes() == \
        np.stack([alone[batch.identity_id[i]] for i in (0, 1, 3)]).tobytes()

    chunks = preparing(monkeypatch)
    tokenized = recording(monkeypatch, training, "extract_tokens")
    weights = init_weights(tiny_cfg, 0)
    for stage in (0, 1, 2):
        for n_steps, batch_size in ((0, 4), (2, 3), (5, 1), (9, 4)):
            chunks.clear()
            tokenized.clear()
            train(TrainConfig(stage=stage, steps=n_steps, batch_size=batch_size,
                              mask_kind=MaskKind.LOW if stage == 2 else None),
                  ds, weights, tiny_schedule, tiny_enc)
            assert sum(len(p) for _, _, p in chunks) == max(n_steps, 1)
            assert all(len(batch.image) <= training.CHUNK_EXAMPLES for batch, _, _ in chunks)
            stacks = [len(call["img"]) for call in tokenized]
            if stage != 1:
                assert stacks == []
                assert all(tokens is None and all(p.ref is None for p in prepared)
                           for _, tokens, prepared in chunks)
                continue
            assert stacks == [min(batch_size, n - lo) for lo in range(0, n, batch_size)]
            assert len(stacks) == -(-n // batch_size)
            for batch, _, prepared in chunks:
                for s, p in enumerate(prepared):
                    if p.ref is not None:
                        for row, got in zip(*p.ref):
                            ident = batch.identity_id[s * batch_size + row]
                            assert got.tobytes() == alone[ident].tobytes()
    assert not hasattr(ds, "train_refs")
    assert "test_refs" not in vars(ds)


def test_the_test_references_are_decoded_once_on_first_read(monkeypatch):
    ds = generate_dataset(SMALL_SPEC, 0)
    decodes = recording(monkeypatch, training, "decode_levels")
    assert "test_refs" not in vars(ds)
    first = ds.test_refs
    assert ds.test_refs is first
    assert len(decodes) == 1
    assert first.tobytes() == decode_levels(ds.test_ref_levels).tobytes()
    assert first.dtype == np.float64 and first.flags.c_contiguous


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
    refs = decode_levels(ds.train_ref_levels)
    better = 0
    total = ds.spec.train_size
    for i in range(total):
        s = ds.train_sample(i)
        other = (s.identity_id + 1 + rng.randint(ds.spec.n_identities - 1)) \
            % ds.spec.n_identities
        own = identity_metric(s.image, refs[s.identity_id])
        cross = identity_metric(s.image, refs[other])
        better += own > cross
    assert better / total >= 0.90


def test_library_entry_points_reject_a_dataset_the_model_does_not_fit():
    """`train`, `held_out_losses` and `paired_sweep` check the dataset's
    image size and context classes before any work, naming both sizes,
    where numpy's reshape error used to name neither."""
    cfg = tiny_config()  # 8 px, 2 text classes
    weights = init_weights(cfg, 0)
    enc, schedule = build_encoders(cfg), linear_schedule(cfg.timesteps)
    before = {s: weights.checksum(s) for s in PARAM_SETS}
    wrong = [("the model expects 8px images but the dataset is 16px",
              generate_dataset(replace(SMALL_SPEC, image_size=16), 0)),
             ("dataset has 3 context classes but the model supports 2",
              generate_dataset(replace(SMALL_SPEC, n_contexts=3), 0))]
    for message, dataset in wrong:
        with pytest.raises(ValueError, match=message):
            train(TrainConfig(stage=0, steps=2), dataset, weights, schedule, enc)
        with pytest.raises(ValueError, match=message):
            held_out_losses(weights, enc, schedule, dataset, 4, 0, None)
        with pytest.raises(ValueError, match=message):
            paired_sweep(weights, enc, schedule, dataset, [0.0], 1, 0, 2, 3.0)
    assert {s: weights.checksum(s) for s in PARAM_SETS} == before
    assert weights.completed_stages == []


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


def test_metric_does_not_depend_on_memory_layout():
    """A strided view, as `np.moveaxis` gives of an (H, W, 3) raster,
    scores the same bits as its C-ordered copy."""
    rng = np.random.default_rng(27)
    for _ in range(20):
        a, b = np.moveaxis(rng.integers(0, 256, size=(2, 32, 32, 3)) / 255.0, -1, 1)
        generated, view = np.ascontiguousarray(a), b
        copy = np.ascontiguousarray(view)
        assert identity_metric_flagged(generated, view) == \
            identity_metric_flagged(generated, copy)
        assert identity_metric_flagged(view, copy) == (1.0, False)


def test_histogram_is_normalized_and_smooth_in_angle():
    h1 = orientation_histogram(striped_test_image(angle=0.40))
    h2 = orientation_histogram(striped_test_image(angle=0.45))
    assert abs(h1.sum() - 1.0) <= 1e-12
    cos = h1 @ h2 / (np.linalg.norm(h1) * np.linalg.norm(h2))
    assert 0.5 < cos < 1.0  # small rotations move the histogram, gradually
    assert orientation_histogram(np.zeros((3, 8, 8))) is None


def histogram_cases():
    """Images the identity metric reads, and edge cases of its orientation
    rule: the 64 test images and 16 test references of dataset seed 0;
    guided samples of a toy model, unclamped and snapped to 8 bits; strided
    and transposed views; steps whose gradients point at exactly 0 and pi;
    unclamped noise; the smallest 2 x 2 and 2 x 7 images."""
    ds = generate_dataset(ToyDatasetSpec(), 0)
    cases = [*decode_levels(ds.test_levels), *ds.test_refs]
    cfg = toy_config()
    weights, enc = init_weights(cfg, 3), build_encoders(cfg)
    schedule = linear_schedule(cfg.timesteps)
    for k, lam in enumerate((0.0, 0.4, 1.0)):
        img, _ = sample(weights, enc, schedule, RngState(k), ref_img=ds.test_refs[k],
                        text_id=0, steps=4, guidance=3.0, identity_scale=lam)
        cases += [img, quantize(img)]
    rng = np.random.default_rng(31)
    raster = rng.integers(0, 256, size=(32, 32, 3)) / 255.0
    cases += [np.moveaxis(raster, -1, 0), rng.normal(size=(3, 40, 40))[:, 1::2, ::-2],
              rng.normal(size=(3, 24, 32)).swapaxes(1, 2)]
    step = np.zeros((3, 8, 8))
    step[:, :, 4:] = 1.0  # gradients along +x: angle 0
    cases += [step, step[:, :, ::-1], step.swapaxes(1, 2), step.swapaxes(1, 2)[:, ::-1]]
    cases += [rng.normal(size=(3, 16, 16)), rng.normal(size=(3, 2, 2)),
              rng.normal(size=(3, 2, 7)), rng.normal(size=(3, 7, 2))]
    return cases


def test_orientation_histogram_equals_the_plain_formula_bit_for_bit():
    cases = histogram_cases()
    assert sum(not img.flags.c_contiguous for img in cases) >= 6
    for img in cases:
        got, want = orientation_histogram(img), reference_orientation_histogram(img)
        assert got.tobytes() == want.tobytes()
    # the metric's cosine is np.linalg.norm's and np.clip's, on the same histograms
    for a, b in zip(cases[:64], cases[64:80] * 4):
        ha, hb = (reference_orientation_histogram(x) for x in (a, b))
        value = ha @ hb / (np.linalg.norm(ha) * np.linalg.norm(hb))
        assert identity_metric_flagged(a, b) == (float(np.clip(value, -1.0, 1.0)), False)


def test_orientation_histogram_of_a_flat_or_thin_image():
    for flat in (np.zeros((3, 8, 8)), np.full((3, 2, 5), 0.3)):
        assert orientation_histogram(flat) is None
        assert reference_orientation_histogram(flat) is None
    for thin in ((3, 1, 5), (3, 5, 1), (3, 1, 1)):
        with pytest.raises(ValueError, match="at least 2x2"):
            orientation_histogram(np.ones(thin))
        with pytest.raises(ValueError):  # np.gradient's own error
            reference_orientation_histogram(np.ones(thin))


# ---------------------------------------------------------------------------
# objectives


def batch_of(ds, n):
    return ds.train_sample(np.arange(n))


def stage_config(stage, identity_scale=1.0):
    """A step's `TrainConfig` at `stage`, with mask low at stage 2."""
    return TrainConfig(stage=stage, steps=0, identity_scale=identity_scale,
                       mask_kind=MaskKind.LOW if stage == 2 else None)


def run_tokens(ds, enc):
    """The tokens of each identity's train reference, the stack a stage-1
    `train` passes every step."""
    return extract_tokens(decode_levels(ds.train_ref_levels), enc)


def latent_of(enc):
    """The latent shape of `enc`'s model."""
    cfg = enc.config
    return cfg.latent_channels, cfg.latent_hw, cfg.latent_hw


def prepare_one(batch, tokens, schedule, rng, enc, config, cond_dropout):
    """`_prepare` of a stacked `batch` as one step, its draws taken from
    `rng` by one `example_draws`, as `gradient_check` takes them."""
    draws = rng.example_draws(len(batch.image), latent_of(enc))
    prepared, = _prepare(batch, [d[None] for d in draws], tokens, schedule, enc, config,
                         cond_dropout)
    return prepared


def preparing(monkeypatch):
    """Record each `_prepare` call `train` makes as (batch, ref_tokens,
    prepared batches)."""
    real, calls = training._prepare, []

    def prepare(batch, draws, ref_tokens, *args):
        prepared = real(batch, draws, ref_tokens, *args)
        calls.append((batch, ref_tokens, prepared))
        return prepared

    monkeypatch.setattr(training, "_prepare", prepare)
    return calls


def batch_fields(prepared):
    """Every field of a `PreparedBatch`, arrays as their bytes."""
    def pair(cond):
        return None if cond is None else (list(cond[0]), cond[1].tobytes())
    return (prepared.z_t.tobytes(), prepared.t, prepared.eps.tobytes(), prepared.text_id,
            pair(prepared.ref), pair(prepared.ctrl))


def prepared_batch(ds, schedule, enc, stage, n):
    return prepare_one(batch_of(ds, n), run_tokens(ds, enc), schedule, RngState(stage), enc,
                       stage_config(stage), COND_DROPOUT)


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_prepare_draws_for_each_example_in_turn(tiny_dataset, tiny_schedule, tiny_enc,
                                                stage):
    """Each step of a chunk takes its picks, then each example in turn its
    timestep, its noise and one dropout draw, in that order and at every
    stage, so example i's draws sit at a fixed place in the stream and the
    chunk ends where its last example's dropout draw does."""
    ds, size, steps = tiny_dataset, 2, 3
    rng = RngState(stage)
    tokens = run_tokens(ds, tiny_enc)
    picks, *draws = rng.step_draws(steps, size, ds.spec.train_size, latent_of(tiny_enc))
    batch = ds.train_sample(picks.ravel())
    prepared = _prepare(batch, draws, tokens, tiny_schedule, tiny_enc, stage_config(stage),
                        COND_DROPOUT)
    per_example = 2 + prepared[0].eps[0].size
    per_step = size * (1 + per_example)
    assert rng.counter == steps * per_step
    for s, step in enumerate(prepared):
        replay = RngState(stage, counter=s * per_step)
        assert picks[s].tolist() == [replay.randint(ds.spec.train_size) for _ in range(size)]
        for i, eps in enumerate(step.eps):
            text = batch.text_id[s * size + i]
            assert step.t[i] == 1 + replay.randint(tiny_schedule.timesteps)
            assert np.array_equal(eps, replay.normal(eps.shape))
            u = replay.uniform()
            kept = stage == 2 or u >= COND_DROPOUT
            assert step.text_id[i] == (text if kept else None)
            if stage == 0:
                # a dropout threshold at u keeps example i, one just above u drops it
                for threshold, text_id in ((u, text), (np.nextafter(u, 1.0), None)):
                    again = _prepare(batch, draws, tokens, tiny_schedule, tiny_enc,
                                     stage_config(stage), threshold)
                    assert again[s].text_id[i] == text_id


def zero_output_weights(cfg, seed):
    weights = init_weights(cfg, seed)
    weights.out_proj[:] = 0.0  # every noise prediction is exactly 0
    return weights


def test_perfect_prediction_gives_zero_loss(tiny_dataset, tiny_schedule, tiny_enc,
                                            tiny_cfg):
    weights = zero_output_weights(tiny_cfg, 0)
    for stage in (0, 1, 2):
        prepared = prepared_batch(tiny_dataset, tiny_schedule, tiny_enc, stage, 2)
        prepared.eps = np.zeros_like(prepared.eps)
        loss, grads = batch_loss(weights, prepared, stage_config(stage))
        assert loss == 0.0
        assert not any(g.any() for g in grads.values())


def test_constant_offset_gives_squared_loss(tiny_dataset, tiny_schedule, tiny_enc,
                                            tiny_cfg):
    weights = zero_output_weights(tiny_cfg, 0)
    delta = 0.37
    for stage in (0, 1, 2):
        prepared = prepared_batch(tiny_dataset, tiny_schedule, tiny_enc, stage, 3)
        loss, _ = batch_loss(weights, prepared, stage_config(stage))
        want = np.mean([np.mean(eps ** 2) for eps in prepared.eps])
        assert abs(loss - want) <= 1e-12
        prepared.eps = np.full_like(prepared.eps, -delta)
        loss, _ = batch_loss(weights, prepared, stage_config(stage))
        assert abs(loss - delta ** 2) <= 1e-12


def test_gradients_cover_exactly_the_trainable_set(tiny_dataset, tiny_schedule,
                                                   tiny_enc, tiny_cfg):
    weights = init_weights(tiny_cfg, 1)
    for stage, scale in ((0, 0.0), (1, 0.5), (2, 0.0)):
        prepared = prepared_batch(tiny_dataset, tiny_schedule, tiny_enc, stage, 2)
        _, grads = batch_loss(weights, prepared, stage_config(stage, scale))
        assert sorted(grads) == weights.names_in_set(STAGE_SETS[stage])


def test_stage0_loss_on_referenced_examples_differentiates_the_backbone(
        monkeypatch, tiny_dataset, tiny_schedule, tiny_enc, tiny_cfg):
    """Examples prepared for stage 1 carry references; a stage-0 config
    holds lambda 0, so a loss over them under it runs no reference branch
    and differentiates the backbone alone."""
    weights = init_weights(tiny_cfg, 1)
    prepared = prepared_batch(tiny_dataset, tiny_schedule, tiny_enc, 1, 3)
    assert prepared.ref is not None
    config = stage_config(0, 0.4)
    assert config.identity_scale == 0.0
    ref_forward_calls = recording(monkeypatch, training, "reference_forward_train")
    _, grads = batch_loss(weights, prepared, config)
    assert ref_forward_calls == []
    assert sorted(grads) == weights.names_in_set("backbone")
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_inert_gates_match_the_unconditioned_loss(tiny_dataset, tiny_schedule,
                                                  tiny_enc, tiny_cfg):
    """Zeroed control gates make the control-conditioned loss equal the same
    model's loss on the identical batch without any control signal."""
    weights = init_weights(tiny_cfg, 2)  # gates start at zero
    rng = RngState(3)
    samples = [tiny_dataset.train_sample(i) for i in range(3)]
    z0 = encode_latent(np.stack([s.image for s in samples]), tiny_enc)
    t, eps = [], []
    for _ in samples:
        t.append(1 + rng.randint(tiny_schedule.timesteps))
        eps.append(rng.normal(z0.shape[1:]))
    eps = np.stack(eps)
    prepared = dict(z_t=forward_noise(z0, t, eps, tiny_schedule), t=t, eps=eps,
                    text_id=[s.text_id for s in samples], ref=None)
    with_ctrl = PreparedBatch(**prepared,
                              ctrl=([0, 1, 2], make_control_signal(z0, MaskKind.LOW)))
    without = PreparedBatch(**prepared, ctrl=None)
    loss_ctrl, _ = batch_loss(weights, with_ctrl, stage_config(2), compute_grads=False)
    loss_plain, _ = batch_loss(weights, without, stage_config(2), compute_grads=False)
    assert loss_ctrl == loss_plain


# ---------------------------------------------------------------------------
# stage-restricted backward


def full_backward_grads(weights, prepared, scale):
    """batch_loss's gradients the unrestricted way: every example runs on
    its own as a one-row stack through the full backward (every parameter
    set) and the reference backward, and every parameter accumulates."""
    acc = {name: np.zeros_like(arr) for name, arr in weights.params().items()}
    n = len(prepared.z_t)
    refs = dict(zip(*prepared.ref)) if prepared.ref is not None else {}
    ctrls = dict(zip(*prepared.ctrl)) if prepared.ctrl is not None else {}
    for i in range(n):
        identity = rcache = ctrl = None
        if i in refs and scale != 0.0:
            feats, rcache = reference_forward_train(refs[i][None], weights.projection,
                                                    weights.id_heads())
            identity = ([0], feats)
        if i in ctrls:
            ctrl = ([0], ctrls[i][None])
        cond = project_conditions(weights, [prepared.text_id[i]], identity, ctrl, scale)
        pred, cache = denoiser_forward(weights, latent_to_seq(prepared.z_t[i:i + 1]),
                                       time_terms(weights, [prepared.t[i]], cond), cond)
        diff = pred - latent_to_seq(prepared.eps[i:i + 1])
        grads, didentity = denoiser_backward((2.0 / (diff.size * n)) * diff,
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

    z0, refs, t, eps = [], [], [], []
    for _ in kept:
        z0.append(encode_latent(rand_image(), enc))
        refs.append(rand_image())
        t.append(1 + rng.randint(cfg.timesteps))
        eps.append(rng.normal(z0[-1].shape))
    z0, eps = np.stack(z0), np.stack(eps)
    rows = [i for i, keep in enumerate(kept) if keep]
    return PreparedBatch(
        z_t=forward_noise(z0, t, eps, schedule), t=t, eps=eps,
        text_id=[i % cfg.n_text if keep or stage == 2 else None
                 for i, keep in enumerate(kept)],
        ref=(rows, extract_tokens(np.stack([refs[i] for i in rows]), enc))
        if stage == 1 and rows else None,
        ctrl=(range(len(kept)), make_control_signal(z0, MaskKind.LOW)) if stage == 2 else None)


# a stage-1 config rejects scale 0, and stages 0 and 2 hold any scale as 0
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16), stage=st.sampled_from((0, 1, 2)),
       scale=st.sampled_from((0.4, 1.0)), n_blocks=st.integers(1, 3),
       kept=st.lists(st.booleans(), min_size=1, max_size=4))
def test_stage_backward_equals_the_full_backward_bitwise(seed, stage, scale, n_blocks,
                                                         kept):
    cfg = replace(tiny_config(), n_blocks=n_blocks)
    enc = build_encoders(cfg)
    weights = random_point(cfg, seed)
    prepared = mixed_batch(cfg, enc, stage, kept, seed)
    config = stage_config(stage, scale)
    _, grads = batch_loss(weights, prepared, config)
    full = full_backward_grads(weights, prepared, config.identity_scale)
    assert sorted(grads) == weights.names_in_set(STAGE_SETS[stage])
    for name, g in grads.items():
        assert np.array_equal(g, full[name]), name


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_blocks=st.integers(1, 3),
       ctrl_rows=st.lists(st.booleans(), min_size=1, max_size=8))
def test_the_fused_reductions_keep_the_row_order(seed, n_blocks, ctrl_rows):
    """batch_loss's loss and the top block's ctrl_gate gradient reduce each
    row in one call, then sum the rows in order: the per-row formulas they
    replaced, bit for bit, on stacks of 1 to 8 rows."""
    cfg = replace(tiny_config(), n_blocks=n_blocks)
    enc = build_encoders(cfg)
    weights = random_point(cfg, seed)
    prepared = mixed_batch(cfg, enc, 2, ctrl_rows, seed)
    rows = [i for i, keep in enumerate(ctrl_rows) if keep]
    prepared.ctrl = (rows, prepared.ctrl[1][rows]) if rows else None
    loss, grads = batch_loss(weights, prepared, stage_config(2))

    cond = project_conditions(weights, prepared.text_id, None, prepared.ctrl)
    pred, cache = denoiser_forward(weights, latent_to_seq(prepared.z_t),
                                   time_terms(weights, prepared.t, cond), cond)
    diff = pred - latent_to_seq(prepared.eps)
    n = len(diff)
    assert loss == sum(float(np.mean(d ** 2)) for d in diff) / n
    if not rows:
        return
    top, c = weights.blocks[-1], cache["caches"][-1]
    dh = ((2.0 / (diff[0].size * n)) * diff) @ weights.out_proj.T
    dh3 = dh + ((dh @ top.ff_w2.T) * (1.0 - c["ff_act"] ** 2)) @ top.ff_w1.T
    per_row = dh3[rows] * (c["gain"][rows] * cond.fields[-1])
    assert np.array_equal(grads[f"blocks.{n_blocks - 1}.ctrl_gate"],
                          np.array([sum(np.sum(x) for x in per_row)]))


def test_backward_rejects_unknown_set_names(tiny_cfg, tiny_enc):
    weights = random_point(tiny_cfg, 3)
    batch = mixed_batch(tiny_cfg, tiny_enc, 2, [True], 3)
    cond = project_conditions(weights, batch.text_id, None, batch.ctrl)
    pred, cache = denoiser_forward(weights, latent_to_seq(batch.z_t),
                                   time_terms(weights, batch.t, cond), cond)
    # a bare string would otherwise iterate as letters and train nothing
    for sets in ("control", ("controls",)):
        with pytest.raises(ValueError, match="unknown parameter sets"):
            denoiser_backward(pred, cache, sets)


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
    batch_loss(weights, prepared, stage_config(2))
    # one call per batch, from the last block, for its input gradient only
    assert len(calls) == 1
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
    forward_calls = recording(monkeypatch, training, "denoiser_forward")
    denoiser_calls = recording(monkeypatch, training, "denoiser_backward")
    attention_calls = recording(monkeypatch, diffusion, "attention_backward")
    ref_forward_calls = recording(monkeypatch, training, "reference_forward_train")
    reference_calls = recording(monkeypatch, training, "reference_backward")
    batch_loss(weights, prepared, stage_config(1, 0.4))
    # the batch runs as one stack: one forward, one backward, and only the
    # referenced rows run the cross term and the reference branch, once each way
    assert len(forward_calls) == len(denoiser_calls) == 1
    assert forward_calls[0]["z_seq"].shape[0] == len(kept)
    assert all(call["sets"] == ("identity_adapter",) for call in denoiser_calls)
    # block 1 passes its input gradient down; block 0 runs the cross term only
    flags = [(call["self_grads"], call["cross_grads"], call["need_dhidden"])
             for call in attention_calls]
    assert flags == [(False, True, True), (False, True, False)]
    referenced = [i for i, keep in enumerate(kept) if keep]
    assert all(call["cache"]["rows"] == referenced for call in attention_calls)
    assert len(ref_forward_calls) == len(reference_calls) == 1
    assert np.array_equal(ref_forward_calls[0]["tokens"], prepared.ref[1])
    assert all(term.rows == referenced for term in forward_calls[0]["cond"].identity)
    assert all(d.shape == (len(referenced), tiny_cfg.n_query, tiny_cfg.d_id)
               for d in reference_calls[0]["dfeats"])


# ---------------------------------------------------------------------------
# optimizer


def looped_adam_step(params, grads, m, v, step, lr):
    """Adam as one update per parameter, the reference for the flat update."""
    bc1 = 1.0 - training.ADAM_BETA1 ** step
    bc2 = 1.0 - training.ADAM_BETA2 ** step
    for name in sorted(grads):
        g = grads[name]
        m[name][:] = training.ADAM_BETA1 * m[name] + (1.0 - training.ADAM_BETA1) * g
        v[name][:] = training.ADAM_BETA2 * v[name] + (1.0 - training.ADAM_BETA2) * g * g
        update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + training.ADAM_EPS)
        params[name] -= lr * update


def test_flat_adam_equals_the_per_parameter_loop_bit_for_bit():
    rng = np.random.default_rng(4)
    shapes = {"b": (3, 4), "a": (5,), "c": (2, 3, 2)}
    params = {n: rng.normal(size=shape) for n, shape in shapes.items()}
    want = {n: p.copy() for n, p in params.items()}
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    state = init_adam(params, list(shapes))
    for step in range(1, 6):
        grads = {n: rng.normal(size=shape) * 10.0 ** (step - 3) for n, shape in shapes.items()}
        adam_step(params, grads, state, lr=0.01)
        looped_adam_step(want, grads, m, v, step, lr=0.01)
        assert state.step == step
        for name in shapes:
            assert np.array_equal(params[name], want[name]), name
        assert np.array_equal(state.m, np.concatenate([m[n].ravel() for n in sorted(m)]))
        assert np.array_equal(state.v, np.concatenate([v[n].ravel() for n in sorted(v)]))


def test_adam_rejects_grads_for_other_names():
    params = {"a": np.ones(2), "b": np.ones(3)}
    state = init_adam(params, ["a", "b"])
    for grads in ({"a": np.ones(2)}, {"a": np.ones(2), "b": np.ones(3), "c": np.ones(1)}):
        with pytest.raises(ValueError, match="Adam state"):
            adam_step(params, grads, state, lr=0.1)
    assert state.step == 0 and np.array_equal(params["a"], np.ones(2))


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


def test_zero_steps_runs_no_backward(monkeypatch, tiny_dataset, tiny_schedule, tiny_enc,
                                     tiny_cfg):
    """A zero-step run only evaluates its batch, so nothing is differentiated."""
    forward_calls = recording(monkeypatch, training, "denoiser_forward")
    backward_calls = recording(monkeypatch, training, "denoiser_backward")
    train(TrainConfig(stage=0, steps=0), tiny_dataset, init_weights(tiny_cfg, 3),
          tiny_schedule, tiny_enc)
    assert len(forward_calls) == 1 and backward_calls == []


def test_non_finite_loss_raises_before_the_update(tiny_dataset, tiny_schedule,
                                                  tiny_enc, tiny_cfg):
    weights = init_weights(tiny_cfg, 3)
    with pytest.raises(FloatingPointError, match="loss"):
        train(TrainConfig(stage=0, steps=5, lr=1e200), tiny_dataset, weights,
              tiny_schedule, tiny_enc)
    assert weights.completed_stages == []


def test_non_finite_weights_after_the_last_step_raise(tiny_dataset, tiny_schedule,
                                                      tiny_enc, tiny_cfg):
    # one step: its loss is finite, the update it applies is not
    weights = init_weights(tiny_cfg, 3)
    with pytest.raises(FloatingPointError, match="not finite"):
        train(TrainConfig(stage=0, steps=1, lr=np.inf), tiny_dataset, weights,
              tiny_schedule, tiny_enc)


def test_a_changed_frozen_set_raises(tiny_dataset, tiny_schedule, tiny_enc, tiny_cfg,
                                     monkeypatch):
    weights = init_weights(tiny_cfg, 3)
    weights.completed_stages.append(0)

    def leaky_adam_step(params, grads, state, lr):
        adam_step(params, grads, state, lr)
        params["blocks.0.ff_w1"][0, 0] += 1.0  # a backbone weight, frozen at stage 1

    monkeypatch.setattr(training, "adam_step", leaky_adam_step)
    with pytest.raises(RuntimeError, match="frozen set backbone changed during stage 1"):
        train(TrainConfig(stage=1, steps=1), tiny_dataset, weights, tiny_schedule, tiny_enc)
    assert weights.completed_stages == [0]


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
    for bad in (-0.001, 0.0, float("nan")):
        with pytest.raises(ValueError, match="lr must be > 0"):
            TrainConfig(stage=0, steps=1, lr=bad)
    with pytest.raises(ValueError, match="mask"):
        TrainConfig(stage=2, steps=1)
    for stage in (0, 1):
        with pytest.raises(ValueError, match="applies only to stage 2"):
            TrainConfig(stage=stage, steps=1, mask_kind=MaskKind.LOW)
    for bad in (-0.1, 7.0, float("nan")):
        with pytest.raises(ValueError, match="identity scale"):
            TrainConfig(stage=1, steps=1, identity_scale=bad)


def test_stage1_config_rejects_identity_scale_zero():
    # at scale 0 no cross term runs, so every identity-adapter gradient is 0
    with pytest.raises(ValueError, match="stage 1 would train nothing"):
        TrainConfig(stage=1, steps=1, identity_scale=0.0)
    for stage, mask in ((0, None), (2, MaskKind.LOW)):
        assert TrainConfig(stage=stage, steps=1, identity_scale=0.0,
                           mask_kind=mask).identity_scale == 0.0


def test_train_config_holds_lambda_as_zero_where_the_identity_branch_never_runs():
    for stage, mask in ((0, None), (2, MaskKind.LOW)):
        config = TrainConfig(stage=stage, steps=1, identity_scale=0.3, mask_kind=mask)
        assert config.identity_scale == 0.0
        assert asdict(config)["identity_scale"] == 0.0
    assert TrainConfig(stage=1, steps=1, identity_scale=0.3).identity_scale == 0.3


def test_smoothing_window_bounds():
    assert smoothing_window(0) == 1
    assert smoothing_window(40) == 4
    assert smoothing_window(2000) == 50
    assert smoothing_window(100000) == 50


# ---------------------------------------------------------------------------
# evaluation


def test_held_out_losses_score_the_first_test_examples_in_order(tiny_trained, tiny_dataset,
                                                                tiny_schedule, tiny_enc):
    """One (timestep, loss) per test example, the first `size` in order (all
    of them if fewer), each equal to scoring the example alone on its draws
    from the "ablate-eval" stream: a timestep in [1, T], then its noise."""
    weights, _ = tiny_trained
    n_test, timesteps = tiny_dataset.spec.test_size, tiny_schedule.timesteps
    for kind in (None, MaskKind.LOW):
        rng = RngState(3).derive("ablate-eval")
        expected = []
        for i in range(n_test):
            example = tiny_dataset.test_sample(i)
            z0 = encode_latent(example.image, tiny_enc)
            t = 1 + rng.randint(timesteps)
            eps = rng.normal(z0.shape)
            ctrl = None if kind is None else ([0], make_control_signal(z0[None], kind))
            cond = project_conditions(weights, [example.text_id], ctrl=ctrl)
            pred = predict_eps(weights, forward_noise(z0, t, eps, tiny_schedule)[None],
                               time_terms(weights, [t], cond), cond)[0]
            expected.append((t, float(np.mean((pred - eps) ** 2))))
        for size in (1, n_test - 3, n_test, n_test + 5):
            records = held_out_losses(weights, tiny_enc, tiny_schedule, tiny_dataset, size,
                                      3, kind)
            assert records == expected[:size], (kind, size)
        assert all(1 <= t <= timesteps for t, _ in expected)
    assert len({t for t, _ in expected}) > 1


def test_held_out_losses_score_no_stack_wider_than_a_training_batch(monkeypatch, tiny_trained,
                                                                   tiny_dataset,
                                                                   tiny_schedule, tiny_enc):
    """The held-out pairs run in consecutive stacks of at most
    `TrainConfig.batch_size` rows, so scoring never holds more block caches
    than a training step; together the stacks cover every scored pair."""
    weights, _ = tiny_trained
    calls = recording(monkeypatch, training, "predict_eps")
    n_test = tiny_dataset.spec.test_size
    assert n_test > TrainConfig.batch_size
    for kind in (None, MaskKind.LOW):
        for size in (n_test, n_test + 1):
            calls.clear()
            held_out_losses(weights, tiny_enc, tiny_schedule, tiny_dataset, size, 3, kind)
            rows = [len(call["z_t"]) for call in calls]
            assert max(rows) <= TrainConfig.batch_size, (kind, size, rows)
            assert sum(rows) == n_test, (kind, size, rows)


def test_held_out_pairs_are_the_same_for_every_model_and_band(tiny_trained, tiny_dataset,
                                                              tiny_schedule, tiny_enc,
                                                              tiny_cfg):
    """The timesteps (and so the noised pairs) depend on the seed alone, so
    the rows of a band ablation compare like with like."""
    trained, _ = tiny_trained
    runs = [held_out_losses(weights, tiny_enc, tiny_schedule, tiny_dataset, 6, 0, kind)
            for weights, kind in ((trained, MaskKind.LOW), (trained, None),
                                  (init_weights(tiny_cfg, 1), MaskKind.MINI))]
    assert [t for t, _ in runs[0]] == [t for t, _ in runs[1]] == [t for t, _ in runs[2]]
    assert [loss for _, loss in runs[0]] != [loss for _, loss in runs[2]]
    other_seed = held_out_losses(trained, tiny_enc, tiny_schedule, tiny_dataset, 6, 1, None)
    assert [t for t, _ in other_seed] != [t for t, _ in runs[1]]


def test_a_trial_without_a_reference_is_not_scored(tiny_trained, tiny_dataset,
                                                   tiny_schedule, tiny_enc):
    """Each trial is the quantized guided sample from the seed's stream for
    its tag; only a trial with a reference gets an identity metric."""
    weights, _ = tiny_trained
    ref = tiny_dataset.test_refs[1]
    trials = [(("sample", 0), None, 1, None, 0.0), (("sample", 1), ref, 0, MaskKind.LOW, 0.4)]
    drawn = draw_trials(weights, tiny_enc, tiny_schedule, 7, 3, 2.0, trials)
    assert [scores for _, *scores in drawn] == \
        [[None, None], list(identity_metric_flagged(drawn[1][0], ref))]
    for (tag, ref_img, text_id, mask, lam), (image, *_) in zip(trials, drawn):
        img, _ = sample(weights, tiny_enc, tiny_schedule, RngState(7).derive(tag),
                        ref_img=ref_img, text_id=text_id, mask_kind=mask, steps=3,
                        guidance=2.0, identity_scale=lam)
        assert np.array_equal(image, quantize(img))


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


def test_checkpoint_load_draws_nothing_from_the_rng(tiny_trained, tmp_path, monkeypatch):
    weights, _ = tiny_trained
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, weights)

    def no_draws(self, shape):
        raise AssertionError("load_checkpoint drew from the RNG")

    monkeypatch.setattr(RngState, "normal", no_draws)
    loaded = load_checkpoint(path)
    for name, arr in weights.params().items():
        assert np.array_equal(arr, loaded.params()[name]), name
    assert np.array_equal(loaded.pos_code, weights.pos_code)
    assert {s: loaded.checksum(s) for s in PARAM_SETS} == \
        {s: weights.checksum(s) for s in PARAM_SETS}


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 16), n_blocks=st.integers(1, 3),
       # stages complete in order, so a checkpoint holds a prefix of [0, 1, 2]
       stages=st.integers(0, 3).flatmap(lambda n: st.permutations(range(n))))
def test_checkpoint_roundtrip_over_random_configs(tmp_path_factory, seed, n_blocks,
                                                  stages):
    cfg = replace(tiny_config(), n_blocks=n_blocks)
    weights = random_point(cfg, seed)
    weights.completed_stages.extend(stages)
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
    entry = payload["params"]["in_proj"]
    data = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
    data[0] += 1.0
    entry["data"] = base64.b64encode(data).decode("ascii")
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


def test_checkpoint_rejects_data_that_is_not_base64_or_the_wrong_length(tiny_cfg, tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, init_weights(tiny_cfg, 0))
    stored = json.loads(path.read_text())["params"]["in_proj"]["data"]
    raw = base64.b64decode(stored)
    cases = {"garbled": ("*" + stored[1:], "not base64"),
             "short": (base64.b64encode(raw[:-8]).decode("ascii"),
                       f"{len(raw) - 8} bytes, expected {len(raw)}"),
             "long": (base64.b64encode(raw + raw[:8]).decode("ascii"),
                      f"{len(raw) + 8} bytes, expected {len(raw)}")}
    for name, (data, message) in cases.items():
        payload = json.loads(path.read_text())
        payload["params"]["in_proj"]["data"] = data
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_checkpoint(bad)


def test_checkpoint_roundtrip_keeps_extreme_values_bit_exact(tiny_cfg, tmp_path):
    weights = init_weights(tiny_cfg, 0)
    extremes = np.array([-0.0, 5e-324, 1e308, -1e308, 0.0])
    weights.in_proj.ravel()[:extremes.size] = extremes
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, weights)
    loaded = load_checkpoint(path)
    # tobytes tells -0.0 from 0.0, which array_equal does not
    assert loaded.in_proj.ravel()[:extremes.size].tobytes() == extremes.tobytes()
    for name, arr in weights.params().items():
        assert loaded.params()[name].tobytes() == arr.tobytes(), name


def test_two_saves_of_the_same_weights_are_byte_identical(tiny_trained, tmp_path):
    weights, _ = tiny_trained
    save_checkpoint(tmp_path / "a.json", weights)
    save_checkpoint(tmp_path / "b.json", load_checkpoint(tmp_path / "a.json"))
    save_checkpoint(tmp_path / "c.json", weights)
    first = (tmp_path / "a.json").read_bytes()
    assert (tmp_path / "b.json").read_bytes() == first
    assert (tmp_path / "c.json").read_bytes() == first


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
    res = gradient_check(2, seed=3)
    assert res["pass"] is False
    assert res["max_rel_err"] > 1e-4


def test_gradient_check_report_schema():
    res = gradient_check(2, seed=3)
    assert res["trainable_set"] == "control"
    assert set(res["per_param_max_rel_err"]) == \
        set(init_weights(tiny_config(), 0).names_in_set("control"))
    assert res["tolerance"] == 1e-4
