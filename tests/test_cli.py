"""End-to-end command tests, run in-process against temp directories.

A module-scoped pipeline (tiny 32px dataset, a few optimizer steps per
stage) backs the commands that need checkpoints; correctness of the math
lives in the unit tests, so these assert wiring: exit codes, artifact
files, schemas, and byte determinism.
"""

import base64
import hashlib
import json
import shutil
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from freqbooth import cli, diffusion
from freqbooth.cli import PrerequisiteError, _keeps_nothing, load_dataset, main, save_dataset
from freqbooth.config import tiny_config, toy_config
from freqbooth.dct_freq import MaskKind, build_mask, coverage_gap, make_control_signal
from freqbooth.diffusion import PARAM_SETS, forward_noise, init_weights, \
    linear_schedule, predict_eps, project_conditions, time_terms
from freqbooth.netpbm import decode_levels, read_ppm, write_ppm
from freqbooth.reference_encoder import build_encoders, decode_latent, encode_latent
from freqbooth.tensor_core import RngState
from freqbooth.training import (CHUNK_EXAMPLES, IMAGE_FIELDS, ToyDatasetSpec, TrainConfig, dataset_checksum,
                                generate_dataset, identity_metric_flagged, labels,
                                load_checkpoint, paired_sweep, save_checkpoint, train)
from conftest import SMALL_SPEC, flip_one_gradient, read_pfm, striped_test_image


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def tree_bytes(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def pipe(tmp_path_factory):
    """Dataset plus stage 0/1/2 checkpoints, trained just enough to wire
    the downstream commands together."""
    out = tmp_path_factory.mktemp("cli_pipe")
    assert run("gen-data", "--out-dir", out, "--n-identities", 4,
               "--n-contexts", 2, "--image-size", 32,
               "--train-size", 8, "--test-size", 4) == 0
    assert run("train", "--out-dir", out, "--stage", 0, "--steps", 3) == 0
    assert run("train", "--out-dir", out, "--stage", 1, "--steps", 3) == 0
    assert run("train", "--out-dir", out, "--stage", 2, "--mask", "low",
               "--steps", 2) == 0
    return out


# ---------------------------------------------------------------------------
# top level


def test_no_command_prints_help_and_exits_usage(capsys):
    assert run() == 2
    assert "gen-data" in capsys.readouterr().out


def test_unknown_flags_exit_usage(tmp_path):
    assert run("gen-data", "--bogus") == 2
    assert run("train", "--out-dir", tmp_path, "--stage", 7) == 2


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_counted_files_and_index(pipe):
    ddir = pipe / "dataset"
    index = read_json(ddir / "index.json")
    assert sorted(index) == ["checksum", "schema_version", "seed", "spec"]
    assert index["schema_version"] == 3
    assert len(list(ddir.glob("train_*.ppm"))) == 8
    assert len(list(ddir.glob("test_*.ppm"))) == 4
    assert len(list(ddir.glob("ref_*.ppm"))) == 8  # 4 identities x 2 splits
    loaded, checksum = load_dataset(ddir)  # revalidates the checksum
    assert loaded.spec.n_identities == 4
    assert checksum == index["checksum"]
    echo = read_json(pipe / "gen_data_config.json")
    assert echo["command"] == "gen-data"
    assert echo["seed"] == 0


def test_loaded_dataset_equals_the_generated_one(tmp_path):
    """The files `gen-data` writes load back to the library's dataset: the
    same checksum, equal C-ordered arrays, and bit-identical identity
    metrics (a sum over a differently ordered array rounds differently)."""
    made = generate_dataset(SMALL_SPEC, 0)
    checksum = save_dataset(tmp_path, made)
    loaded, loaded_checksum = load_dataset(tmp_path)
    assert loaded_checksum == checksum == dataset_checksum(made)
    assert (loaded.spec, loaded.seed) == (made.spec, made.seed)

    def arrays(ds):
        return {**{field: getattr(ds, field) for field in IMAGE_FIELDS},
                "train_refs": decode_levels(ds.train_ref_levels), "test_refs": ds.test_refs}

    made_arrays = arrays(made)
    for field, arr in arrays(loaded).items():
        assert np.array_equal(arr, made_arrays[field]), field
        assert arr.dtype == made_arrays[field].dtype, field
        assert arr.flags.c_contiguous, field
    for i in range(SMALL_SPEC.test_size):
        for j in range(SMALL_SPEC.n_identities):
            assert identity_metric_flagged(loaded.test_sample(i).image, loaded.test_refs[j]) \
                == identity_metric_flagged(made.test_sample(i).image, made.test_refs[j])


def test_the_index_checksum_hashes_the_stored_rasters(tmp_path):
    """Schema 3's checksum is the SHA-256 of the spec and seed as sorted
    JSON, both splits' labels as little-endian int64, then every file's
    bytes after its P6 header, in file order."""
    checksum = save_dataset(tmp_path, generate_dataset(SMALL_SPEC, 0))
    digest = hashlib.sha256(json.dumps({"seed": 0, "spec": asdict(SMALL_SPEC)},
                                       sort_keys=True).encode())
    for count in (SMALL_SPEC.train_size, SMALL_SPEC.test_size):
        for ids in labels(SMALL_SPEC, np.arange(count)):
            digest.update(ids.astype("<i8").tobytes())
    header = b"P6\n8 8\n255\n"
    names = ([f"train_{i:04d}.ppm" for i in range(SMALL_SPEC.train_size)]
             + [f"test_{i:04d}.ppm" for i in range(SMALL_SPEC.test_size)]
             + [f"ref_{split}_{i:02d}.ppm" for split in ("train", "test")
                for i in range(SMALL_SPEC.n_identities)])
    for name in names:
        data = (tmp_path / name).read_bytes()
        assert data.startswith(header) and len(data) == len(header) + 3 * 8 * 8
        digest.update(data[len(header):])
    assert digest.hexdigest() == checksum == read_json(tmp_path / "index.json")["checksum"]


# SHA-256 of the `pipe` fixture's dataset index, and one SHA-256 over its
# PPM files: each file's name and then its bytes, in name order
PINNED_DATASET = {
    "index.json": "e290f4748c44c2470d0a79214abb57d694f8e98ca9af5516fb6a0f358e97efe3",
    "*.ppm": "53844b4f386f93cd1a73d70adeed0da807f1ba2be15460f895403e1d3f6e6f96",
}


def test_gen_data_files_are_pinned(pipe):
    """The bytes `gen-data` writes, held to literals, so a change to the
    renderer or the P6 encoder that moves any level shows here."""
    ppms, digests = hashlib.sha256(), {}
    for name, blob in tree_bytes(pipe / "dataset").items():
        if name.endswith(".ppm"):
            ppms.update(name.encode() + blob)
        else:
            digests[name] = hashlib.sha256(blob).hexdigest()
    digests["*.ppm"] = ppms.hexdigest()
    assert digests == PINNED_DATASET


def test_an_index_of_another_schema_is_unusable(tmp_path):
    """Schemas 1 and 2 recorded a checksum of the float64 arrays; no reader
    of it is kept, since `gen-data` rebuilds a dataset from its spec and seed."""
    save_dataset(tmp_path, generate_dataset(SMALL_SPEC, 0))
    index = read_json(tmp_path / "index.json")
    for schema in (0, 1, 2, 4, "3", None):
        (tmp_path / "index.json").write_text(json.dumps({**index, "schema_version": schema}))
        with pytest.raises(PrerequisiteError, match=f"schema {schema!r} unsupported "
                                                    r"\(expected 3\); rebuild it with "
                                                    "`freqbooth gen-data`"):
            load_dataset(tmp_path)


def test_loading_and_saving_hold_at_most_one_split_of_levels_beyond_the_arrays(tmp_path):
    """Traced peaks on the default spec: `load_dataset` may allocate the
    dataset's arrays (its four uint8 level stacks, and nothing else) plus a
    tenth of the largest split's levels; `save_dataset`, whose
    arrays already exist, only the latter, as it writes the stored levels
    as they are."""
    spec = ToyDatasetSpec()
    made = generate_dataset(spec, 1)
    largest_split = max(spec.train_size, spec.test_size, spec.n_identities)
    split_levels = largest_split * 3 * spec.image_size ** 2
    arrays = sum(getattr(made, field).nbytes for field in IMAGE_FIELDS)

    def traced_peak(fn):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - start, result
        finally:
            tracemalloc.stop()

    saved_peak, checksum = traced_peak(lambda: save_dataset(tmp_path, made))
    assert saved_peak <= split_levels // 10
    loaded_peak, (loaded, _) = traced_peak(lambda: load_dataset(tmp_path))
    assert loaded_peak <= arrays + split_levels // 10
    assert loaded_peak >= arrays  # the trace saw the arrays
    assert dataset_checksum(loaded) == checksum


def test_gen_data_rejects_zero_identities(tmp_path):
    assert run("gen-data", "--out-dir", tmp_path, "--n-identities", 0) == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--n-contexts", 5, "n_contexts must be in 1..4, got 5"),
    ("--image-size", 4, "image_size must be >= 8, got 4"),
    ("--train-size", 0, "train_size must be >= 1, got 0"),
    ("--test-size", 0, "test_size must be >= 1, got 0"),
    ("--n-identities", 0, "n_identities must be >= 1, got 0"),
])
def test_a_bad_gen_data_value_names_its_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("gen-data", "--out-dir", out, flag, value) == 2
    assert capsys.readouterr() == ("", f"error: {flag}: {message}\n")
    assert not out.exists()


def test_gen_data_same_seed_is_byte_identical(tmp_path):
    flags = ("--n-identities", 2, "--n-contexts", 1, "--image-size", 8,
             "--train-size", 4, "--test-size", 2, "--seed", 1)
    assert run("gen-data", "--out-dir", tmp_path / "a", *flags) == 0
    assert run("gen-data", "--out-dir", tmp_path / "b", *flags) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


# ---------------------------------------------------------------------------
# train


def test_train_stage1_without_stage0_checkpoint_exits_3(pipe, tmp_path):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 1, "--steps", 1) == 3


def test_train_without_dataset_exits_3(tmp_path):
    assert run("train", "--out-dir", tmp_path, "--stage", 0, "--steps", 1) == 3


def test_train_stage2_requires_mask(pipe, tmp_path):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 2, "--steps", 1,
               "--checkpoint", pipe / "checkpoint_stage1.json") == 2


@pytest.mark.parametrize("mask", ["mid", "high"])
def test_train_stage2_rejects_a_band_that_keeps_nothing(pipe, tmp_path, mask, capsys):
    # at 32 px the latent is 8x8, where these bands keep no coefficient
    out = tmp_path / "out"
    assert run("train", "--out-dir", out, "--data-dir", pipe / "dataset",
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--stage", 2, "--mask", mask, "--steps", 5) == 2
    assert not out.exists()
    assert f"--mask {mask} keeps no DCT coefficient" in capsys.readouterr().err


def test_train_stage1_rejects_lambda_zero(pipe, tmp_path, capsys):
    # at lambda 0 no cross term runs, so every identity-adapter gradient is 0
    out = tmp_path / "out"
    assert run("train", "--out-dir", out, "--data-dir", pipe / "dataset",
               "--checkpoint", pipe / "checkpoint_stage0.json",
               "--stage", 1, "--lambda", 0, "--steps", 5) == 2
    assert not out.exists()
    assert "--lambda 0 skips the identity cross term" in capsys.readouterr().err


@pytest.mark.parametrize("stage", [0, 1, 2])
def test_train_records_the_lambda_it_trains_at(pipe, tmp_path, stage):
    """Stages 0 and 2 never run the identity branch, so whatever --lambda
    says they record 0.0, and their artifacts match a run without it."""
    args = ["--data-dir", pipe / "dataset", "--stage", stage, "--steps", 1]
    if stage > 0:
        args += ["--checkpoint", pipe / f"checkpoint_stage{stage - 1}.json"]
    if stage == 2:
        args += ["--mask", "low"]
    suffix = "stage2_low" if stage == 2 else f"stage{stage}"
    out = tmp_path / "out"
    assert run("train", "--out-dir", out, *args, "--lambda", 0.3) == 0
    expected = 0.3 if stage == 1 else 0.0
    assert read_json(out / "train_config.json")["train_config"]["identity_scale"] == expected
    assert read_json(out / f"train_report_{suffix}.json")["config"]["identity_scale"] == expected
    if stage != 1:
        plain = tmp_path / "plain"
        assert run("train", "--out-dir", plain, *args) == 0
        for name in ("train_config.json", f"train_report_{suffix}.json",
                     f"checkpoint_{suffix}.json"):
            assert (out / name).read_bytes() == (plain / name).read_bytes(), name


def test_train_stage0_rejects_a_checkpoint(pipe, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--out-dir", out, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 2, "--checkpoint", tmp_path / "x.json") == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("train", "--stage", 2), "stage 2 requires a mask kind"),
    (("train", "--stage", 1, "--mask", "low"), "a mask kind (--mask) applies only to stage 2"),
    (("train", "--stage", 0, "--steps", -3), "steps must be >= 0, got -3"),
    # named: ablate-masks also takes a --steps, for sampling
    (("ablate-masks", "--train-steps", -1), "--train-steps -1: steps must be >= 0, got -1"),
    (("train", "--stage", 0, "--lr", -0.001), "lr must be > 0, got -0.001"),
    (("train", "--stage", 0, "--lr", 0), "lr must be > 0, got 0.0"),
    (("train", "--stage", 0, "--lr", "nan"), "lr must be > 0, got nan"),
], ids=["stage2-without-mask", "stage1-with-mask", "negative-steps", "ablate-negative-steps",
        "negative-lr", "zero-lr", "nan-lr"])
def test_a_bad_training_flag_exits_2_before_any_file_is_read(tmp_path, capsys, argv, message):
    # no dataset under --out-dir: reading one first would exit 3
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("stages", [[0, 1, "x"], "01", [0, 0], [1], [0, 2], [0, 1, 2, 3], None],
                         ids=["not-an-int", "a-string", "repeated", "no-stage-0", "a-gap",
                              "stage-3", "null"])
def test_a_checkpoint_whose_completed_stages_are_not_a_prefix_exits_3(pipe, tmp_path, capsys,
                                                                       stages):
    """Stages complete in order, so a checkpoint lists a prefix of [0, 1, 2];
    anything else is caught on load, before any training step."""
    payload = read_json(pipe / "checkpoint_stage1.json")
    payload["completed_stages"] = stages
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run("train", "--out-dir", out, "--data-dir", pipe / "dataset", "--checkpoint", ckpt,
               "--stage", 2, "--mask", "low", "--steps", 2) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "completed_stages" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("timesteps", 100.5, "timesteps must be an integer >= 1, got 100.5"),
    ("timesteps", 0, "timesteps must be an integer >= 1, got 0"),
    ("d_ff", 0, "d_ff must be an integer >= 1, got 0"),
    ("n_blocks", True, "n_blocks must be an integer >= 1, got True"),
    ("d_model", "32", "d_model must be an integer >= 1, got '32'"),
], ids=["fractional-timesteps", "zero-timesteps", "zero-d_ff", "bool-n_blocks",
        "string-d_model"])
def test_a_checkpoint_config_field_that_is_not_a_positive_int_exits_3(pipe, tmp_path, capsys,
                                                                      field, value, message):
    """Every model config field is an int >= 1, checked as the checkpoint
    loads: one line naming the checkpoint, no traceback or numpy warning,
    and nothing written."""
    payload = read_json(pipe / "checkpoint_stage0.json")
    payload["config"][field] = value
    ckpt = tmp_path / "checkpoint_stage0.json"
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "out"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--out-dir", out, "--data-dir", pipe / "dataset", "--checkpoint",
                   ckpt, "--stage", 1, "--steps", 2) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: checkpoint {ckpt} is unusable: ")
    assert message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sample", "sweep-lambda", "ablate-masks"])
def test_a_checkpoint_whose_schedule_cannot_be_allocated_exits_3(pipe, tmp_path, capsys,
                                                                 command):
    """A checkpoint config whose noise schedule cannot be allocated (10**12
    timesteps, TiBs that no allocator grants, so no page is touched) is an
    unusable prerequisite: each command that loads a checkpoint exits 3
    with one line naming it, and writes nothing."""
    source = "checkpoint_stage0.json" if command == "train" else "checkpoint_stage1.json"
    payload = read_json(pipe / source)
    payload["config"]["timesteps"] = 10 ** 12
    ckpt = tmp_path / source
    ckpt.write_text(json.dumps(payload))
    out = tmp_path / "out"
    argv = {"train": ("--data-dir", pipe / "dataset", "--stage", 1, "--steps", 2),
            "sample": ("--n", 1, "--steps", 2),
            "sweep-lambda": ("--data-dir", pipe / "dataset", "--values", "0,1", "--trials", 1,
                             "--steps", 2),
            "ablate-masks": ("--data-dir", pipe / "dataset", "--train-steps", 1,
                             "--eval-size", 1, "--eval-samples", 1, "--steps", 2)}[command]
    capsys.readouterr()
    assert run(command, "--out-dir", out, "--checkpoint", ckpt, *argv) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: checkpoint {ckpt} is unusable: ")
    assert "Unable to allocate" in err[0]
    assert not out.exists()


def test_train_zero_steps_leaves_weights_at_init(pipe, tmp_path):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 0) == 0
    report = read_json(tmp_path / "train_report_stage0.json")
    assert report["losses"] == []
    assert report["initial_loss"] == report["final_loss"]
    assert report["frozen_before"] == report["frozen_after"]
    ckpt = read_json(tmp_path / "checkpoint_stage0.json")
    fresh = init_weights(toy_config(), 0)
    assert ckpt["set_checksums"] == {s: fresh.checksum(s) for s in PARAM_SETS}


def test_train_reports_and_sidecars(pipe):
    report = read_json(pipe / "train_report_stage2_low.json")
    assert report["trainable_set"] == "control"
    assert "wall_clock_s" not in report  # timing lives in the sidecar
    timing = read_json(pipe / "train_report_stage2_low.timing.json")
    assert timing["wall_clock_s"] > 0.0
    weights = load_checkpoint(pipe / "checkpoint_stage2_low.json")
    assert weights.completed_stages == [0, 1, 2]
    echo = read_json(pipe / "train_config.json")
    assert echo["train_config"]["stage"] == 2


# ---------------------------------------------------------------------------
# sample


def test_sample_without_checkpoint_exits_3(tmp_path):
    assert run("sample", "--out-dir", tmp_path) == 3


def test_sample_flag_validation(pipe, tmp_path):
    ckpt = pipe / "checkpoint_stage1.json"
    assert run("sample", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--n", 0) == 2
    assert run("sample", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--mask", "low") == 2  # mask needs a reference
    assert run("sample", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--ref", tmp_path / "missing.ppm") == 2


@pytest.mark.parametrize("text_id", [4, -1, 5])
def test_sample_rejects_a_text_id_outside_the_model(pipe, tmp_path, text_id, capsys):
    """The toy model has 4 text classes; its fifth embedding row is the
    reserved null text, which no --text-id selects.  The one error line
    names the flag."""
    ckpt = pipe / "checkpoint_stage1.json"
    capsys.readouterr()
    assert run("sample", "--out-dir", tmp_path / "out", "--checkpoint", ckpt,
               "--steps", 2, "--text-id", text_id) == 2
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == (f"error: --text-id: text id {text_id} outside [0, 4); "
                                       f"only None selects the null text\n")
    assert run("sample", "--out-dir", tmp_path / "ok", "--checkpoint", ckpt,
               "--steps", 2, "--text-id", 3) == 0


@pytest.mark.parametrize("lam", ["0", "0.4"])
@pytest.mark.parametrize("width, height", [(40, 32), (32, 40), (16, 16)])
def test_sample_rejects_a_reference_of_another_shape(pipe, tmp_path, capsys, lam, width,
                                                     height):
    """The reference must be the model's size in both directions; a wrong
    width exits 2 before any image is drawn, whether or not λ uses it."""
    ref = tmp_path / "ref.ppm"
    write_ppm(ref, np.full((3, height, width), 0.5))
    out = tmp_path / "out"
    assert run("sample", "--out-dir", out, "--checkpoint", pipe / "checkpoint_stage1.json",
               "--ref", ref, "--lambda", lam, "--n", 1, "--steps", 2) == 2
    assert f"reference is {width}x{height}px but the model expects 32x32px" in \
        capsys.readouterr().err
    assert not out.exists()


def test_sample_mask_without_stage2_checkpoint_exits_3(pipe, tmp_path):
    assert run("sample", "--out-dir", tmp_path, "--mask", "low",
               "--ref", pipe / "dataset" / "ref_train_00.ppm") == 3


def test_sample_lambda_zero_ignores_the_reference(pipe, tmp_path):
    ckpt = pipe / "checkpoint_stage1.json"
    for sub, ref in (("a", "ref_train_00.ppm"), ("b", "ref_train_01.ppm")):
        assert run("sample", "--out-dir", tmp_path / sub, "--checkpoint", ckpt,
                   "--ref", pipe / "dataset" / ref, "--lambda", 0,
                   "--steps", 4) == 0
    img_a = (tmp_path / "a" / "sample_000.ppm").read_bytes()
    img_b = (tmp_path / "b" / "sample_000.ppm").read_bytes()
    assert img_a == img_b
    meta = read_json(tmp_path / "a" / "sample_meta.json")
    assert meta["ref_independent"] is True
    assert "identity_metric" in meta["samples"][0]


def test_sample_seed_derivation_gives_distinct_reproducible_images(pipe, tmp_path):
    ckpt = pipe / "checkpoint_stage1.json"
    for sub in ("a", "b"):
        assert run("sample", "--out-dir", tmp_path / sub, "--checkpoint", ckpt,
                   "--n", 5, "--steps", 4, "--seed", 7) == 0
    names = [f"sample_{i:03d}.ppm" for i in range(5)]
    blobs = [(tmp_path / "a" / n).read_bytes() for n in names]
    assert len(set(blobs)) == 5
    assert blobs == [(tmp_path / "b" / n).read_bytes() for n in names]
    meta = read_json(tmp_path / "a" / "sample_meta.json")
    assert [row["file"] for row in meta["samples"]] == names
    assert meta["ref_independent"] is False  # default lambda 0.4, no ref given


def test_sample_numerical_failure_exits_4_and_writes_nothing(pipe, tmp_path, monkeypatch,
                                                            capsys):
    """The third image fails after two were drawn: no image is written."""
    real = diffusion.predict_eps
    calls = []

    def failing_after_four(*args, **kwargs):
        calls.append(1)
        if len(calls) > 4:  # two images of two guidance-1 steps each
            raise FloatingPointError("non-finite values in noise prediction")
        return real(*args, **kwargs)

    monkeypatch.setattr(diffusion, "predict_eps", failing_after_four)
    out = tmp_path / "out"
    assert run("sample", "--out-dir", out, "--checkpoint", pipe / "checkpoint_stage1.json",
               "--n", 3, "--steps", 2, "--guidance", 1) == 4
    assert len(calls) == 5
    assert not out.exists()
    assert "numerical failure" in capsys.readouterr().err


def test_sample_with_control_mask(pipe, tmp_path):
    assert run("sample", "--out-dir", tmp_path, "--mask", "low",
               "--checkpoint", pipe / "checkpoint_stage2_low.json",
               "--ref", pipe / "dataset" / "ref_train_00.ppm",
               "--steps", 4) == 0
    meta = read_json(tmp_path / "sample_meta.json")
    assert meta["config"]["mask"] == "low"
    assert meta["ref_independent"] is False
    assert (tmp_path / "sample_000.ppm").is_file()


# ---------------------------------------------------------------------------
# filter


@pytest.fixture(scope="module")
def stripes_ppm(tmp_path_factory):
    path = tmp_path_factory.mktemp("filter") / "stripes.ppm"
    write_ppm(path, striped_test_image())
    return path


def test_filter_all_mask_equals_codec_roundtrip(stripes_ppm, tmp_path):
    assert run("filter", "--out-dir", tmp_path, "--input", stripes_ppm,
               "--mask", "all") == 0
    enc = build_encoders(toy_config())
    want = decode_latent(encode_latent(read_ppm(stripes_ppm), enc), enc)
    got = read_pfm(tmp_path / "filtered_all.pfm")
    assert np.max(np.abs(got - want)) <= 1e-6


def test_filter_band_statistics(stripes_ppm, tmp_path):
    metas = {}
    for mask in ("mini", "low", "high"):
        assert run("filter", "--out-dir", tmp_path, "--input", stripes_ppm,
                   "--mask", mask) == 0
        metas[mask] = read_json(tmp_path / f"filtered_{mask}.meta.json")
    assert metas["mini"]["output_variance"] < metas["low"]["output_variance"]
    assert all(abs(m) <= 1e-6 for m in metas["high"]["output_mean_per_channel"])
    high = read_pfm(tmp_path / "filtered_high.pfm")
    assert np.max(np.abs(high.mean(axis=(1, 2)))) <= 1e-6


def test_filter_meta_counts_match_the_mask(stripes_ppm, tmp_path):
    assert run("filter", "--out-dir", tmp_path, "--input", stripes_ppm,
               "--mask", "mid") == 0
    meta = read_json(tmp_path / "filtered_mid.meta.json")
    assert meta["mask_ones"] == build_mask(MaskKind.MID, 8, 8).sum()
    assert meta["coverage_gap_coefficients"] == len(coverage_gap(8, 8))
    assert meta["output_files"] == ["filtered_mid.ppm", "filtered_mid.pfm"]


def test_filter_rejects_nonsquare_input(tmp_path):
    path = tmp_path / "wide.ppm"
    write_ppm(path, np.zeros((3, 8, 16)))
    assert run("filter", "--out-dir", tmp_path, "--input", path,
               "--mask", "low") == 2


def test_filter_rejects_a_nonpositive_size(tmp_path):
    path = tmp_path / "neg.ppm"
    path.write_bytes(b"P6\n4 -4\n255\n" + bytes(48))
    out = tmp_path / "out"
    assert run("filter", "--out-dir", out, "--input", path, "--mask", "high") == 2
    assert not out.exists()


def test_filter_rejects_a_size_the_model_does_not_take(tmp_path, capsys):
    path = tmp_path / "odd.ppm"
    write_ppm(path, np.zeros((3, 30, 30)))
    out = tmp_path / "out"
    assert run("filter", "--out-dir", out, "--input", path, "--mask", "low") == 2
    assert not out.exists()
    assert "image_size 30 not divisible by patch 4" in capsys.readouterr().err


def test_filter_is_byte_deterministic(stripes_ppm, tmp_path):
    for sub in ("a", "b"):
        assert run("filter", "--out-dir", tmp_path / sub, "--input", stripes_ppm,
                   "--mask", "low") == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


# SHA-256 of every file `filter` writes for `stripes_ppm`
PINNED_FILTER = {
    "high": {
        "filter_config.json":
            "80aa153d9c03199806ba63acb45f87b5bc2254d2348d14fcadb8104bd5b1f512",
        "filtered_high.meta.json":
            "122273d26d2ac2a4f029c25e5a151482aee82b5fe170e140b32d068b81b0f071",
        "filtered_high.pfm": "fc1188f85f699976bdd7793f21c1fcde5e189d226b1aebb66228de9283ca4982",
        "filtered_high.ppm": "3fcfd2f5260006cc7ededc8f831dddf3938a9fcd6711c694ebde6e1176fa7777",
    },
    "low": {
        "filter_config.json":
            "7c75b13bae1dd951ea9fb3dcc2b169c7b6baa6e8af254d2f7e7b993b76ade4a1",
        "filtered_low.meta.json":
            "df8021874dc3af70bd30a6b574c3c31a9f622985d845c88b33d8e5134cfd2e90",
        "filtered_low.pfm": "1c9f5592eae05a300a388f43547cec1f1cea17e1f8bb0c83f07a231606794fe6",
        "filtered_low.ppm": "cabaaf40547a42a878992e73bd5901aff33b662db8fea2a8e63aa88e68c03240",
    },
}


@pytest.mark.parametrize("mask", list(PINNED_FILTER))
def test_filter_artifacts_are_pinned(stripes_ppm, tmp_path, mask):
    assert run("filter", "--out-dir", tmp_path, "--input", stripes_ppm, "--mask", mask) == 0
    assert {name: hashlib.sha256(blob).hexdigest()
            for name, blob in tree_bytes(tmp_path).items()} == PINNED_FILTER[mask]


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command in ("sample", "sweep-lambda", "ablate-masks")
    for flag, value in (("--steps", 0), ("--guidance", -1), ("--guidance", "nan"),
                        ("--lambda", 3))
    if (command, flag) != ("sweep-lambda", "--lambda")])
def test_a_bad_sampling_flag_exits_2_before_any_file_is_read(tmp_path, capsys, command,
                                                             flag, value):
    """With no checkpoint or dataset under the missing --out-dir, a check
    made after loading would exit 3."""
    out = tmp_path / "out"
    assert run(command, "--out-dir", out, flag, value) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag}"), err


# ---------------------------------------------------------------------------
# sweep-lambda


def test_sweep_lambda_flag_validation(tmp_path):
    assert run("sweep-lambda", "--out-dir", tmp_path, "--values", "abc") == 2
    assert run("sweep-lambda", "--out-dir", tmp_path, "--values", ",") == 2
    assert run("sweep-lambda", "--out-dir", tmp_path, "--trials", 0) == 2


@pytest.mark.parametrize("values", ["0.4,0.40", "0,1,0.0", "0,-0"])
def test_sweep_lambda_rejects_a_repeated_value(tmp_path, values, capsys):
    """Exit 2 before anything is loaded: with no checkpoint or dataset
    there, a later check would exit 3."""
    out = tmp_path / "out"
    assert run("sweep-lambda", "--out-dir", out, "--values", values, "--trials", 2) == 2
    assert not out.exists()
    assert "lists a lambda twice" in capsys.readouterr().err


def test_sweep_lambda_report_schema(pipe, tmp_path):
    assert run("sweep-lambda", "--out-dir", tmp_path,
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--data-dir", pipe / "dataset",
               "--values", "0,0.7", "--trials", 3, "--steps", 4) == 0
    report = read_json(tmp_path / "sweep_report.json")
    assert len(report["rows"]) == 6  # 2 values x 3 paired trials
    assert set(report["aggregate"]) == {"0.0", "0.7"}
    assert report["baseline"] == 0.0
    for agg in report["aggregate"].values():
        assert {"mean", "std", "wins_vs_first", "win_rate_vs_first"} <= set(agg)
    base = report["aggregate"]["0.0"]
    assert base["wins_vs_first"] == 0  # nothing beats itself
    assert (tmp_path / "sweep_sheet.ppm").is_file()


def test_the_sweep_report_holds_the_library_aggregate(pipe, tmp_path):
    """`paired_sweep` alone computes what the report says of each lambda;
    its drawn trials are the report's rows, in order."""
    assert run("sweep-lambda", "--out-dir", tmp_path,
               "--checkpoint", pipe / "checkpoint_stage1.json", "--data-dir", pipe / "dataset",
               "--values", "0,0.4,1", "--trials", 3, "--steps", 4) == 0
    report = read_json(tmp_path / "sweep_report.json")
    weights = load_checkpoint(pipe / "checkpoint_stage1.json")
    dataset, _ = load_dataset(pipe / "dataset")
    drawn, aggregate = paired_sweep(weights, build_encoders(weights.config),
                                    linear_schedule(weights.config.timesteps), dataset,
                                    [0.0, 0.4, 1.0], 3, 0, 4, 3.0)
    assert aggregate == report["aggregate"]
    assert [[metric, degenerate] for own in drawn for _, metric, degenerate in own] == \
        [[row["identity_metric"], row["degenerate"]] for row in report["rows"]]


def test_sweep_lambda_is_deterministic(pipe, tmp_path):
    args = ("--checkpoint", pipe / "checkpoint_stage1.json",
            "--data-dir", pipe / "dataset",
            "--values", "0.4", "--trials", 2, "--steps", 4)
    for sub in ("a", "b"):
        assert run("sweep-lambda", "--out-dir", tmp_path / sub, *args) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


# ---------------------------------------------------------------------------
# ablate-masks


def test_ablate_masks_report(pipe, tmp_path):
    assert run("ablate-masks", "--out-dir", tmp_path,
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--data-dir", pipe / "dataset",
               "--train-steps", 2, "--eval-size", 3, "--eval-samples", 1,
               "--steps", 4) == 0
    report = read_json(tmp_path / "ablate_report.json")
    assert [r["mask"] for r in report["rows"]] == \
        ["none", "mini", "low", "mid", "high"]
    assert sorted(r["rank"] for r in report["rows"]) == [1, 2, 3, 4, 5]
    assert sorted(report["ranking"]) == sorted(r["mask"] for r in report["rows"])
    for kind in ("mini", "low", "mid", "high"):
        assert (tmp_path / f"checkpoint_stage2_{kind}.json").is_file()

    # the no-control row must equal a direct recomputation on the same
    # held-out pairs; so must the rows of `mid` and `high`, which keep no
    # coefficient of the 8x8 latent, recomputed with their control signal
    # on the stage-1 weights their checkpoints hold
    weights = load_checkpoint(pipe / "checkpoint_stage1.json")
    enc = build_encoders(weights.config)
    schedule = linear_schedule(weights.config.timesteps)
    dataset, _ = load_dataset(pipe / "dataset")
    for row in report["rows"]:
        if row["mask"] in ("mini", "low"):
            continue
        kind = None if row["mask"] == "none" else MaskKind(row["mask"])
        rng = RngState(0).derive("ablate-eval")
        losses = []
        for i in range(3):
            s = dataset.test_sample(i)
            z0 = encode_latent(s.image, enc)
            t = 1 + rng.randint(schedule.timesteps)
            eps = rng.normal(z0.shape)
            z_t = forward_noise(z0, t, eps, schedule)
            ctrl = None if kind is None else ([0], make_control_signal(z0[None], kind))
            cond = project_conditions(weights, [s.text_id], ctrl=ctrl)
            pred = predict_eps(weights, z_t[None], time_terms(weights, [t], cond), cond)[0]
            losses.append(float(np.mean((pred - eps) ** 2)))
        assert row["recon_loss"] == float(np.mean(losses)), row["mask"]


def test_ablate_masks_trains_only_the_bands_the_latent_keeps(pipe, tmp_path, monkeypatch):
    """At the 8x8 latent `mid` and `high` keep no DCT coefficient, so their
    stage 2 has zero gradients and leaves the weights as they are: only
    `mini` and `low` are trained; the other two save the stage-1 weights
    with stage 2 completed, the file training them writes, and repeat the
    `none` row."""
    trained = []
    monkeypatch.setattr(cli, "train", lambda config, *args, **kwargs: (
        trained.append(config.mask_kind.value), train(config, *args, **kwargs)))
    assert run("ablate-masks", "--out-dir", tmp_path,
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--data-dir", pipe / "dataset",
               "--train-steps", 2, "--eval-size", 3, "--eval-samples", 1,
               "--steps", 4) == 0
    assert trained == ["mini", "low"]

    dataset, _ = load_dataset(pipe / "dataset")
    for kind in (MaskKind.MID, MaskKind.HIGH):
        weights = load_checkpoint(pipe / "checkpoint_stage1.json")
        train(TrainConfig(stage=2, steps=2, identity_scale=0.0, mask_kind=kind),
              dataset, weights)
        save_checkpoint(tmp_path / "trained.json", weights)
        saved = (tmp_path / f"checkpoint_stage2_{kind.value}.json").read_bytes()
        assert saved == (tmp_path / "trained.json").read_bytes(), kind
    rows = read_json(tmp_path / "ablate_report.json")["rows"]
    none = rows[0]
    for row in rows[3:]:
        assert (row["recon_loss"], row["identity_metric"]) == \
            (none["recon_loss"], none["identity_metric"]), row["mask"]


def test_a_band_is_skipped_by_its_coefficient_count_not_its_name():
    masked = (MaskKind.MINI, MaskKind.LOW, MaskKind.MID, MaskKind.HIGH)
    for size, trained in ((32, ["mini", "low"]), (64, ["mini", "low", "mid"])):
        hw = toy_config(image_size=size).latent_hw
        assert [k.value for k in masked if not _keeps_nothing(k, hw)] == trained, size
    assert build_mask(MaskKind.MID, 16, 16).sum() == 55


@pytest.mark.parametrize("flag", ["--eval-size", "--eval-samples"])
def test_ablate_masks_rejects_an_empty_evaluation(pipe, tmp_path, flag, capsys):
    out = tmp_path / "out"
    assert run("ablate-masks", "--out-dir", out,
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--data-dir", pipe / "dataset", "--train-steps", 1, "--steps", 2,
               flag, 0) == 2
    assert not out.exists()
    assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
    # checked before the dataset is read: a missing one would exit 3
    assert run("ablate-masks", "--out-dir", out, "--data-dir", tmp_path / "none",
               flag, 0) == 2


def test_ablate_masks_checks_train_steps_when_every_checkpoint_is_present(pipe, tmp_path):
    """--train-steps is checked although no mask checkpoint needs training."""
    ablate = ("ablate-masks", "--out-dir", tmp_path,
              "--checkpoint", pipe / "checkpoint_stage1.json", "--data-dir", pipe / "dataset",
              "--eval-size", 1, "--eval-samples", 1, "--steps", 2)
    assert run(*ablate, "--train-steps", 1) == 0
    (tmp_path / "ablate_report.json").unlink()
    before = tree_bytes(tmp_path)
    assert run(*ablate, "--train-steps", -1) == 2
    assert tree_bytes(tmp_path) == before


def test_ablate_masks_checks_a_stage2_checkpoint_it_finds(pipe, tmp_path, capsys):
    # a file under the stage-2 name that never completed stage 2
    unfinished = tmp_path / "unfinished"
    unfinished.mkdir()
    shutil.copy(pipe / "checkpoint_stage1.json", unfinished / "checkpoint_stage2_mini.json")
    assert run("ablate-masks", "--out-dir", unfinished,
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--data-dir", pipe / "dataset", "--train-steps", 1) == 3
    assert not (unfinished / "ablate_report.json").exists()

    # a stage-2 checkpoint of another stage-1 model: stage 1 retrained at
    # another seed after stage 2 was, in the same directory
    stale = tmp_path / "stale"
    stale.mkdir()
    shutil.copy(pipe / "checkpoint_stage2_low.json", stale)
    assert run("train", "--out-dir", stale, "--data-dir", pipe / "dataset",
               "--checkpoint", pipe / "checkpoint_stage0.json",
               "--stage", 1, "--steps", 1, "--seed", 5) == 0
    before = tree_bytes(stale)
    capsys.readouterr()
    assert run("ablate-masks", "--out-dir", stale, "--data-dir", pipe / "dataset",
               "--train-steps", 1) == 3
    # the stale `low` is caught before `mini`, which comes first, is trained
    assert tree_bytes(stale) == before
    err = capsys.readouterr().err
    assert f"checkpoint {stale / 'checkpoint_stage2_low.json'} has another " \
           f"identity_adapter than {stale / 'checkpoint_stage1.json'}" in err


# ---------------------------------------------------------------------------
# sampled artifacts


PINNED_ARTIFACTS = {
    "sample": {
        "sample_000.ppm": "9b40c1e11b6b85e1132fc3ea7a05e3a1dbc29d83bb4747e4a527756997c57e98",
        "sample_001.ppm": "f3a790a3a0b3dc1a6e4b1c37927c4a8090f498ce42d7ab2d364f21654972055d",
        "sample_config.json": "08712f8f83b6ed6752629e6c44a3f346105c07afb035e9230627f91bf8485637",
        "sample_meta.json": "4236ec2c778c29854a8b55cebe7c098321a1c9a63072368261daaf99207c4a13",
    },
    "sample-mask-low": {
        "sample_000.ppm": "a827b0c0e19c8c0de9f74f4234227c1d2a93c2624b8d3ef09bdb2a662a7449d4",
        "sample_001.ppm": "022b64ddc59512ca9732009161d6ac10b70bb7203f60afab13893280969029a2",
        "sample_config.json": "84d2a700221e26d1bc40665c95fda57924690108128610e8fd6530080eccd82a",
        "sample_meta.json": "22774d4db74dfc6806fd8ad45373c8dfbfc5365f6bda92899cbf666b0f519a35",
    },
    "sweep-lambda": {
        "sweep_lambda_config.json":
            "446f48d604bf937336b996bad3f7f4efb3c6b6c63c2096eee629c0702c4131b5",
        "sweep_report.json": "09d9149c4fb647bfdd683409028a09827dfa86a69cbc5b61ebcf3a339d33a4c3",
        "sweep_sheet.ppm": "955cfb5776c8f650e81759e890cd4a8e462d74202580aabef50dc5a41ed63376",
    },
    "ablate-masks": {
        "ablate_masks_config.json":
            "72e560c8d0e91ad30529e1471a00b66687da166abfed44fc2f99eea637d50a58",
        "ablate_report.json": "6e230f35e0990e9b6a17eaf66fcea396402dd7b1bc6b4b3d61ceefbfa82ed708",
    },
}


# SHA-256 of the checkpoints the `pipe` fixture trains (3, 3 and 2 steps)
PINNED_CHECKPOINTS = {
    "checkpoint_stage0.json": "7c47294fa0e6e4af641d140aa4bf50ae73777fb9329658bd7e9aa403f60d530d",
    "checkpoint_stage1.json": "0c4496aca582dbd2ed183697f33ea8439333210240f13bb84ceb34d51b07f24b",
    "checkpoint_stage2_low.json":
        "097e96479b79a17fb959c0d0220284fa0208052b42b0de8e41a4b128e6e62b80",
}


def test_trained_checkpoints_are_pinned(pipe):
    """The bytes of each stage's trained weights, held to literals, so a
    change to the training step that moves any weight shows here."""
    assert {name: hashlib.sha256((pipe / name).read_bytes()).hexdigest()
            for name in PINNED_CHECKPOINTS} == PINNED_CHECKPOINTS


# SHA-256 of the weights a library `train` run leaves, from the `pipe`
# checkpoint of the stage before, at (stage, batch size, steps): 2 K + 1
# steps at K steps per chunk, so each run crosses two chunk boundaries and
# ends on a one-step chunk
PINNED_CHUNKED_RUNS = {
    (1, 4, 9): "5a35f9cdc74ebb88dc82ab5f2e3e942c664bb64ac4ab8f25615acca83eb6ea39",
    (2, 4, 9): "9a0614a6bf6318c6560271155cded2fd8a48197d4938984cbfc55bd612123817",
    (1, 3, 11): "028f6d27dadc32febb3e48f35d18c677ea3d53e3208de057ae654d2dbb366811",
}


@pytest.mark.parametrize("stage, batch_size, steps", list(PINNED_CHUNKED_RUNS),
                         ids=["stage1-batch4", "stage2-batch4", "stage1-batch3"])
def test_runs_across_chunk_boundaries_are_pinned(pipe, tmp_path, stage, batch_size, steps):
    """Runs of several preparation chunks (`training.CHUNK_EXAMPLES`) train
    the weights the per-step preparation trained, held to literals."""
    assert steps == 2 * (CHUNK_EXAMPLES // batch_size) + 1
    dataset, _ = load_dataset(pipe / "dataset")
    weights = load_checkpoint(pipe / f"checkpoint_stage{stage - 1}.json")
    train(TrainConfig(stage=stage, steps=steps, batch_size=batch_size,
                      mask_kind=MaskKind.LOW if stage == 2 else None), dataset, weights)
    save_checkpoint(tmp_path / "trained.json", weights)
    digest = hashlib.sha256((tmp_path / "trained.json").read_bytes()).hexdigest()
    assert digest == PINNED_CHUNKED_RUNS[stage, batch_size, steps]


@pytest.mark.parametrize("case", list(PINNED_ARTIFACTS))
def test_sampled_artifacts_are_pinned(pipe, tmp_path, case):
    """The bytes of every normative file the sampling commands write, held
    to literals: the images, reports and config echoes (not the checkpoints
    `ablate-masks` trains, nor the `*.timing.json` sidecars)."""
    data, ref = pipe / "dataset", pipe / "dataset" / "ref_test_01.ppm"
    argv = {
        "sample": ("sample", "--checkpoint", pipe / "checkpoint_stage1.json",
                   "--ref", ref, "--n", 2, "--steps", 4),
        "sample-mask-low": ("sample", "--checkpoint", pipe / "checkpoint_stage2_low.json",
                            "--ref", ref, "--n", 2, "--steps", 4, "--mask", "low"),
        "sweep-lambda": ("sweep-lambda", "--checkpoint", pipe / "checkpoint_stage1.json",
                         "--data-dir", data, "--values", "0,0.4", "--trials", 2,
                         "--steps", 4),
        "ablate-masks": ("ablate-masks", "--checkpoint", pipe / "checkpoint_stage1.json",
                         "--data-dir", data, "--train-steps", 2, "--eval-size", 3,
                         "--eval-samples", 2, "--steps", 4),
    }[case]
    assert run(*argv, "--out-dir", tmp_path) == 0
    digests = {name: hashlib.sha256(blob).hexdigest()
               for name, blob in tree_bytes(tmp_path).items()
               if not name.startswith("checkpoint_") and not name.endswith(".timing.json")}
    assert digests == PINNED_ARTIFACTS[case]


@pytest.mark.parametrize("mask", ["none", "low"])
def test_sample_scores_a_reference_file_as_the_dataset_reference(pipe, tmp_path, mask):
    """`sample --ref` decodes the reference file as the dataset decodes its
    levels, so each recorded metric is, bit for bit, the image's metric
    against the dataset's own test reference, the one `sweep-lambda` and
    `ablate-masks` score against."""
    checkpoint = "checkpoint_stage1.json" if mask == "none" else "checkpoint_stage2_low.json"
    assert run("sample", "--out-dir", tmp_path, "--checkpoint", pipe / checkpoint,
               "--ref", pipe / "dataset" / "ref_test_01.ppm", "--n", 2, "--steps", 4,
               "--mask", mask) == 0
    ref = load_dataset(pipe / "dataset")[0].test_refs[1]
    for row in read_json(tmp_path / "sample_meta.json")["samples"]:
        image = read_ppm(tmp_path / row["file"])
        assert (row["identity_metric"], row["degenerate"]) == \
            identity_metric_flagged(image, ref), row["file"]


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_exit_codes(tmp_path, monkeypatch):
    assert run("gradcheck", "--out-dir", tmp_path, "--stage", 2) == 0
    report = read_json(tmp_path / "gradcheck_report.json")
    assert report["pass"] is True
    assert report["results"][0]["max_rel_err"] <= 1e-4
    flip_one_gradient(monkeypatch)
    assert run("gradcheck", "--out-dir", tmp_path, "--stage", 2) == 1
    assert read_json(tmp_path / "gradcheck_report.json")["pass"] is False


# ---------------------------------------------------------------------------
# global behaviour


def test_lambda_outside_unit_interval_exits_usage(pipe, tmp_path):
    ckpt = pipe / "checkpoint_stage1.json"
    ref = pipe / "dataset" / "ref_train_00.ppm"
    for lam in ("5", "nan", "-1"):
        assert run("sample", "--out-dir", tmp_path, "--checkpoint", ckpt,
                   "--ref", ref, "--lambda", lam, "--steps", 2) == 2
    assert run("sample", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--lambda", 5, "--steps", 2) == 2
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--checkpoint", pipe / "checkpoint_stage0.json",
               "--stage", 1, "--steps", 1, "--lambda", 7) == 2
    # stages 0 and 2 hold a valid --lambda as 0.0, but reject an invalid one
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 1, "--lambda", 7) == 2
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--checkpoint", pipe / "checkpoint_stage1.json",
               "--stage", 2, "--mask", "low", "--steps", 1, "--lambda", 7) == 2
    assert run("sweep-lambda", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--data-dir", pipe / "dataset", "--values", "0,5") == 2
    assert run("ablate-masks", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--data-dir", pipe / "dataset", "--lambda", 5) == 2
    assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def data16(tmp_path_factory):
    """A dataset of 16-px images; the CLI's model takes 32 px."""
    out = tmp_path_factory.mktemp("data16")
    assert run("gen-data", "--out-dir", out, "--n-identities", 4, "--n-contexts", 2,
               "--image-size", 16, "--train-size", 4, "--test-size", 4) == 0
    return out / "dataset"


@pytest.fixture(scope="module")
def ckpt8(tmp_path_factory):
    """A checkpoint of an 8-px model that completed stages 0 and 1."""
    weights = init_weights(tiny_config(), 0)
    weights.completed_stages.extend([0, 1])
    path = tmp_path_factory.mktemp("ckpt8") / "checkpoint.json"
    save_checkpoint(path, weights)
    return path


@pytest.mark.parametrize("argv, model_px, data_px", [
    (("train", "--stage", 0, "--data-dir", "{data16}"), 32, 16),
    (("train", "--stage", 1, "--data-dir", "{pipe}/dataset", "--checkpoint", "{ckpt8}"),
     8, 32),
    (("sweep-lambda", "--data-dir", "{data16}",
      "--checkpoint", "{pipe}/checkpoint_stage1.json"), 32, 16),
    (("ablate-masks", "--data-dir", "{data16}",
      "--checkpoint", "{pipe}/checkpoint_stage1.json"), 32, 16),
], ids=["train0", "train1", "sweep-lambda", "ablate-masks"])
def test_a_dataset_the_model_does_not_fit_exits_2(pipe, data16, ckpt8, tmp_path, capsys,
                                                  argv, model_px, data_px):
    out = tmp_path / "out"
    argv = [str(a).format(pipe=pipe, data16=data16, ckpt8=ckpt8) for a in argv]
    assert run(*argv, "--steps", 2, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert f"the model expects {model_px}px images but the dataset is {data_px}px" in err
    assert not out.exists()


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_config(path):
    payload = read_json(path)
    del payload["config"]
    path.write_text(json.dumps(payload))


def edit_in_proj(path, edit):
    """Replace in_proj's stored data with `edit` of it, decoded and
    re-encoded as schema 4 stores it (base64 of little-endian float64)."""
    payload = read_json(path)
    entry = payload["params"]["in_proj"]
    entry["data"] = base64.b64encode(edit(base64.b64decode(entry["data"]))).decode("ascii")
    path.write_text(json.dumps(payload))


def tamper(path):
    """in_proj's first weight moved by 1.0."""
    def bump(raw):
        data = np.frombuffer(raw, dtype="<f8").copy()
        data[0] += 1.0
        return data.tobytes()
    edit_in_proj(path, bump)


def shorten(path):
    """in_proj's data one float short."""
    edit_in_proj(path, lambda raw: raw[:-8])


def garble(path):
    """in_proj's data with a character that is not base64."""
    payload = read_json(path)
    entry = payload["params"]["in_proj"]
    entry["data"] = "!" + entry["data"][1:]
    path.write_text(json.dumps(payload))


def flip_last_raster_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def strip_checksums(path):
    """A tampered weight under an empty checksum table."""
    tamper(path)
    payload = read_json(path)
    payload["set_checksums"] = {}
    path.write_text(json.dumps(payload))


def downgrade_schema(path):
    """The schema-2 format, whose config also held latent_channels and
    latent_scale."""
    payload = read_json(path)
    payload["schema_version"] = 2
    payload["config"].update(latent_channels=4, latent_scale=1.0)
    path.write_text(json.dumps(payload))


def downgrade_to_schema_3(path):
    """The schema-3 format, which stored each parameter as a list of floats."""
    payload = read_json(path)
    payload["schema_version"] = 3
    for entry in payload["params"].values():
        entry["data"] = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").tolist()
    path.write_text(json.dumps(payload))


def poison(path):
    """A NaN weight under checksums that match it."""
    weights = load_checkpoint(path)
    weights.in_proj[0, 0] = np.nan
    save_checkpoint(path, weights)


@pytest.mark.parametrize("case", ["truncated-checkpoint", "checkpoint-without-config",
                                  "tampered-checkpoint", "checkpoint-without-checksums",
                                  "non-finite-checkpoint", "schema-2-checkpoint",
                                  "schema-3-checkpoint", "checkpoint-non-base64",
                                  "checkpoint-one-float-short",
                                  "dataset-missing-ppm", "truncated-index",
                                  "dataset-checksum-mismatch", "dataset-non-integer-seed",
                                  "dataset-flipped-raster-byte", "dataset-other-seed",
                                  "dataset-maxval-not-255", "dataset-schema-2"])
def test_corrupt_prerequisite_exits_3(pipe, tmp_path, case, capsys):
    data = tmp_path / "dataset"
    shutil.copytree(pipe / "dataset", data)
    ckpt = tmp_path / "checkpoint.json"
    shutil.copy(pipe / "checkpoint_stage1.json", ckpt)
    if case == "truncated-checkpoint":
        truncate(ckpt)
    elif case == "checkpoint-without-config":
        drop_config(ckpt)
    elif case == "tampered-checkpoint":
        tamper(ckpt)
    elif case == "checkpoint-without-checksums":
        strip_checksums(ckpt)
    elif case == "non-finite-checkpoint":
        poison(ckpt)
    elif case == "schema-2-checkpoint":
        downgrade_schema(ckpt)
    elif case == "schema-3-checkpoint":
        downgrade_to_schema_3(ckpt)
    elif case == "checkpoint-non-base64":
        garble(ckpt)
    elif case == "checkpoint-one-float-short":
        shorten(ckpt)
    elif case == "dataset-missing-ppm":
        (data / "train_0003.ppm").unlink()
    elif case == "dataset-checksum-mismatch":
        shutil.copy(data / "train_0004.ppm", data / "train_0003.ppm")
    elif case == "dataset-non-integer-seed":
        index = read_json(data / "index.json")
        (data / "index.json").write_text(json.dumps({**index, "seed": "not a seed"}))
    elif case == "dataset-flipped-raster-byte":
        flip_last_raster_byte(data / "train_0003.ppm")
    elif case == "dataset-other-seed":
        index = read_json(data / "index.json")
        (data / "index.json").write_text(json.dumps({**index, "seed": index["seed"] + 1}))
    elif case == "dataset-maxval-not-255":
        # the same levels, so only the loader's maxval check catches it
        path = data / "train_0003.ppm"
        path.write_bytes(path.read_bytes().replace(b"\n255\n", b"\n254\n", 1))
    elif case == "dataset-schema-2":
        index = read_json(data / "index.json")
        (data / "index.json").write_text(json.dumps({**index, "schema_version": 2}))
    else:
        truncate(data / "index.json")
    out = tmp_path / "out"
    if "checkpoint" in case:
        assert run("sample", "--out-dir", out, "--checkpoint", ckpt, "--steps", 2) == 3
    else:
        assert run("train", "--out-dir", out, "--data-dir", data,
                   "--stage", 0, "--steps", 1) == 3
    assert not out.exists()
    err = capsys.readouterr().err
    if case == "non-finite-checkpoint":
        assert "parameter in_proj is not finite" in err
    if case == "tampered-checkpoint":
        assert "checksum for set backbone is missing or does not match" in err
    if case in ("dataset-checksum-mismatch", "dataset-flipped-raster-byte",
                "dataset-other-seed"):
        assert "does not match its index checksum" in err
    if case == "dataset-maxval-not-255":
        assert "train_0003.ppm is 32x32 with maxval 254, expected 32x32 with maxval 255" in err
    if case == "dataset-non-integer-seed":
        assert "non-integer seed 'not a seed'" in err
    if case == "dataset-schema-2":
        assert "dataset index schema 2 unsupported (expected 3)" in err
        assert "`freqbooth gen-data`" in err
    if case == "schema-2-checkpoint":
        assert "checkpoint schema 2 unsupported (expected 4)" in err
        assert "TypeError" not in err
    if case == "schema-3-checkpoint":
        assert "checkpoint schema 3 unsupported (expected 4)" in err
    if case == "checkpoint-non-base64":
        assert "checkpoint data for in_proj is not base64" in err
    if case == "checkpoint-one-float-short":
        n = load_checkpoint(pipe / "checkpoint_stage1.json").in_proj.nbytes
        assert f"checkpoint data for in_proj: {n - 8} bytes, expected {n}" in err


def test_numerical_failure_exits_4_and_saves_nothing(pipe, tmp_path, capsys):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 5, "--lr", "1e200") == 4
    assert not any(tmp_path.iterdir())
    assert "numerical failure: stage 0 step 1: loss is nan" in capsys.readouterr().err


def test_an_infinite_lr_exits_4_with_one_line_and_no_warning(pipe, tmp_path, capsys):
    # the first update makes every trained weight non-finite, so step 1's loss is NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
                   "--stage", 0, "--steps", 2, "--lr", "inf") == 4
    assert [str(w.message) for w in caught] == []
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == "numerical failure: stage 0 step 1: loss is nan\n"


def test_diverging_loss_exits_4_and_saves_nothing(pipe, tmp_path, capsys):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 60, "--lr", "1e4") == 4
    assert not any(tmp_path.iterdir())
    assert "times the first step's" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("gen-data", "--out-dir", "{file}/out", "--n-identities", 1, "--n-contexts", 1,
     "--image-size", 8, "--train-size", 1, "--test-size", 1),
    ("gradcheck", "--out-dir", "{file}/out", "--stage", 2),
    ("filter", "--out-dir", "{tmp}/out", "--input", "{tmp}", "--mask", "low"),
    ("sample", "--out-dir", "{tmp}/out", "--ref", "{tmp}",
     "--checkpoint", "{pipe}/checkpoint_stage1.json", "--steps", 2),
], ids=["gen-data-out-dir-under-a-file", "gradcheck-out-dir-under-a-file",
        "filter-input-dir", "sample-ref-dir"])
def test_a_file_system_error_exits_2_and_writes_nothing(pipe, tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = [str(a).format(pipe=pipe, tmp=tmp_path, file=tmp_path / "file") for a in argv]
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == ""


# Each size asks for one allocation of over 256 TiB, past a 47-bit address
# space, so it fails at once and touches no page.  A size a host might
# allocate, or a huge count that allocates bit by bit, is never tried.
@pytest.mark.parametrize("case, code, message", [
    ("index", 3, "is unusable: Unable to allocate"),
    ("checkpoint", 3, "is unusable: Unable to allocate"),
    ("gen-data", 2, "Unable to allocate"),
])
def test_a_size_nothing_can_allocate_exits_with_one_line_and_writes_nothing(
        pipe, tmp_path, capsys, case, code, message):
    if case == "index":
        index = read_json(pipe / "dataset" / "index.json")
        index["spec"]["image_size"] = 10**7
        (tmp_path / "index.json").write_text(json.dumps(index))
        argv = ("train", "--data-dir", tmp_path, "--stage", 0, "--steps", 1)
    elif case == "checkpoint":
        payload = read_json(pipe / "checkpoint_stage0.json")
        payload["config"]["image_size"] = 4 * 10**7
        (tmp_path / "checkpoint.json").write_text(json.dumps(payload))
        argv = ("train", "--data-dir", pipe / "dataset", "--checkpoint",
                tmp_path / "checkpoint.json", "--stage", 1, "--steps", 1)
    else:
        argv = ("gen-data", "--image-size", 10**7)
    before = tree_bytes(tmp_path)
    capsys.readouterr()
    assert run(*argv, "--out-dir", tmp_path / "out") == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert "for an array with shape" in err, err  # numpy's own text, not the repr
    assert not (tmp_path / "out").exists()
    assert tree_bytes(tmp_path) == before


@pytest.mark.parametrize("argv", [
    ("train", "--data-dir", "{pipe}/dataset", "--stage", 0, "--steps", 300),
    ("gradcheck",),
], ids=["train", "gradcheck"])
def test_an_out_dir_that_cannot_be_made_is_found_before_any_work(pipe, tmp_path, capsys,
                                                                 monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("ran before --out-dir was checked")

    monkeypatch.setattr(cli, "train", no_work)
    monkeypatch.setattr(cli, "gradient_check", no_work)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    capsys.readouterr()
    assert run(*(str(a).format(pipe=pipe) for a in argv), "--out-dir", out) == 2
    assert capsys.readouterr() == ("", f"error: --out-dir {out}: {tmp_path / 'file'} "
                                       f"is not a directory\n")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("argv", [
    ("gen-data", "--n-identities", 2, "--image-size", 8,
     "--train-size", 2, "--test-size", 2),
    ("filter", "--input", "in.ppm", "--mask", "low"),
    ("gradcheck", "--stage", 0),
])
def test_commands_without_a_checkpoint_reject_the_option(argv, tmp_path):
    out = tmp_path / "out"
    assert run(*argv, "--out-dir", out, "--checkpoint", tmp_path / "x.json") == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, code", [
    (("gen-data", "--n-identities", 0), 2),
    (("train", "--data-dir", "{pipe}/dataset", "--stage", 1, "--steps", 1), 3),
    (("train", "--data-dir", "{pipe}/dataset", "--stage", 1, "--mask", "low",
      "--checkpoint", "{pipe}/checkpoint_stage0.json", "--steps", 1), 2),
    (("sample", "--checkpoint", "{pipe}/checkpoint_stage1.json",
      "--guidance", -1, "--steps", 2), 2),
    (("sample", "--mask", "low", "--ref", "{pipe}/dataset/ref_train_00.ppm"), 3),
    (("filter", "--input", "{pipe}/missing.ppm", "--mask", "low"), 2),
    (("sweep-lambda", "--checkpoint", "{pipe}/checkpoint_stage1.json"), 3),
    (("ablate-masks", "--data-dir", "{pipe}/dataset",
      "--checkpoint", "{pipe}/checkpoint_stage0.json"), 3),
    # the sampling flags, checked before a missing stage-2 checkpoint is trained
    *[pytest.param(("ablate-masks", "--data-dir", "{pipe}/dataset",
                    "--checkpoint", "{pipe}/checkpoint_stage1.json", "--train-steps", 1,
                    flag, value), 2, id=f"ablate-masks{flag}={value}")
      for flag, value in (("--steps", 0), ("--guidance", -1), ("--guidance", "nan"))],
    (("gradcheck", "--stage", 7), 2),
], ids=lambda v: v[0] if isinstance(v, tuple) else str(v))
def test_a_failing_command_creates_no_out_dir(pipe, tmp_path, argv, code):
    out = tmp_path / "out"
    assert run(*(str(a).format(pipe=pipe) for a in argv), "--out-dir", out) == code
    assert not out.exists()
