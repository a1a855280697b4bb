"""End-to-end command tests, run in-process against temp directories.

A module-scoped pipeline (tiny 32px dataset, a few optimizer steps per
stage) backs the commands that need checkpoints; correctness of the math
lives in the unit tests, so these assert wiring: exit codes, artifact
files, schemas, and byte determinism.
"""

import json
import shutil

import numpy as np
import pytest

from freqbooth.cli import load_dataset, main
from freqbooth.config import toy_config
from freqbooth.dct_freq import MaskKind, build_mask, coverage_gap
from freqbooth.diffusion import PARAM_SETS, forward_noise, init_weights, \
    linear_schedule, predict_eps
from freqbooth.netpbm import read_pfm, read_ppm, write_ppm
from freqbooth.reference_encoder import build_encoders, decode_latent, encode_latent
from freqbooth.tensor_core import RngState
from freqbooth.training import load_checkpoint, save_checkpoint
from conftest import flip_one_gradient, striped_test_image


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
    assert len(index["train"]) == 8
    assert len(index["test"]) == 4
    assert len(list(ddir.glob("train_*.ppm"))) == 8
    assert len(list(ddir.glob("ref_*.ppm"))) == 8  # 4 identities x 2 splits
    loaded = load_dataset(ddir)  # revalidates the checksum
    assert loaded.spec.n_identities == 4
    echo = read_json(pipe / "gen_data_config.json")
    assert echo["command"] == "gen-data"
    assert echo["seed"] == 0


def test_gen_data_rejects_zero_identities(tmp_path):
    assert run("gen-data", "--out-dir", tmp_path, "--n-identities", 0) == 2


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


def test_train_stage0_rejects_a_checkpoint(pipe, tmp_path):
    out = tmp_path / "out"
    assert run("train", "--out-dir", out, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 2, "--checkpoint", tmp_path / "x.json") == 2
    assert list(out.iterdir()) == []


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
    assert meta["mask_ones"] == build_mask(MaskKind.MID, 8, 8).ones_count()
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
    assert list(out.iterdir()) == []


def test_filter_is_byte_deterministic(stripes_ppm, tmp_path):
    for sub in ("a", "b"):
        assert run("filter", "--out-dir", tmp_path / sub, "--input", stripes_ppm,
                   "--mask", "low") == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


# ---------------------------------------------------------------------------
# sweep-lambda


def test_sweep_lambda_flag_validation(tmp_path):
    assert run("sweep-lambda", "--out-dir", tmp_path, "--values", "abc") == 2
    assert run("sweep-lambda", "--out-dir", tmp_path, "--trials", 0) == 2


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
    # held-out pairs
    weights = load_checkpoint(pipe / "checkpoint_stage1.json")
    enc = build_encoders(weights.config)
    schedule = linear_schedule(weights.config.timesteps)
    dataset = load_dataset(pipe / "dataset")
    rng = RngState(0).derive("ablate-eval")
    losses = []
    for i in range(3):
        s = dataset.test_sample(i)
        z0 = encode_latent(s.image, enc)
        t = 1 + rng.randint(schedule.timesteps)
        eps = rng.normal(z0.shape)
        z_t = forward_noise(z0, t, eps, schedule)
        pred = predict_eps(weights, z_t, t, s.text_id, None, None, 0.0)
        losses.append(float(np.mean((pred - eps) ** 2)))
    assert report["rows"][0]["recon_loss"] == float(np.mean(losses))


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
    assert run("sweep-lambda", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--data-dir", pipe / "dataset", "--values", "0,5") == 2
    assert run("ablate-masks", "--out-dir", tmp_path, "--checkpoint", ckpt,
               "--data-dir", pipe / "dataset", "--lambda", 5) == 2
    assert not any(tmp_path.iterdir())


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def drop_config(path):
    payload = read_json(path)
    del payload["config"]
    path.write_text(json.dumps(payload))


def tamper(path):
    payload = read_json(path)
    payload["params"]["in_proj"]["data"][0] += 1.0
    path.write_text(json.dumps(payload))


def poison(path):
    """A NaN weight under checksums that match it."""
    weights = load_checkpoint(path)
    weights.in_proj[0, 0] = np.nan
    save_checkpoint(path, weights)


@pytest.mark.parametrize("case", ["truncated-checkpoint", "checkpoint-without-config",
                                  "tampered-checkpoint", "non-finite-checkpoint",
                                  "dataset-missing-ppm", "truncated-index"])
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
    elif case == "non-finite-checkpoint":
        poison(ckpt)
    elif case == "dataset-missing-ppm":
        (data / "train_0003.ppm").unlink()
    else:
        truncate(data / "index.json")
    out = tmp_path / "out"
    if "checkpoint" in case:
        assert run("sample", "--out-dir", out, "--checkpoint", ckpt, "--steps", 2) == 3
    else:
        assert run("train", "--out-dir", out, "--data-dir", data,
                   "--stage", 0, "--steps", 1) == 3
    assert not any(out.iterdir())
    if case == "non-finite-checkpoint":
        assert "parameter in_proj is not finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_4_and_saves_nothing(pipe, tmp_path, capsys):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 5, "--lr", "1e200") == 4
    assert not any(tmp_path.iterdir())
    assert "numerical failure: stage 0 step 1: loss is nan" in capsys.readouterr().err


def test_diverging_loss_exits_4_and_saves_nothing(pipe, tmp_path, capsys):
    assert run("train", "--out-dir", tmp_path, "--data-dir", pipe / "dataset",
               "--stage", 0, "--steps", 60, "--lr", "1e4") == 4
    assert not any(tmp_path.iterdir())
    assert "times the first step's" in capsys.readouterr().err


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


def test_env_var_overrides_out_dir(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("FREQBOOTH_OUT", str(env_dir))
    assert run("gen-data", "--out-dir", tmp_path / "flag_out",
               "--n-identities", 2, "--n-contexts", 1, "--image-size", 8,
               "--train-size", 2, "--test-size", 2) == 0
    assert (env_dir / "dataset" / "index.json").is_file()
    assert not (tmp_path / "flag_out").exists()
