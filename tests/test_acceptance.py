"""Acceptance gate: ten numbered tests, one per shipping criterion.

Each test name states its criterion; `pytest -v tests/test_acceptance.py`
therefore prints one pass/fail line per criterion.  The expensive pieces
(pretraining, the two adaptation stages, the lambda sweep) run once through
the real CLI at the toy defaults and every dependent criterion reads those
artifacts, exactly as a user reproducing the pipeline would.
"""

import json
import time

import numpy as np
import pytest

from freqbooth.cli import main
from freqbooth.config import toy_config
from freqbooth.dct_freq import MaskKind, build_mask, coverage_gap, dct2, idct2
from freqbooth.diffusion import (cfg_combine, ddim_step, forward_noise,
                                 linear_schedule, sample, sampling_timesteps)
from freqbooth.netpbm import read_pfm, read_ppm, write_ppm
from freqbooth.reference_encoder import build_encoders, decode_latent, encode_latent
from freqbooth.tensor_core import RngState
from freqbooth.training import gradient_check, load_checkpoint
from conftest import striped_test_image
from test_attention import forward, make_weights, naive_adaptive
from test_dct_freq import enumerate_bits, naive_dct2


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def tree_bytes(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """The documented end-to-end run: default dataset, stage 0 pretrain,
    stage 1 identity adapter (2000 steps), stage 2 low-band control
    (500 steps), then the paired lambda sweep with 32 trials."""
    out = tmp_path_factory.mktemp("acceptance")
    assert run("gen-data", "--out-dir", out) == 0
    assert run("train", "--out-dir", out, "--stage", 0) == 0
    assert run("train", "--out-dir", out, "--stage", 1) == 0
    assert run("train", "--out-dir", out, "--stage", 2, "--mask", "low") == 0
    assert run("sweep-lambda", "--out-dir", out,
               "--values", "0,0.4,1.0", "--trials", 32) == 0
    return out


def test_01_dct_roundtrip_parseval_and_oracle():
    """Criterion 1: invertibility and norm preservation at 1e-9 relative for
    100 random inputs per size, double-sum oracle at 1e-10, all inside 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    for n in (8, 64):
        for _ in range(100):
            x = rng.normal(size=(n, n))
            norm = np.linalg.norm(x)
            spec = dct2(x)
            assert np.linalg.norm(idct2(spec) - x) <= 1e-9 * norm
            assert abs(np.linalg.norm(spec) - norm) <= 1e-9 * norm
    for _ in range(5):
        x = rng.normal(size=(8, 8))
        assert np.max(np.abs(dct2(x) - naive_dct2(x))) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 1: 200 roundtrips + 5 oracle checks in {elapsed:.2f}s")


def test_02_band_mask_contract():
    """Criterion 2: bit predicates by enumeration at both sizes, the 231-one
    low band, containment/disjointness, and the detected coverage gap."""
    for n in (8, 64):
        for kind in MaskKind:
            got = build_mask(kind, n, n).bits
            assert np.array_equal(got, enumerate_bits(kind, n, n)), (kind, n)
    assert build_mask(MaskKind.LOW, 64, 64).ones_count() == 231

    mini = build_mask(MaskKind.MINI, 64, 64).bits.astype(bool)
    low = build_mask(MaskKind.LOW, 64, 64).bits.astype(bool)
    mid = build_mask(MaskKind.MID, 64, 64).bits.astype(bool)
    high = build_mask(MaskKind.HIGH, 64, 64).bits.astype(bool)
    assert (mini <= low).all()
    assert not (low & mid).any()
    assert not (mid & high).any()

    gap = coverage_gap(64, 64)
    want = {(u, v) for u in range(64) for v in range(64) if 40 < u + v < 50}
    assert set(gap) == want and gap
    print(f"criterion 2: gap of {len(gap)} coefficients detected at 64x64")


def test_02b_coverage_gap_is_reported(tmp_path):
    """Criterion 2, reporting half: the filter artifact carries the gap count
    for a 64x64 latent spectrum."""
    img_path = tmp_path / "big.ppm"
    write_ppm(img_path, striped_test_image(size=256))
    assert run("filter", "--out-dir", tmp_path, "--input", img_path,
               "--mask", "mid") == 0
    meta = read_json(tmp_path / "filtered_mid.meta.json")
    assert meta["coverage_gap_coefficients"] == len(coverage_gap(64, 64))


def test_03_adaptive_attention_identities():
    """Criterion 3: bitwise self-attention at zero strength, the exact affine
    law in the strength parameter, and agreement with a loop oracle."""
    rng = np.random.default_rng(0)
    checked = 0
    for heads in (1, 2):
        for _ in range(10):
            w = make_weights(rng, 8, 5, heads=heads, scale=0.6)
            hidden = rng.normal(size=(6, 8))
            identity = rng.normal(size=(3, 5))
            lam = rng.uniform()
            got = forward(hidden, identity, w, lam)
            assert np.max(np.abs(got - naive_adaptive(hidden, identity, w, lam))) <= 1e-10
            checked += 1

            base = forward(hidden, identity, w, 0.0)
            assert np.array_equal(base, forward(hidden, None, w, 0.0))
            # the cross summand alone, from the loop oracle
            cross = (naive_adaptive(hidden, identity, w, 1.0)
                     - naive_adaptive(hidden, identity, w, 0.0))
            for lam_fixed in (0.25, 0.5, 1.0):
                out = forward(hidden, identity, w, lam_fixed)
                assert np.max(np.abs(out - base - lam_fixed * cross)) <= 1e-12
    print(f"criterion 3: {checked} random instances within 1e-10 of the oracle")


def test_04_gradient_checks_all_stages():
    """Criterion 4: analytic vs central finite differences at 1e-4 for every
    trainable set, at dims <= 8, inside 60 s."""
    t0 = time.perf_counter()
    for stage in (0, 1, 2):
        res = gradient_check(stage)
        print(f"criterion 4: stage {stage} [{res['trainable_set']}] "
              f"max rel err {res['max_rel_err']:.3e}")
        assert res["pass"], res["per_param_max_rel_err"]
        assert res["max_rel_err"] <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 4: three stages checked in {elapsed:.1f}s")


def test_05_freezing_contract(pipeline):
    """Criterion 5: after the (>= 500 step) stage-1 and stage-2 runs every
    declared-frozen parameter set has an unchanged checksum."""
    for suffix in ("stage1", "stage2_low"):
        report = read_json(pipeline / f"train_report_{suffix}.json")
        assert report["steps"] >= 500
        assert report["frozen_before"] == report["frozen_after"]

    ck0 = read_json(pipeline / "checkpoint_stage0.json")["set_checksums"]
    ck1 = read_json(pipeline / "checkpoint_stage1.json")["set_checksums"]
    ck2 = read_json(pipeline / "checkpoint_stage2_low.json")["set_checksums"]
    assert ck1["backbone"] == ck0["backbone"]
    assert ck2["backbone"] == ck0["backbone"]
    assert ck2["identity_adapter"] == ck1["identity_adapter"]
    assert ck1["identity_adapter"] != ck0["identity_adapter"]  # stage 1 trained
    assert ck2["control"] != ck1["control"]                    # stage 2 trained
    print("criterion 5: frozen-set checksums stable across stages 1 and 2")


def test_06_stage1_convergence(pipeline):
    """Criterion 6: stage-1 at toy defaults halves the smoothed loss within
    the 10-minute budget."""
    report = read_json(pipeline / "train_report_stage1.json")
    assert report["steps"] == 2000
    assert report["config"]["batch_size"] == 4
    ratio = report["final_smoothed"] / report["initial_smoothed"]
    wall = read_json(pipeline / "train_report_stage1.timing.json")["wall_clock_s"]
    print(f"criterion 6: smoothed loss ratio {ratio:.3f} "
          f"({report['initial_smoothed']:.4f} -> {report['final_smoothed']:.4f}) "
          f"in {wall:.0f}s")
    assert ratio <= 0.5
    assert wall < 600.0


def test_07_identity_injection_wins_the_sweep(pipeline):
    """Criterion 7: over >= 20 paired seeds the identity strength 0.4 beats
    strength 0 on mean and on >= 70% of pairs; 1.0 is reported only."""
    report = read_json(pipeline / "sweep_report.json")
    assert report["trials"] >= 20
    agg = report["aggregate"]
    base, mid, full = agg["0.0"], agg["0.4"], agg["1.0"]
    print(f"criterion 7: mean metric lambda 0 {base['mean']:.4f}, "
          f"lambda 0.4 {mid['mean']:.4f} "
          f"(win rate {mid['win_rate_vs_first']:.0%}), "
          f"lambda 1.0 {full['mean']:.4f} [reported, not asserted]")
    assert mid["mean"] > base["mean"]
    assert mid["win_rate_vs_first"] >= 0.70


def test_08_guidance_identities_and_ddim_inversion(pipeline):
    """Criterion 8: guidance weight 1 is the conditional path bitwise, 0 the
    unconditional path; DDIM with the true noise recovers the clean latent."""
    c, u = np.ones((4, 8, 8)), np.zeros((4, 8, 8))
    assert cfg_combine(c, u, 1.0) is c
    assert cfg_combine(c, u, 0.0) is u

    weights = load_checkpoint(pipeline / "checkpoint_stage1.json")
    enc = build_encoders(weights.config)
    schedule = linear_schedule(weights.config.timesteps)
    ref_a = read_ppm(pipeline / "dataset" / "ref_test_00.ppm")
    ref_b = read_ppm(pipeline / "dataset" / "ref_test_01.ppm")

    def gen(**kw):
        img, _ = sample(weights, enc, schedule, RngState(3).derive(("sample", 0)),
                        steps=4, **kw)
        return img

    skip = gen(ref_img=ref_a, text_id=1, guidance=1.0, identity_scale=0.4)
    both = gen(ref_img=ref_a, text_id=1, guidance=1.0, identity_scale=0.4,
               force_both_branches=True)
    assert np.array_equal(skip, both)

    w0_a = gen(ref_img=ref_a, text_id=0, guidance=0.0, identity_scale=0.4)
    w0_b = gen(ref_img=ref_b, text_id=1, guidance=0.0, identity_scale=1.0)
    assert np.array_equal(w0_a, w0_b)

    z0 = RngState(7).normal((4, 8, 8))
    eps = RngState(8).normal((4, 8, 8))
    for t in (1, 100, 200):
        z_t = forward_noise(z0, t, eps, schedule)
        assert np.max(np.abs(ddim_step(z_t, eps, t, 0, schedule) - z0)) <= 1e-9
    taus = sampling_timesteps(schedule.timesteps, 10)
    z = forward_noise(z0, int(taus[-1]), eps, schedule)
    for m in range(len(taus) - 1, 0, -1):
        z = ddim_step(z, eps, int(taus[m]), int(taus[m - 1]), schedule)
    assert np.max(np.abs(z - z0)) <= 1e-9
    print("criterion 8: guidance endpoint identities bitwise, "
          "true-noise inversion within 1e-9")


def test_09_band_filter_statistics(tmp_path):
    """Criterion 9: on the striped test image the mini band has less pixel
    variance than low, high-pass output is mean-free per channel at 1e-6,
    and all-pass equals the codec roundtrip at 1e-6 per pixel."""
    img_path = tmp_path / "stripes.ppm"
    write_ppm(img_path, striped_test_image())
    metas = {}
    for mask in ("mini", "low", "high", "all"):
        assert run("filter", "--out-dir", tmp_path, "--input", img_path,
                   "--mask", mask) == 0
        metas[mask] = read_json(tmp_path / f"filtered_{mask}.meta.json")

    assert metas["mini"]["output_variance"] < metas["low"]["output_variance"]
    assert all(abs(m) <= 1e-6 for m in metas["high"]["output_mean_per_channel"])
    high = read_pfm(tmp_path / "filtered_high.pfm")
    assert np.max(np.abs(high.mean(axis=(1, 2)))) <= 1e-6

    enc = build_encoders(toy_config())
    want = decode_latent(encode_latent(read_ppm(img_path), enc), enc)
    got = read_pfm(tmp_path / "filtered_all.pfm")
    assert np.max(np.abs(got - want)) <= 1e-6
    print(f"criterion 9: variance mini {metas['mini']['output_variance']:.5f} "
          f"< low {metas['low']['output_variance']:.5f}; "
          f"all-pass max deviation {np.max(np.abs(got - want)):.2e}")


def test_10_artifacts_are_byte_reproducible(pipeline, tmp_path):
    """Criterion 10: rerunning a command with the same flags reproduces every
    artifact byte for byte (config echoes included)."""
    gen_flags = ("--n-identities", 2, "--n-contexts", 1, "--image-size", 8,
                 "--train-size", 4, "--test-size", 2, "--seed", 3)
    for sub in ("gen_a", "gen_b"):
        assert run("gen-data", "--out-dir", tmp_path / sub, *gen_flags) == 0
    assert tree_bytes(tmp_path / "gen_a") == tree_bytes(tmp_path / "gen_b")

    ckpt = pipeline / "checkpoint_stage1.json"
    ref = pipeline / "dataset" / "ref_test_00.ppm"
    for sub in ("smp_a", "smp_b"):
        assert run("sample", "--out-dir", tmp_path / sub, "--checkpoint", ckpt,
                   "--ref", ref, "--n", 2, "--steps", 4, "--seed", 5) == 0
    assert tree_bytes(tmp_path / "smp_a") == tree_bytes(tmp_path / "smp_b")

    img_path = tmp_path / "stripes.ppm"
    write_ppm(img_path, striped_test_image())
    for sub in ("flt_a", "flt_b"):
        assert run("filter", "--out-dir", tmp_path / sub, "--input", img_path,
                   "--mask", "low") == 0
    assert tree_bytes(tmp_path / "flt_a") == tree_bytes(tmp_path / "flt_b")
    print("criterion 10: gen-data, sample, and filter artifacts byte-identical")
