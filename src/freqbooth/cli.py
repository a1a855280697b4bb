"""Command-line pipeline driver.

Subcommands: gen-data, train, sample, filter, sweep-lambda, ablate-masks,
gradcheck.  Every run writes a config-echo JSON holding all effective values;
given the same echo, every artifact is byte-identical across runs (reports
keep wall-clock times in a separate non-normative *.timing.json sidecar so
the normative files stay reproducible).

Exit codes: 0 success, 2 usage or validation error (a path that cannot be
read or written included; an --out-dir that cannot be made is found before
any work), 3 missing or unreadable prerequisite state (dataset or
checkpoint), 4 numerical failure.  gradcheck exits 1 when a gradient
comparison fails.

A dataset is read and written as the 8-bit levels its PPM files store,
with no float round trip.  `ablate-masks` trains no control branch for a
band that keeps no coefficient of the model's latent: that band's model
is the stage-1 model and its report row is the `none` row.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .attention import check_identity_scale
from .config import ModelConfig, toy_config
from .dct_freq import MaskKind, build_mask, coverage_gap, make_control_signal
from .diffusion import (PARAM_SETS, check_guidance, forward_noise, init_weights,
                        linear_schedule, predict_eps, project_conditions, sample,
                        sampling_timesteps)
from .netpbm import quantize, read_ppm, read_ppm_raster, write_pfm, write_ppm, write_ppm_raster
from .reference_encoder import build_encoders, decode_latent, encode_latent
from .tensor_core import RngState
from .training import (IMAGE_FIELDS, Dataset, ToyDatasetSpec, TrainConfig, dataset_digest,
                       generate_dataset, gradient_check, identity_metric_flagged,
                       load_checkpoint, save_checkpoint, train, write_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

MASK_CHOICES = tuple(kind.value for kind in MaskKind)
STAGE_STEP_DEFAULTS = {0: 600, 1: 2000, 2: 500}


class PrerequisiteError(RuntimeError):
    """A required dataset or checkpoint is missing or unusable."""


class UsageError(RuntimeError):
    """Flag combination or input file is invalid."""


# ---------------------------------------------------------------------------
# small helpers


def _write_echo(out: Path, command: str, effective: dict) -> None:
    # paths are deliberately absent: the echo captures content, not location
    payload = {"command": command, "version": __version__}
    payload.update(effective)
    write_json(out / f"{command.replace('-', '_')}_config.json", payload)


def _load_image(path) -> np.ndarray:
    try:
        return read_ppm(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read image {path}: {exc}") from None


# what reading or validating a JSON/PPM prerequisite can raise
_UNREADABLE = (OSError, ValueError, LookupError, TypeError, AttributeError)


def _check_out_dir(out: Path) -> None:
    """Usage error unless the nearest existing ancestor of `out` (or `out`
    itself) is a directory, so that `out` can be made; creates nothing."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise UsageError(f"--out-dir {out}: {path} is not a directory")
            return


def _checkpoint_path(out: Path, stage: int, mask: MaskKind | None = None) -> Path:
    """Where `train --stage STAGE [--mask MASK]` saves its checkpoint, and so
    where later commands look for it by default."""
    suffix = f"stage2_{mask.value}" if stage == 2 else f"stage{stage}"
    return out / f"checkpoint_{suffix}.json"


def _load_weights(path, stages: int):
    """The checkpoint at `path`, which must have completed stages 0..stages-1."""
    if not Path(path).is_file():
        raise PrerequisiteError(f"checkpoint {path} not found; run `freqbooth train` first")
    try:
        weights = load_checkpoint(path)
    except _UNREADABLE as exc:
        raise PrerequisiteError(f"checkpoint {path} is unusable: {exc!r}") from None
    missing = [s for s in range(stages) if s not in weights.completed_stages]
    if missing:
        raise PrerequisiteError(f"checkpoint {path} lacks completed stage(s) {missing}")
    return weights


def _keeps_nothing(mask: MaskKind, hw: int) -> bool:
    """Whether band `mask` keeps no DCT coefficient of an hw x hw latent, so
    stage 2 gets all-zero control latents and zero gradients."""
    return not build_mask(mask, hw, hw).any()


def _check_fits(dataset: Dataset, config: ModelConfig) -> None:
    """Usage error unless a model of `config` takes the dataset's image size
    and context classes."""
    spec = dataset.spec
    if spec.image_size != config.image_size:
        raise UsageError(f"the model expects {config.image_size}px images "
                         f"but the dataset is {spec.image_size}px")
    if spec.n_contexts > config.n_text:
        raise UsageError(f"dataset has {spec.n_contexts} context classes but the "
                         f"model supports {config.n_text}")


def image_grid(images: list[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """Tile (3, H, W) images into a contact sheet with 2 white pixels
    around and between the tiles."""
    h, w, pad = images[0].shape[1], images[0].shape[2], 2
    sheet = np.ones((3, rows * (h + pad) + pad, cols * (w + pad) + pad))
    for idx, img in enumerate(images[: rows * cols]):
        r, c = divmod(idx, cols)
        y = pad + r * (h + pad)
        x = pad + c * (w + pad)
        sheet[:, y:y + h, x:x + w] = np.clip(img, 0.0, 1.0)
    return sheet


# ---------------------------------------------------------------------------
# dataset files


def _dataset_files(spec: ToyDatasetSpec):
    """(Dataset level field, file name of each of its images): the one place
    that names dataset files.  The counts follow from the spec, so the index
    lists no file."""
    patterns = ("train_{:04d}.ppm", "test_{:04d}.ppm", "ref_train_{:02d}.ppm",
                "ref_test_{:02d}.ppm")
    counts = (spec.train_size, spec.test_size, spec.n_identities, spec.n_identities)
    for field, pattern, count in zip(IMAGE_FIELDS, patterns, counts):
        yield field, [pattern.format(i) for i in range(count)]


DATASET_SCHEMA = 3


def save_dataset(ddir: Path, dataset: Dataset) -> str:
    """Write the dataset's stored rasters as they are, and its index, under
    `ddir`; returns the checksum the index records, `dataset_checksum(dataset)`,
    one update per split."""
    ddir.mkdir(parents=True, exist_ok=True)
    digest = dataset_digest(dataset.spec, dataset.seed)
    for field, names in _dataset_files(dataset.spec):
        levels = getattr(dataset, field)
        for raster, name in zip(levels, names):
            write_ppm_raster(ddir / name, raster)
        digest.update(levels)
    checksum = digest.hexdigest()
    write_json(ddir / "index.json", {"schema_version": DATASET_SCHEMA,
                                     "spec": asdict(dataset.spec),
                                     "seed": dataset.seed, "checksum": checksum})
    return checksum


def load_dataset(ddir: Path) -> tuple[Dataset, str]:
    """The dataset under `ddir` and its checksum, verified against the index.

    Each file is read once into its split's uint8 raster stack, which is
    hashed and kept as the dataset holds it.  An index of another schema is
    unusable: `gen-data` rebuilds the dataset from the spec and seed it
    records."""
    index_path = Path(ddir) / "index.json"
    if not index_path.is_file():
        raise PrerequisiteError(
            f"no dataset at {ddir}; run `freqbooth gen-data` first"
        )
    try:
        with open(index_path) as fh:
            index = json.load(fh)
        schema = index["schema_version"]
        if schema != DATASET_SCHEMA:
            raise PrerequisiteError(f"dataset index schema {schema!r} unsupported "
                                    f"(expected {DATASET_SCHEMA}); rebuild it with "
                                    f"`freqbooth gen-data`")
        seed = index["seed"]
        # --seed takes any int, negatives too
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise PrerequisiteError(f"dataset at {ddir} has a non-integer seed {seed!r}")
        spec = ToyDatasetSpec(**index["spec"])
        s = spec.image_size
        digest = dataset_digest(spec, seed)
        arrays = {}
        for field, names in _dataset_files(spec):
            levels = np.empty((len(names), s, s, 3), dtype=np.uint8)
            for i, name in enumerate(names):
                # a str path: a Path per file would cost more than parsing it
                raster, maxval = read_ppm_raster(os.path.join(ddir, name))
                if raster.shape != levels.shape[1:] or maxval != 255:
                    raise ValueError(f"{name} is {raster.shape[1]}x{raster.shape[0]} with "
                                     f"maxval {maxval}, expected {s}x{s} with maxval 255")
                levels[i] = raster
            digest.update(levels)
            arrays[field] = levels
        checksum = index["checksum"]
        if digest.hexdigest() != checksum:
            raise PrerequisiteError(f"dataset at {ddir} does not match its index checksum")
    except _UNREADABLE as exc:
        raise PrerequisiteError(f"dataset at {ddir} is unusable: {exc!r}") from None
    return Dataset(spec=spec, seed=seed, **arrays), checksum


def _load_dataset_arg(args, out: Path) -> tuple[Dataset, str]:
    return load_dataset(Path(args.data_dir) if args.data_dir else out / "dataset")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    out = Path(args.out_dir)
    spec = ToyDatasetSpec(n_identities=args.n_identities,
                          n_contexts=args.n_contexts,
                          image_size=args.image_size,
                          train_size=args.train_size,
                          test_size=args.test_size)
    dataset = generate_dataset(spec, args.seed)
    checksum = save_dataset(out / "dataset", dataset)
    _write_echo(out, "gen-data", {"seed": args.seed, "spec": asdict(spec),
                                  "checksum": checksum})
    print(f"wrote {spec.train_size} train + {spec.test_size} test images "
          f"({spec.n_identities} identities) to {out / 'dataset'}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.stage == 1 and args.lam == 0.0:
        raise UsageError("--lambda 0 skips the identity cross term, so stage 1 would "
                         "train nothing")
    out = Path(args.out_dir)
    dataset, checksum = _load_dataset_arg(args, out)
    stage = args.stage
    mask = MaskKind(args.mask) if args.mask else None
    if stage == 2 and mask is None:
        raise UsageError(f"--stage 2 requires --mask {{{','.join(MASK_CHOICES)}}}")
    if stage != 2 and mask is not None:
        raise UsageError("--mask only applies to --stage 2")

    if stage == 0 and args.checkpoint:
        raise UsageError("--checkpoint does not apply to --stage 0, "
                         "which initialises from --seed")

    if stage == 0:
        weights = init_weights(toy_config(), args.seed)
        source_checksums = None
    else:
        weights = _load_weights(args.checkpoint or _checkpoint_path(out, stage - 1), stage)
        source_checksums = {s: weights.checksum(s) for s in PARAM_SETS}
    _check_fits(dataset, weights.config)
    hw = weights.config.latent_hw
    if mask is not None and _keeps_nothing(mask, hw):
        raise UsageError(f"--mask {mask.value} keeps no DCT coefficient of the "
                         f"{hw}x{hw} latent, so stage 2 would train nothing")

    steps = args.steps if args.steps is not None else STAGE_STEP_DEFAULTS[stage]
    # stages 0 and 2 run without the identity branch, so they record lambda 0
    config = TrainConfig(stage=stage, steps=steps, lr=args.lr, seed=args.seed,
                         identity_scale=args.lam if stage == 1 else 0.0, mask_kind=mask)
    report = train(config, dataset, weights)

    ckpt_path = _checkpoint_path(out, stage, mask)
    report_path = ckpt_path.with_name(ckpt_path.name.replace("checkpoint", "train_report"))
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(ckpt_path, weights)
    write_json(report_path, report.to_dict())
    write_json(report_path.with_suffix(".timing.json"), {"wall_clock_s": report.wall_clock_s})
    _write_echo(out, "train", {
        "train_config": asdict(config),
        "dataset_checksum": checksum,
        "source_checkpoint_checksums": source_checksums,
    })
    drop = (1.0 - report.final_smoothed / report.initial_smoothed) * 100 \
        if report.initial_smoothed else 0.0
    print(f"stage {stage}: {steps} steps, smoothed loss "
          f"{report.initial_smoothed:.4f} -> {report.final_smoothed:.4f} "
          f"({drop:+.1f}% drop); checkpoint {ckpt_path.name}")
    return EXIT_OK


def cmd_sample(args) -> int:
    out = Path(args.out_dir)
    mask = None if args.mask == "none" else MaskKind(args.mask)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if mask is not None and not args.ref:
        raise UsageError("--mask needs --ref to derive the control signal from")
    stage = 1 if mask is None else 2
    weights = _load_weights(args.checkpoint or _checkpoint_path(out, stage, mask), stage + 1)
    ref = _load_image(args.ref) if args.ref else None
    size = weights.config.image_size
    if ref is not None and ref.shape != (3, size, size):
        raise UsageError(
            f"reference is {ref.shape[2]}x{ref.shape[1]}px but the model expects "
            f"{size}x{size}px"
        )
    enc = build_encoders(weights.config)
    schedule = linear_schedule(weights.config.timesteps)

    # every image is drawn before any is written, so a numerical failure
    # (exit 4) leaves nothing on disk
    images = []
    for i in range(args.n):
        rng = RngState(args.seed).derive(("sample", i))
        img, _ = sample(weights, enc, schedule, rng, ref_img=ref,
                        text_id=args.text_id, mask_kind=mask,
                        steps=args.steps, guidance=args.guidance,
                        identity_scale=args.lam)
        images.append(quantize(img))
    rows = []
    out.mkdir(parents=True, exist_ok=True)
    for i, quant in enumerate(images):
        name = f"sample_{i:03d}.ppm"
        write_ppm(out / name, quant)
        row = {"file": name, "index": i, "seed": args.seed}
        if ref is not None:
            metric, degenerate = identity_metric_flagged(quant, ref)
            row["identity_metric"] = metric
            row["degenerate"] = degenerate
        rows.append(row)

    ref_independent = args.lam == 0.0 and mask is None
    effective = {"seed": args.seed, "n": args.n, "lambda": args.lam,
                 "guidance": args.guidance, "steps": args.steps,
                 "text_id": args.text_id,
                 "mask": "none" if mask is None else mask.value,
                 "ref_independent": ref_independent}
    write_json(out / "sample_meta.json",
               {"samples": rows, "ref_independent": ref_independent,
                "config": effective})
    _write_echo(out, "sample", effective)
    print(f"wrote {args.n} sample(s) to {out} "
          f"(lambda={args.lam}, guidance={args.guidance}, mask={effective['mask']})")
    return EXIT_OK


def cmd_filter(args) -> int:
    out = Path(args.out_dir)
    mask = MaskKind(args.mask)
    img = _load_image(args.input)
    _, h, w = img.shape
    if h != w:
        raise UsageError(f"filter expects a square image, got {w}x{h}")
    enc = build_encoders(toy_config(image_size=h))
    latent = encode_latent(img, enc)
    ctrl = make_control_signal(latent, mask)
    filtered = decode_latent(ctrl, enc)

    target = out / f"filtered_{mask.value}.ppm"
    out.mkdir(parents=True, exist_ok=True)
    write_ppm(target, filtered)
    write_pfm(target.with_suffix(".pfm"), filtered)

    lh = latent.shape[1]
    gap = coverage_gap(lh, latent.shape[2])
    meta = {
        "mask": mask.value,
        "mask_ones": int(build_mask(mask, lh, latent.shape[2]).sum()),
        "coverage_gap_coefficients": len(gap),
        "output_mean_per_channel": [float(m) for m in filtered.mean(axis=(1, 2))],
        "output_variance": float(filtered.var()),
        "output_files": [target.name, target.with_suffix(".pfm").name],
    }
    write_json(target.with_suffix(".meta.json"), meta)
    _write_echo(out, "filter", {"mask": mask.value, "image_size": h})
    print(f"filtered ({mask.value}) -> {target} "
          f"[variance {meta['output_variance']:.6f}]")
    return EXIT_OK


def cmd_sweep_lambda(args) -> int:
    out = Path(args.out_dir)
    try:
        values = [check_identity_scale(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad --values {args.values!r}: {exc}") from None
    if not values:
        raise UsageError("--values must list at least one lambda")
    if len(set(values)) < len(values):
        raise UsageError(f"--values {args.values!r} lists a lambda twice")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    weights = _load_weights(args.checkpoint or _checkpoint_path(out, 1), 2)
    dataset, _ = _load_dataset_arg(args, out)
    _check_fits(dataset, weights.config)
    enc = build_encoders(weights.config)
    schedule = linear_schedule(weights.config.timesteps)
    n_id = dataset.spec.n_identities

    rows = []
    sheet_cols = min(args.trials, 8)
    sheet_images = []
    for lam in values:
        metrics = []
        for trial in range(args.trials):
            rng = RngState(args.seed).derive(("sweep", trial))  # paired across lambdas
            ref = dataset.test_refs[trial % n_id]
            img, _ = sample(weights, enc, schedule, rng, ref_img=ref,
                            text_id=0, mask_kind=None, steps=args.steps,
                            guidance=args.guidance, identity_scale=lam)
            quant = quantize(img)
            metric, degenerate = identity_metric_flagged(quant, ref)
            rows.append({"lambda": lam, "trial": trial,
                         "identity": trial % n_id, "identity_metric": metric,
                         "degenerate": degenerate})
            metrics.append(metric)
            if trial < sheet_cols:
                sheet_images.append(quant)
        print(f"lambda={lam}: mean identity metric "
              f"{float(np.mean(metrics)):.4f} over {args.trials} trials")

    by_value = {}
    base = values[0]
    base_metrics = [r["identity_metric"] for r in rows if r["lambda"] == base]
    for lam in values:
        ms = [r["identity_metric"] for r in rows if r["lambda"] == lam]
        wins = sum(1 for a, b in zip(ms, base_metrics) if a > b)
        by_value[str(lam)] = {"mean": float(np.mean(ms)),
                              "std": float(np.std(ms)),
                              "wins_vs_first": wins,
                              "win_rate_vs_first": wins / args.trials}
    report = {"values": values, "trials": args.trials, "rows": rows,
              "aggregate": by_value, "baseline": base}
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "sweep_report.json", report)
    sheet = image_grid(sheet_images, rows=len(values), cols=sheet_cols)
    write_ppm(out / "sweep_sheet.ppm", sheet)
    _write_echo(out, "sweep-lambda", {"seed": args.seed, "values": values,
                                      "trials": args.trials, "steps": args.steps,
                                      "guidance": args.guidance})
    return EXIT_OK


def cmd_ablate_masks(args) -> int:
    # before any stage-2 checkpoint is trained
    check_identity_scale(args.lam)
    check_guidance(args.guidance)
    for flag, value in (("--eval-size", args.eval_size), ("--eval-samples", args.eval_samples)):
        if value < 1:
            raise UsageError(f"{flag} must be >= 1, got {value}")
    out = Path(args.out_dir)
    dataset, checksum = _load_dataset_arg(args, out)
    stage1_path = args.checkpoint or _checkpoint_path(out, 1)
    stage1 = _load_weights(stage1_path, 2)
    _check_fits(dataset, stage1.config)
    enc = build_encoders(stage1.config)
    schedule = linear_schedule(stage1.config.timesteps)
    sampling_timesteps(schedule.timesteps, args.steps)  # sample's check of --steps

    masked_kinds = [MaskKind.MINI, MaskKind.LOW, MaskKind.MID, MaskKind.HIGH]
    models = {"none": stage1}
    # every row compares against the same stage-1 model, so each found
    # checkpoint is checked before any missing one is trained
    for kind in masked_kinds:
        path = _checkpoint_path(out, 2, kind)
        if path.is_file():
            models[kind.value] = found = _load_weights(path, 3)
            for s in ("backbone", "identity_adapter"):
                if found.checksum(s) != stage1.checksum(s):
                    raise PrerequisiteError(f"checkpoint {path} has another {s} than "
                                            f"{stage1_path}; delete it to retrain it")
    # a band that keeps no coefficient of the latent feeds stage 2 zero
    # control latents, so its gradients are zero and Adam leaves the weights
    # as they are: its model is stage 1's and its row is the `none` row
    hw = stage1.config.latent_hw
    empty = {k.value for k in masked_kinds if _keeps_nothing(k, hw)}
    for kind in [k for k in masked_kinds if k.value not in models]:
        weights = copy.deepcopy(stage1)
        if kind.value in empty:
            weights.completed_stages.append(2)
            note = (f"mask {kind.value} keeps no coefficient of the {hw}x{hw} latent: "
                    f"saved the stage-1 weights as its control checkpoint")
        else:
            config = TrainConfig(stage=2, steps=args.train_steps, seed=args.seed,
                                 identity_scale=0.0, mask_kind=kind)
            train(config, dataset, weights, schedule=schedule, enc=enc)
            note = f"trained missing control checkpoint for mask {kind.value}"
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(_checkpoint_path(out, 2, kind), weights)
        models[kind.value] = weights
        print(note)

    # held-out denoising pairs, identical across masks
    eval_rng = RngState(args.seed).derive("ablate-eval")
    n_eval = min(args.eval_size, dataset.spec.test_size)
    held_out = dataset.test_sample(np.arange(n_eval))
    z0 = encode_latent(held_out.image, enc)
    ts, eps = [], []
    for _ in range(n_eval):
        ts.append(1 + eval_rng.randint(schedule.timesteps))
        eps.append(eval_rng.normal(z0.shape[1:]))
    eps = np.stack(eps)
    z_t = forward_noise(z0, ts, eps, schedule)
    texts = held_out.text_id.tolist()

    def evaluate(weights, kind: MaskKind | None) -> tuple[float, float]:
        """(recon loss over the held-out pairs, mean identity metric of the samples)."""
        ctrl = None if kind is None else (range(n_eval), make_control_signal(z0, kind))
        pred = predict_eps(weights, z_t, ts, project_conditions(weights, texts, ctrl=ctrl))
        losses = [float(np.mean((p - e) ** 2)) for p, e in zip(pred, eps)]
        metrics = []
        for j in range(args.eval_samples):
            rng = RngState(args.seed).derive(("ablate-sample", j))
            ref = dataset.test_refs[j % dataset.spec.n_identities]
            img, _ = sample(weights, enc, schedule, rng, ref_img=ref, text_id=0,
                            mask_kind=kind, steps=args.steps,
                            guidance=args.guidance, identity_scale=args.lam)
            metrics.append(identity_metric_flagged(quantize(img), ref)[0])
        return float(np.mean(losses)), float(np.mean(metrics))

    rows = []
    for name in ["none"] + [k.value for k in masked_kinds]:
        if name in empty:
            recon, metric = rows[0]["recon_loss"], rows[0]["identity_metric"]
        else:
            recon, metric = evaluate(models[name], None if name == "none" else MaskKind(name))
        rows.append({"mask": name, "recon_loss": recon, "identity_metric": metric})
        print(f"mask={name:5s} recon_loss={recon:.5f} identity_metric={metric:.4f}")

    # rank by reconstruction loss; ties keep configuration order
    ranked = sorted(range(len(rows)), key=lambda i: (rows[i]["recon_loss"], i))
    for rank, idx in enumerate(ranked, start=1):
        rows[idx]["rank"] = rank
    report = {"rows": rows, "ranking": [rows[i]["mask"] for i in ranked],
              "eval_size": n_eval, "eval_samples": args.eval_samples}
    # out exists: each mask checkpoint was either found in it or saved to it
    write_json(out / "ablate_report.json", report)
    _write_echo(out, "ablate-masks", {
        "seed": args.seed, "train_steps": args.train_steps,
        "eval_size": n_eval, "eval_samples": args.eval_samples,
        "steps": args.steps, "guidance": args.guidance, "lambda": args.lam,
        "dataset_checksum": checksum})
    print(f"ranking (best reconstruction first): {', '.join(report['ranking'])}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    out = Path(args.out_dir)
    stages = [args.stage] if args.stage is not None else [0, 1, 2]
    results = []
    ok = True
    for stage in stages:
        res = gradient_check(stage, seed=args.seed)
        results.append(res)
        ok = ok and res["pass"]
        status = "pass" if res["pass"] else "FAIL"
        print(f"stage {stage} [{res['trainable_set']}]: "
              f"max rel err {res['max_rel_err']:.3e} ({status})")
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "gradcheck_report.json", {"results": results, "pass": ok})
    _write_echo(out, "gradcheck", {"seed": args.seed, "stages": stages})
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default="freqbooth_out", help="artifact directory")
    # only the subcommands that read a checkpoint take --checkpoint
    with_ckpt = argparse.ArgumentParser(add_help=False, parents=[common])
    with_ckpt.add_argument("--checkpoint", default=None,
                           help="explicit checkpoint path (default: by stage under --out-dir)")

    parser = argparse.ArgumentParser(prog="freqbooth",
                                     description="dual-branch toy diffusion pipeline")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", parents=[common],
                       help="generate the procedural identity dataset")
    p.add_argument("--n-identities", type=int, default=16)
    p.add_argument("--n-contexts", type=int, default=4)
    p.add_argument("--image-size", type=int, default=32)
    p.add_argument("--train-size", type=int, default=512)
    p.add_argument("--test-size", type=int, default=64)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[with_ckpt], help="run one training stage")
    p.add_argument("--stage", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--steps", type=int, default=None,
                   help=f"optimizer steps (defaults: {STAGE_STEP_DEFAULTS})")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--mask", choices=MASK_CHOICES, default=None,
                   help="control band (stage 2 only)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="identity strength used in stage-1 batches "
                        "(training default 1.0; generation defaults to 0.4)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[with_ckpt], help="generate images")
    p.add_argument("--ref", default=None, help="reference image (PPM)")
    p.add_argument("--text-id", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.4)
    p.add_argument("--guidance", type=float, default=3.0)
    p.add_argument("--mask", choices=(*MASK_CHOICES, "none"), default="none")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("filter", parents=[common],
                       help="band-filter an image through the latent spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--mask", required=True, choices=MASK_CHOICES)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("sweep-lambda", parents=[with_ckpt],
                       help="identity metric across lambda values")
    p.add_argument("--values", default="0,0.4,1.0")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--guidance", type=float, default=3.0)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("ablate-masks", parents=[with_ckpt],
                       help="compare control bands on the held-out split")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--train-steps", type=int, default=500,
                   help="stage-2 steps when a mask checkpoint is missing")
    p.add_argument("--eval-size", type=int, default=32,
                   help="held-out samples for reconstruction loss")
    p.add_argument("--eval-samples", type=int, default=4,
                   help="sampled images per mask for the identity metric")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--guidance", type=float, default=3.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.4)
    p.set_defaults(func=cmd_ablate_masks)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="finite-difference check of the stage gradients")
    p.add_argument("--stage", type=int, choices=(0, 1, 2), default=None)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if getattr(args, "command", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        _check_out_dir(Path(args.out_dir))
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrerequisiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
