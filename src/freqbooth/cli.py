"""Command-line pipeline driver.

Subcommands: gen-data, train, sample, filter, sweep-lambda, ablate-masks,
gradcheck.  Every run writes a config-echo JSON holding all effective values;
given the same echo, every artifact is byte-identical across runs (reports
keep wall-clock times in a separate non-normative *.timing.json sidecar so
the normative files stay reproducible).

Exit codes: 0 success, 2 usage or validation error (a path that cannot be
read or written, and a size that cannot be allocated, included; an
--out-dir that cannot be made is found before any work), 3 missing or
unreadable prerequisite state (dataset or checkpoint, a size in it that
cannot be allocated included), 4 numerical failure.  gradcheck exits 1 when a gradient
comparison fails.  `train` and `ablate-masks` build their `TrainConfig`s
first, so a stage's bad mask, lambda, step count or learning rate exits 2
before any file is read.

`sample`, `sweep-lambda` and `ablate-masks` take their sampling `--steps`
and `--guidance` from one parent parser and check them, and `--lambda`,
before any file is read.  They only load, call the library's evaluations
(`training.draw_trials`, `paired_sweep` and `held_out_losses`) and write
the reports.

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
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .attention import check_identity_scale
from .config import check_int, toy_config
from .dct_freq import MaskKind, build_mask, coverage_gap, keeps_nothing, make_control_signal
from .diffusion import PARAM_SETS, check_guidance, check_text_id, init_weights, linear_schedule
from .netpbm import read_ppm, read_ppm_raster, write_pfm, write_ppm, write_ppm_raster
from .reference_encoder import build_encoders, decode_latent, encode_latent
from .training import (IMAGE_FIELDS, SPEC_BOUNDS, STAGE_SETS, Dataset, ToyDatasetSpec,
                       TrainConfig, check_fits, dataset_checksum, draw_trials,
                       generate_dataset, gradient_check, held_out_losses, load_checkpoint,
                       paired_sweep, save_checkpoint, train, write_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

MASK_CHOICES = tuple(kind.value for kind in MaskKind)
STAGE_STEP_DEFAULTS = {0: 600, 1: 2000, 2: 500}
SAMPLE_LAMBDA = 0.4  # the identity strength `sample` and `ablate-masks` draw at


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
_UNREADABLE = (OSError, ValueError, LookupError, TypeError, AttributeError, MemoryError)


def _unusable(what: str, exc: Exception) -> PrerequisiteError:
    """The error for a prerequisite that `exc` made unusable, naming `exc` by
    its repr, or a MemoryError by numpy's own text ("Unable to allocate ...
    for an array with shape ..."), which its repr leaves out."""
    reason = str(exc) if isinstance(exc, MemoryError) and str(exc) else repr(exc)
    return PrerequisiteError(f"{what} is unusable: {reason}")


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
    """(weights, frozen encoders, noise schedule) of the checkpoint at `path`,
    which must have completed stages 0..stages-1.  The encoders and the
    schedule are built from its config here, so a config whose schedule
    cannot be allocated names the checkpoint and exits 3."""
    if not Path(path).is_file():
        raise PrerequisiteError(f"checkpoint {path} not found; run `freqbooth train` first")
    try:
        weights = load_checkpoint(path)
        built = build_encoders(weights.config), linear_schedule(weights.config.timesteps)
    except _UNREADABLE as exc:
        raise _unusable(f"checkpoint {path}", exc) from None
    missing = [s for s in range(stages) if s not in weights.completed_stages]
    if missing:
        raise PrerequisiteError(f"checkpoint {path} lacks completed stage(s) {missing}")
    return (weights, *built)


def image_grid(images: list[np.ndarray], rows: int, cols: int) -> np.ndarray:
    """Tile (3, H, W) images into a contact sheet with 2 white pixels
    around and between the tiles."""
    h, w, pad = images[0].shape[1], images[0].shape[2], 2
    sheet = np.ones((3, rows * (h + pad) + pad, cols * (w + pad) + pad))
    for idx, img in enumerate(images[: rows * cols]):
        r, c = divmod(idx, cols)
        y = pad + r * (h + pad)
        x = pad + c * (w + pad)
        sheet[:, y:y + h, x:x + w] = img
    return sheet


def _check_sampling(args) -> None:
    """An error that exits 2 unless `--steps` is an integer >= 1,
    `--guidance` is finite and >= 0 and, where the command takes one,
    `--lambda` is in [0, 1]."""
    check_int(args.steps, "--steps", 1)
    checks = [("--guidance", check_guidance, args.guidance)]
    if hasattr(args, "lam"):
        checks.append(("--lambda", check_identity_scale, args.lam))
    for flag, check, value in checks:
        try:
            check(value)
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None


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
    `ddir`; returns the checksum the index records, `dataset_checksum(dataset)`."""
    ddir.mkdir(parents=True, exist_ok=True)
    for field, names in _dataset_files(dataset.spec):
        for raster, name in zip(getattr(dataset, field), names):
            write_ppm_raster(ddir / name, raster)
    checksum = dataset_checksum(dataset)
    write_json(ddir / "index.json", {"schema_version": DATASET_SCHEMA,
                                     "spec": asdict(dataset.spec),
                                     "seed": dataset.seed, "checksum": checksum})
    return checksum


def load_dataset(ddir: Path) -> tuple[Dataset, str]:
    """The dataset under `ddir` and its checksum, verified against the index.

    Each file is read once into its split's uint8 raster stack, kept as the
    dataset holds it and hashed by `dataset_checksum`.  An index of another
    schema is unusable: `gen-data` rebuilds the dataset from the spec and
    seed it records."""
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
        seed = check_int(index["seed"], "seed")  # --seed takes any int, negatives too
        spec = ToyDatasetSpec(**index["spec"])
        s = spec.image_size
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
            arrays[field] = levels
        dataset = Dataset(spec=spec, seed=seed, **arrays)
        checksum = index["checksum"]
        if dataset_checksum(dataset) != checksum:
            raise PrerequisiteError(f"dataset at {ddir} does not match its index checksum")
    except _UNREADABLE as exc:
        raise _unusable(f"dataset at {ddir}", exc) from None
    return dataset, checksum


def _load_dataset_arg(args, out: Path) -> tuple[Dataset, str]:
    return load_dataset(Path(args.data_dir) if args.data_dir else out / "dataset")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    out = Path(args.out_dir)
    values = {f.name: getattr(args, f.name) for f in fields(ToyDatasetSpec)}
    for name, value in values.items():
        try:
            check_int(value, name, *SPEC_BOUNDS[name])
        except ValueError as exc:
            raise UsageError(f"--{name.replace('_', '-')}: {exc}") from None
    spec = ToyDatasetSpec(**values)
    dataset = generate_dataset(spec, args.seed)
    checksum = save_dataset(out / "dataset", dataset)
    _write_echo(out, "gen-data", {"seed": args.seed, "spec": asdict(spec),
                                  "checksum": checksum})
    print(f"wrote {spec.train_size} train + {spec.test_size} test images "
          f"({spec.n_identities} identities) to {out / 'dataset'}")
    return EXIT_OK


def cmd_train(args) -> int:
    stage = args.stage
    if stage == 0 and args.checkpoint:
        raise UsageError("--checkpoint does not apply to --stage 0, "
                         "which initialises from --seed")
    steps = args.steps if args.steps is not None else STAGE_STEP_DEFAULTS[stage]
    # TrainConfig checks the stage's mask and lambda before any file is read
    config = TrainConfig(stage=stage, steps=steps, lr=args.lr, seed=args.seed,
                         identity_scale=args.lam,
                         mask_kind=MaskKind(args.mask) if args.mask else None)
    mask = config.mask_kind
    out = Path(args.out_dir)
    dataset, checksum = _load_dataset_arg(args, out)
    if stage == 0:
        weights, enc, schedule = init_weights(toy_config(), args.seed), None, None
        source_checksums = None
    else:
        weights, enc, schedule = _load_weights(args.checkpoint or _checkpoint_path(out, stage - 1),
                                               stage)
        source_checksums = {s: weights.checksum(s) for s in PARAM_SETS}

    # train rejects a dataset the model does not fit, and a band that keeps no
    # coefficient of the latent, before any work
    report = train(config, dataset, weights, schedule, enc)

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
    _check_sampling(args)
    out = Path(args.out_dir)
    mask = None if args.mask == "none" else MaskKind(args.mask)
    check_int(args.n, "--n", 1)
    if mask is not None and not args.ref:
        raise UsageError("--mask needs --ref to derive the control signal from")
    stage = 1 if mask is None else 2
    weights, enc, schedule = _load_weights(args.checkpoint or _checkpoint_path(out, stage, mask),
                                           stage + 1)
    try:
        check_text_id(args.text_id, weights.config.n_text)
    except ValueError as exc:
        raise UsageError(f"--text-id: {exc}") from None
    ref = _load_image(args.ref) if args.ref else None
    size = weights.config.image_size
    if ref is not None and ref.shape != (3, size, size):
        raise UsageError(
            f"reference is {ref.shape[2]}x{ref.shape[1]}px but the model expects "
            f"{size}x{size}px"
        )
    drawn = draw_trials(
        weights, enc, schedule, args.seed, args.steps, args.guidance,
        [(("sample", i), ref, args.text_id, mask, args.lam) for i in range(args.n)])
    rows = []
    out.mkdir(parents=True, exist_ok=True)
    for i, (quant, metric, degenerate) in enumerate(drawn):
        name = f"sample_{i:03d}.ppm"
        write_ppm(out / name, quant)
        row = {"file": name, "index": i, "seed": args.seed}
        if ref is not None:
            row.update(identity_metric=metric, degenerate=degenerate)
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
    _check_sampling(args)
    out = Path(args.out_dir)
    try:
        values = [check_identity_scale(float(v)) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad --values {args.values!r}: {exc}") from None
    if not values:
        raise UsageError("--values must list at least one lambda")
    if len(set(values)) < len(values):
        raise UsageError(f"--values {args.values!r} lists a lambda twice")
    check_int(args.trials, "--trials", 1)
    weights, enc, schedule = _load_weights(args.checkpoint or _checkpoint_path(out, 1), 2)
    dataset, _ = _load_dataset_arg(args, out)
    drawn, aggregate = paired_sweep(weights, enc, schedule, dataset, values, args.trials,
                                    args.seed, args.steps, args.guidance)

    rows, sheet_images = [], []
    n_id, sheet_cols = dataset.spec.n_identities, min(args.trials, 8)
    for lam, own in zip(values, drawn):
        rows += [{"lambda": lam, "trial": t, "identity": t % n_id, "identity_metric": metric,
                  "degenerate": degenerate} for t, (_, metric, degenerate) in enumerate(own)]
        sheet_images += [quant for quant, _, _ in own[:sheet_cols]]
        print(f"lambda={lam}: mean identity metric "
              f"{aggregate[str(lam)]['mean']:.4f} over {args.trials} trials")
    report = {"values": values, "trials": args.trials, "rows": rows,
              "aggregate": aggregate, "baseline": values[0]}
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "sweep_report.json", report)
    sheet = image_grid(sheet_images, rows=len(values), cols=sheet_cols)
    write_ppm(out / "sweep_sheet.ppm", sheet)
    _write_echo(out, "sweep-lambda", {"seed": args.seed, "values": values,
                                      "trials": args.trials, "steps": args.steps,
                                      "guidance": args.guidance})
    return EXIT_OK


def cmd_ablate_masks(args) -> int:
    masked_kinds = [MaskKind.MINI, MaskKind.LOW, MaskKind.MID, MaskKind.HIGH]
    # every flag is checked before anything is read
    try:
        configs = {kind: TrainConfig(stage=2, steps=args.train_steps, seed=args.seed,
                                     mask_kind=kind) for kind in masked_kinds}
    except ValueError as exc:
        raise UsageError(f"--train-steps {args.train_steps}: {exc}") from None
    _check_sampling(args)
    check_int(args.eval_size, "--eval-size", 1)
    check_int(args.eval_samples, "--eval-samples", 1)
    out = Path(args.out_dir)
    dataset, checksum = _load_dataset_arg(args, out)
    stage1_path = args.checkpoint or _checkpoint_path(out, 1)
    stage1, enc, schedule = _load_weights(stage1_path, 2)
    check_fits(dataset, stage1.config)

    models = {"none": stage1}
    # every row compares against the same stage-1 model, so a found checkpoint
    # may differ from it only in stage 2's set; each is checked before any training
    for kind in masked_kinds:
        path = _checkpoint_path(out, 2, kind)
        if path.is_file():
            models[kind.value] = found = _load_weights(path, 3)[0]
            for s in [name for name in PARAM_SETS if name != STAGE_SETS[2]]:
                if found.checksum(s) != stage1.checksum(s):
                    raise PrerequisiteError(f"checkpoint {path} has another {s} than "
                                            f"{stage1_path}; delete it to retrain it")
    # a band that keeps no coefficient of the latent feeds stage 2 zero
    # control latents, so its gradients are zero and Adam leaves the weights
    # as they are: its model is stage 1's and its row is the `none` row
    hw = stage1.config.latent_hw
    empty = {k.value for k in masked_kinds if keeps_nothing(k, hw, hw)}
    for kind in [k for k in masked_kinds if k.value not in models]:
        weights = copy.deepcopy(stage1)
        if kind.value in empty:
            weights.completed_stages.append(2)
            note = (f"mask {kind.value} keeps no coefficient of the {hw}x{hw} latent: "
                    f"saved the stage-1 weights as its control checkpoint")
        else:
            train(configs[kind], dataset, weights, schedule=schedule, enc=enc)
            note = f"trained missing control checkpoint for mask {kind.value}"
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(_checkpoint_path(out, 2, kind), weights)
        models[kind.value] = weights
        print(note)

    # every model is scored on the same held-out pairs and sample streams
    n_id = dataset.spec.n_identities
    n_eval = min(args.eval_size, dataset.spec.test_size)
    rows = []
    for kind in [None, *masked_kinds]:
        name = "none" if kind is None else kind.value
        if name in empty:
            recon, metric = rows[0]["recon_loss"], rows[0]["identity_metric"]
        else:
            weights = models[name]
            losses = held_out_losses(weights, enc, schedule, dataset, n_eval, args.seed, kind)
            drawn = draw_trials(weights, enc, schedule, args.seed, args.steps, args.guidance, [
                (("ablate-sample", j), dataset.test_refs[j % n_id], 0, kind, args.lam)
                for j in range(args.eval_samples)])
            recon = float(np.mean([loss for _, loss in losses]))
            metric = float(np.mean([m for _, m, _ in drawn]))
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
    # the commands that draw guided samples; `train --steps` counts optimizer steps
    sampling = argparse.ArgumentParser(add_help=False, parents=[with_ckpt])
    sampling.add_argument("--steps", type=int, default=20, help="DDIM sampling steps")
    sampling.add_argument("--guidance", type=float, default=3.0)

    parser = argparse.ArgumentParser(prog="freqbooth",
                                     description="dual-branch toy diffusion pipeline")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen-data", parents=[common],
                       help="generate the procedural identity dataset")
    for f in fields(ToyDatasetSpec):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=int, default=f.default)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", parents=[with_ckpt], help="run one training stage")
    p.add_argument("--stage", type=int, choices=(0, 1, 2), required=True)
    p.add_argument("--steps", type=int, default=None,
                   help=f"optimizer steps (defaults: {STAGE_STEP_DEFAULTS})")
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--mask", choices=MASK_CHOICES, default=None,
                   help="control band (stage 2 only)")
    p.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.identity_scale,
                   help="identity strength used in stage-1 batches (training default "
                        f"%(default)s; generation defaults to {SAMPLE_LAMBDA})")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[sampling], help="generate images")
    p.add_argument("--ref", default=None, help="reference image (PPM)")
    p.add_argument("--text-id", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=SAMPLE_LAMBDA)
    p.add_argument("--mask", choices=(*MASK_CHOICES, "none"), default="none")
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("filter", parents=[common],
                       help="band-filter an image through the latent spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--mask", required=True, choices=MASK_CHOICES)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("sweep-lambda", parents=[sampling],
                       help="identity metric across lambda values")
    p.add_argument("--values", default="0,0.4,1.0")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--data-dir", default=None)
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("ablate-masks", parents=[sampling],
                       help="compare control bands on the held-out split")
    p.add_argument("--data-dir", default=None)
    p.add_argument("--train-steps", type=int, default=STAGE_STEP_DEFAULTS[2],
                   help="stage-2 steps when a mask checkpoint is missing")
    p.add_argument("--eval-size", type=int, default=32,
                   help="held-out samples for reconstruction loss")
    p.add_argument("--eval-samples", type=int, default=4,
                   help="sampled images per mask for the identity metric")
    p.add_argument("--lambda", dest="lam", type=float, default=SAMPLE_LAMBDA)
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
    except (UsageError, ValueError, OSError, MemoryError) as exc:
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
