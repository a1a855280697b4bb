"""Command-line pipeline driver.

Subcommands: gen-data, train, sample, filter, sweep-lambda, ablate-masks,
gradcheck.  Every run writes a config-echo JSON holding all effective values;
given the same echo, every artifact is byte-identical across runs (reports
keep wall-clock times in a separate non-normative *.timing.json sidecar so
the normative files stay reproducible).

Exit codes: 0 success, 2 usage or validation error, 3 missing or unreadable
prerequisite state (dataset or checkpoint), 4 numerical failure.  gradcheck
exits 1 when a gradient comparison fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .attention import check_identity_scale
from .config import toy_config
from .dct_freq import MaskKind, build_mask, coverage_gap, make_control_signal
from .diffusion import (PARAM_SETS, forward_noise, init_weights,
                        linear_schedule, predict_eps, sample)
from .netpbm import quantize, read_ppm, write_pfm, write_ppm
from .reference_encoder import build_encoders, decode_latent, encode_latent
from .tensor_core import RngState
from .training import (Dataset, StageOrderError, ToyDatasetSpec, TrainConfig,
                       dataset_checksum, generate_dataset, gradient_check,
                       identity_metric_flagged, load_checkpoint,
                       save_checkpoint, train, write_json)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING = 3
EXIT_NUMERIC = 4

MASK_CHOICES = ("mini", "low", "mid", "high", "all", "none")
STAGE_STEP_DEFAULTS = {0: 600, 1: 2000, 2: 500}


class PrerequisiteError(RuntimeError):
    """A required dataset or checkpoint is missing or unusable."""


class UsageError(RuntimeError):
    """Flag combination or input file is invalid."""


# ---------------------------------------------------------------------------
# small helpers


def _out_dir(args) -> Path:
    target = os.environ.get("FREQBOOTH_OUT") or args.out_dir
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_echo(out: Path, command: str, effective: dict) -> None:
    # paths are deliberately absent: the echo captures content, not location
    payload = {"command": command, "version": __version__}
    payload.update(effective)
    write_json(out / f"{command.replace('-', '_')}_config.json", payload)


def _parse_mask(text: str) -> MaskKind | None:
    if text == "none":
        return None
    try:
        return MaskKind(text)
    except ValueError:
        raise UsageError(f"unknown mask kind {text!r}") from None


def _load_image(path) -> np.ndarray:
    try:
        return read_ppm(path)
    except FileNotFoundError:
        raise UsageError(f"cannot read image {path}: no such file") from None
    except ValueError as exc:
        raise UsageError(f"cannot read image {path}: {exc}") from None


# what reading or validating a JSON/PPM prerequisite can raise
_UNREADABLE = (OSError, ValueError, LookupError, TypeError, AttributeError)


def _load_weights(path: Path):
    if not Path(path).is_file():
        raise PrerequisiteError(f"checkpoint {path} not found; run `freqbooth train` first")
    try:
        return load_checkpoint(path)
    except _UNREADABLE as exc:
        raise PrerequisiteError(f"checkpoint {path} is unusable: {exc!r}") from None


def _require_stages(weights, needed: list[int], path) -> None:
    missing = [s for s in needed if s not in weights.completed_stages]
    if missing:
        raise PrerequisiteError(
            f"checkpoint {path} lacks completed stage(s) {missing}"
        )


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


def save_dataset(ddir: Path, dataset: Dataset) -> dict:
    ddir.mkdir(parents=True, exist_ok=True)
    index = {
        "schema_version": 1,
        "spec": dataset.spec.to_dict(),
        "seed": dataset.seed,
        "checksum": dataset_checksum(dataset),
        "train": [], "test": [], "train_refs": [], "test_refs": [],
    }
    for i in range(dataset.spec.train_size):
        name = f"train_{i:04d}.ppm"
        write_ppm(ddir / name, dataset.train_images[i])
        index["train"].append({"file": name,
                               "identity": int(dataset.train_identity[i]),
                               "text": int(dataset.train_text[i])})
    for i in range(dataset.spec.test_size):
        name = f"test_{i:04d}.ppm"
        write_ppm(ddir / name, dataset.test_images[i])
        index["test"].append({"file": name,
                              "identity": int(dataset.test_identity[i]),
                              "text": int(dataset.test_text[i])})
    for i in range(dataset.spec.n_identities):
        for kind, refs in (("train_refs", dataset.train_refs),
                           ("test_refs", dataset.test_refs)):
            name = f"ref_{kind[:-5]}_{i:02d}.ppm"
            write_ppm(ddir / name, refs[i])
            index[kind].append(name)
    write_json(ddir / "index.json", index)
    return index


def load_dataset(ddir: Path) -> Dataset:
    index_path = Path(ddir) / "index.json"
    if not index_path.is_file():
        raise PrerequisiteError(
            f"no dataset at {ddir}; run `freqbooth gen-data` first"
        )

    def read_split(rows):
        images = np.empty((len(rows), 3, s, s))
        idents = np.empty(len(rows), dtype=np.int64)
        texts = np.empty(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            images[i] = read_ppm(Path(ddir) / row["file"])
            idents[i] = row["identity"]
            texts[i] = row["text"]
        return images, idents, texts

    def read_refs(names):
        return np.stack([read_ppm(Path(ddir) / n) for n in names])

    try:
        with open(index_path) as fh:
            index = json.load(fh)
        spec = ToyDatasetSpec.from_dict(index["spec"])
        s = spec.image_size
        train_images, train_identity, train_text = read_split(index["train"])
        test_images, test_identity, test_text = read_split(index["test"])
        dataset = Dataset(spec=spec, seed=index["seed"],
                          train_images=train_images, train_identity=train_identity,
                          train_text=train_text, test_images=test_images,
                          test_identity=test_identity, test_text=test_text,
                          train_refs=read_refs(index["train_refs"]),
                          test_refs=read_refs(index["test_refs"]))
        if dataset_checksum(dataset) != index["checksum"]:
            raise PrerequisiteError(f"dataset at {ddir} does not match its index checksum")
    except _UNREADABLE as exc:
        raise PrerequisiteError(f"dataset at {ddir} is unusable: {exc!r}") from None
    return dataset


def _load_dataset_arg(args, out: Path) -> Dataset:
    return load_dataset(Path(args.data_dir) if args.data_dir else out / "dataset")


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    out = _out_dir(args)
    spec = ToyDatasetSpec(n_identities=args.n_identities,
                          n_contexts=args.n_contexts,
                          image_size=args.image_size,
                          train_size=args.train_size,
                          test_size=args.test_size)
    dataset = generate_dataset(spec, args.seed)
    index = save_dataset(out / "dataset", dataset)
    _write_echo(out, "gen-data", {"seed": args.seed, "spec": spec.to_dict(),
                                  "checksum": index["checksum"]})
    print(f"wrote {spec.train_size} train + {spec.test_size} test images "
          f"({spec.n_identities} identities) to {out / 'dataset'}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    dataset = _load_dataset_arg(args, out)
    model_config = toy_config()
    if model_config.image_size != dataset.spec.image_size:
        raise UsageError(
            f"the model expects {model_config.image_size}px images "
            f"but the dataset is {dataset.spec.image_size}px"
        )
    if dataset.spec.n_contexts > model_config.n_text:
        raise UsageError(
            f"dataset has {dataset.spec.n_contexts} context classes but the "
            f"model supports {model_config.n_text}"
        )
    stage = args.stage
    mask = _parse_mask(args.mask) if args.mask else None
    if stage == 2 and mask is None:
        raise UsageError("--stage 2 requires --mask {mini,low,mid,high,all}")
    if stage != 2 and mask is not None:
        raise UsageError("--mask only applies to --stage 2")

    if stage == 0 and args.checkpoint:
        raise UsageError("--checkpoint does not apply to --stage 0, "
                         "which initialises from --seed")

    if stage == 0:
        weights = init_weights(model_config, args.seed)
        source = None
    else:
        source = Path(args.checkpoint) if args.checkpoint else \
            out / f"checkpoint_stage{stage - 1}.json"
        weights = _load_weights(source)
    source_checksums = None if source is None else \
        {s: weights.checksum(s) for s in PARAM_SETS}

    steps = args.steps if args.steps is not None else STAGE_STEP_DEFAULTS[stage]
    config = TrainConfig(stage=stage, steps=steps, lr=args.lr,
                         batch_size=args.batch_size, seed=args.seed,
                         identity_scale=args.lam, mask_kind=mask,
                         cond_dropout=args.cond_dropout)
    report = train(config, dataset, weights)

    suffix = f"stage2_{mask.value}" if stage == 2 else f"stage{stage}"
    ckpt_path = out / f"checkpoint_{suffix}.json"
    save_checkpoint(ckpt_path, weights)
    write_json(out / f"train_report_{suffix}.json", report.to_dict())
    write_json(out / f"train_report_{suffix}.timing.json",
               {"wall_clock_s": report.wall_clock_s})
    _write_echo(out, "train", {
        "train_config": config.to_dict(),
        "dataset_checksum": dataset_checksum(dataset),
        "source_checkpoint_checksums": source_checksums,
    })
    drop = (1.0 - report.final_smoothed / report.initial_smoothed) * 100 \
        if report.initial_smoothed else 0.0
    print(f"stage {stage}: {steps} steps, smoothed loss "
          f"{report.initial_smoothed:.4f} -> {report.final_smoothed:.4f} "
          f"({drop:+.1f}% drop); checkpoint {ckpt_path.name}")
    return EXIT_OK


def _sample_weights(args, out: Path, mask: MaskKind | None):
    if args.checkpoint:
        path = Path(args.checkpoint)
    elif mask is None:
        path = out / "checkpoint_stage1.json"
    else:
        path = out / f"checkpoint_stage2_{mask.value}.json"
    weights = _load_weights(path)
    _require_stages(weights, [0, 1] + ([2] if mask is not None else []), path)
    return weights


def cmd_sample(args) -> int:
    out = _out_dir(args)
    mask = _parse_mask(args.mask)
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if mask is not None and not args.ref:
        raise UsageError("--mask needs --ref to derive the control signal from")
    weights = _sample_weights(args, out, mask)
    ref = _load_image(args.ref) if args.ref else None
    if ref is not None and ref.shape[1] != weights.config.image_size:
        raise UsageError(
            f"reference is {ref.shape[1]}px but the model expects "
            f"{weights.config.image_size}px"
        )
    enc = build_encoders(weights.config)
    schedule = linear_schedule(weights.config.timesteps)

    rows = []
    for i in range(args.n):
        rng = RngState(args.seed).derive(("sample", i))
        img, info = sample(weights, enc, schedule, rng, ref_img=ref,
                           text_id=args.text_id, mask_kind=mask,
                           steps=args.steps, guidance=args.guidance,
                           identity_scale=args.lam)
        name = f"sample_{i:03d}.ppm"
        quant = quantize(img)
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
    out = _out_dir(args)
    mask = _parse_mask(args.mask)
    if mask is None:
        raise UsageError("filter needs a concrete --mask (mini, low, mid, high or all)")
    img = _load_image(args.input)
    _, h, w = img.shape
    if h != w:
        raise UsageError(f"filter expects a square image, got {w}x{h}")
    try:
        cfg = toy_config(image_size=h)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    enc = build_encoders(cfg)
    latent = encode_latent(img, enc)
    ctrl = make_control_signal(latent, mask)
    filtered = decode_latent(ctrl, enc)

    target = Path(args.out) if args.out else out / f"filtered_{mask.value}.ppm"
    target.parent.mkdir(parents=True, exist_ok=True)
    write_ppm(target, filtered)
    write_pfm(target.with_suffix(".pfm"), filtered)

    lh = latent.shape[1]
    gap = coverage_gap(lh, latent.shape[2])
    meta = {
        "mask": mask.value,
        "mask_ones": build_mask(mask, lh, latent.shape[2]).ones_count(),
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
    out = _out_dir(args)
    try:
        values = [check_identity_scale(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"bad --values {args.values!r}: {exc}") from None
    if not values:
        raise UsageError("--values must list at least one lambda")
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    weights = _sample_weights(args, out, None)
    dataset = _load_dataset_arg(args, out)
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
    write_json(out / "sweep_report.json", report)
    sheet = image_grid(sheet_images, rows=len(values), cols=sheet_cols)
    write_ppm(out / "sweep_sheet.ppm", sheet)
    _write_echo(out, "sweep-lambda", {"seed": args.seed, "values": values,
                                      "trials": args.trials, "steps": args.steps,
                                      "guidance": args.guidance})
    return EXIT_OK


def cmd_ablate_masks(args) -> int:
    check_identity_scale(args.lam)  # before any stage-2 checkpoint is trained
    out = _out_dir(args)
    dataset = _load_dataset_arg(args, out)
    stage1_path = Path(args.checkpoint) if args.checkpoint else \
        out / "checkpoint_stage1.json"
    stage1 = _load_weights(stage1_path)
    _require_stages(stage1, [0, 1], stage1_path)
    enc = build_encoders(stage1.config)
    schedule = linear_schedule(stage1.config.timesteps)

    masked_kinds = [MaskKind.MINI, MaskKind.LOW, MaskKind.MID, MaskKind.HIGH]
    models = {"none": stage1}
    for kind in masked_kinds:
        path = out / f"checkpoint_stage2_{kind.value}.json"
        if path.is_file():
            models[kind.value] = _load_weights(path)
        else:
            weights = _load_weights(stage1_path)
            config = TrainConfig(stage=2, steps=args.train_steps, seed=args.seed,
                                 batch_size=args.batch_size, mask_kind=kind)
            train(config, dataset, weights, schedule=schedule, enc=enc)
            save_checkpoint(path, weights)
            models[kind.value] = weights
            print(f"trained missing control checkpoint for mask {kind.value}")

    # held-out denoising pairs, identical across masks
    eval_rng = RngState(args.seed).derive("ablate-eval")
    n_eval = min(args.eval_size, dataset.spec.test_size)
    pairs = []
    for i in range(n_eval):
        s = dataset.test_sample(i)
        z0 = encode_latent(s.image, enc)
        t = 1 + eval_rng.randint(schedule.timesteps)
        eps = eval_rng.normal(z0.shape)
        pairs.append((z0, t, eps, s.text_id, forward_noise(z0, t, eps, schedule)))

    rows = []
    order = ["none"] + [k.value for k in masked_kinds]
    for name in order:
        weights = models[name]
        kind = None if name == "none" else MaskKind(name)
        losses = []
        for z0, t, eps, text, z_t in pairs:
            ctrl = make_control_signal(z0, kind) if kind is not None else None
            pred = predict_eps(weights, z_t, t, text, None, ctrl, 0.0)
            losses.append(float(np.mean((pred - eps) ** 2)))
        metrics = []
        for j in range(args.eval_samples):
            rng = RngState(args.seed).derive(("ablate-sample", j))
            ref = dataset.test_refs[j % dataset.spec.n_identities]
            img, _ = sample(weights, enc, schedule, rng, ref_img=ref, text_id=0,
                            mask_kind=kind, steps=args.steps,
                            guidance=args.guidance, identity_scale=args.lam)
            metrics.append(identity_metric_flagged(quantize(img), ref)[0])
        rows.append({"mask": name,
                     "recon_loss": float(np.mean(losses)),
                     "identity_metric": float(np.mean(metrics))})
        print(f"mask={name:5s} recon_loss={rows[-1]['recon_loss']:.5f} "
              f"identity_metric={rows[-1]['identity_metric']:.4f}")

    # rank by reconstruction loss; ties keep configuration order
    ranked = sorted(range(len(rows)), key=lambda i: (rows[i]["recon_loss"], i))
    for rank, idx in enumerate(ranked, start=1):
        rows[idx]["rank"] = rank
    report = {"rows": rows, "ranking": [rows[i]["mask"] for i in ranked],
              "eval_size": n_eval, "eval_samples": args.eval_samples}
    write_json(out / "ablate_report.json", report)
    _write_echo(out, "ablate-masks", {
        "seed": args.seed, "train_steps": args.train_steps,
        "eval_size": n_eval, "eval_samples": args.eval_samples,
        "steps": args.steps, "guidance": args.guidance, "lambda": args.lam,
        "dataset_checksum": dataset_checksum(dataset)})
    print(f"ranking (best reconstruction first): {', '.join(report['ranking'])}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    out = _out_dir(args)
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
    write_json(out / "gradcheck_report.json",
               {"results": [{k: v for k, v in r.items()} for r in results],
                "pass": ok})
    _write_echo(out, "gradcheck", {"seed": args.seed, "stages": stages})
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default="freqbooth_out",
                        help="artifact directory (env FREQBOOTH_OUT overrides)")
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
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--data-dir", default=None)
    p.add_argument("--mask", choices=MASK_CHOICES[:-1], default=None,
                   help="control band (stage 2 only)")
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="identity strength used in stage-1 batches "
                        "(training default 1.0; generation defaults to 0.4)")
    p.add_argument("--cond-dropout", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[with_ckpt], help="generate images")
    p.add_argument("--ref", default=None, help="reference image (PPM)")
    p.add_argument("--text-id", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.4)
    p.add_argument("--guidance", type=float, default=3.0)
    p.add_argument("--mask", choices=MASK_CHOICES, default="none")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("filter", parents=[common],
                       help="band-filter an image through the latent spectrum")
    p.add_argument("--input", required=True)
    p.add_argument("--mask", required=True, choices=MASK_CHOICES[:-1])
    p.add_argument("--out", default=None)
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
    p.add_argument("--batch-size", type=int, default=4)
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
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PrerequisiteError, StageOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
