"""The names the benchmark (`bench/run.py`) relies on still exist.

`bench/run.py` is read with `ast`, never imported: importing it pins BLAS
threads and pulls in its tracer.  A refactor that renames a traced layer,
a program function, a `TrainConfig` field, a CLI flag the walkthrough
passes or an attribute it reads from a returned object then fails here
instead of breaking the benchmark unnoticed.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from freqbooth import cli, diffusion, training
from freqbooth.config import tiny_config
from freqbooth.netpbm import quantize
from freqbooth.reference_encoder import (build_encoders, extract_tokens, reference_backward,
                                         reference_forward_train)
from freqbooth.tensor_core import RngState
from freqbooth.training import TrainConfig

RUN = Path(__file__).resolve().parent.parent / "bench" / "run.py"
TREE = ast.parse(RUN.read_text(), filename=str(RUN))


def module_constant(name: str):
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{RUN} assigns no {name}")


def resolve(qualified: str):
    """`module.function` or `module.Class.method` inside freqbooth."""
    module, *path = qualified.split(".")
    owner = importlib.import_module(f"freqbooth.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("name", sorted(set(module_constant("SPANS"))
                                        | set(module_constant("FILE_SPANS"))))
def test_every_traced_span_resolves_to_a_function(name):
    assert inspect.isfunction(resolve(name)), name


def test_program_names_the_benchmark_reads_exist():
    # every m["<module>"].<name> in bench/run.py
    used = {f"{node.value.slice.value}.{node.attr}" for node in ast.walk(TREE)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Subscript)
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "m"
            and isinstance(node.value.slice, ast.Constant)}
    assert "training.TrainConfig" in used
    for name in sorted(used):
        resolve(name)


def test_train_config_accepts_the_fields_the_benchmark_passes():
    passed = {kw.arg for node in ast.walk(TREE)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "TrainConfig"
              for kw in node.keywords}
    assert passed, "bench/run.py builds no TrainConfig"
    assert passed <= {f.name for f in dataclasses.fields(TrainConfig)}


def test_sample_accepts_the_keywords_the_benchmark_passes():
    passed = {kw.arg for node in ast.walk(TREE)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "sample"
              for kw in node.keywords}
    assert passed, "bench/run.py calls no sample()"
    assert passed <= set(inspect.signature(diffusion.sample).parameters)


WALK = next(node for node in TREE.body
            if isinstance(node, ast.ClassDef) and node.name == "CliWalkthrough")


def walkthrough_argvs() -> list[list[str]]:
    """The argument lists `CliWalkthrough.commands` builds, with each
    computed path replaced by a placeholder."""
    seq = next(node.value for node in ast.walk(WALK) if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "seq" for t in node.targets))
    return [[e.value if isinstance(e, ast.Constant) else "some/path" for e in argv.elts]
            for argv in seq.elts]


@pytest.mark.parametrize("argv", walkthrough_argvs(), ids=lambda argv: argv[0])
def test_cli_parses_every_walkthrough_command(argv):
    # the walkthrough appends --out-dir and --seed to every command
    args = cli.build_parser().parse_args(argv + ["--out-dir", "out", "--seed", "1"])
    assert args.command == argv[0]


def test_gen_data_writes_every_dataset_file_the_walkthrough_names(tmp_path):
    # the walkthrough passes paths such as dataset/ref_test_00.ppm
    names = sorted({node.value for node in ast.walk(WALK) if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) and node.value.endswith(".ppm")})
    assert names, "CliWalkthrough names no dataset file"
    assert cli.main(["gen-data", "--out-dir", str(tmp_path), "--n-identities", "1",
                     "--n-contexts", "1", "--image-size", "8", "--train-size", "1",
                     "--test-size", "1"]) == 0
    for name in names:
        assert (tmp_path / "dataset" / name).is_file(), name


def test_backward_results_have_the_shapes_grad_hooks_read():
    """`grad_hooks` unpacks `denoiser_backward` into (grads by registry name,
    per-block list), reads `reference_backward`'s "heads" list beside its
    arrays, and takes `adam_step`'s grads from its second argument."""
    cfg = tiny_config()
    enc = build_encoders(cfg)
    weights = diffusion.init_weights(cfg, 0)
    rng = np.random.default_rng(0)
    ref = rng.uniform(size=(1, 3, cfg.image_size, cfg.image_size))
    feats, rcache = reference_forward_train(extract_tokens(ref, enc), weights.projection,
                                            weights.id_heads())
    z = rng.normal(size=(2, cfg.latent_hw ** 2, cfg.latent_channels))
    cond = diffusion.project_conditions(weights, [0, None], ([0], feats), None, 0.4)
    terms = diffusion.time_terms(weights, [5, 9], cond)
    pred, cache = diffusion.denoiser_forward(weights, z, terms, cond)
    grads, didentity = diffusion.denoiser_backward(pred, cache, diffusion.PARAM_SETS)
    assert isinstance(grads, dict) and isinstance(didentity, list)
    assert set(grads) <= set(weights.params())
    assert all(isinstance(g, np.ndarray) for g in grads.values())
    rgrads = reference_backward(didentity, rcache)
    assert isinstance(rgrads, dict) and isinstance(rgrads["heads"], list)
    assert all(isinstance(g, np.ndarray) for g in rgrads["heads"])
    assert all(isinstance(g, np.ndarray) for k, g in rgrads.items() if k != "heads")
    assert list(inspect.signature(training.adam_step).parameters)[1] == "grads"


def test_returned_objects_have_what_the_benchmark_reads(tiny_dataset, tiny_cfg, tiny_enc,
                                                        tiny_schedule):
    """The workloads read `Dataset.test_refs`, `spec.n_identities` and
    `spec.image_size`; a `TrainReport`'s `losses` and `trainable_set`, and the
    `frozen_before`/`frozen_after` keys of its JSON; `ModelWeights.checksum`;
    and unpack the pairs `sample()` and `identity_metric_flagged` return."""
    spec = tiny_dataset.spec
    size = spec.image_size
    assert tiny_dataset.test_refs.shape == (spec.n_identities, 3, size, size)

    weights = diffusion.init_weights(tiny_cfg, 0)
    before = {s: weights.checksum(s) for s in diffusion.PARAM_SETS}
    config = TrainConfig(stage=0, steps=2, batch_size=2, seed=0, identity_scale=1.0,
                         mask_kind=None)
    report = training.train(config, tiny_dataset, weights, tiny_schedule, tiny_enc)
    assert len(report.losses) == 2 and report.trainable_set == "backbone"
    after = {s: weights.checksum(s) for s in diffusion.PARAM_SETS}
    assert [s for s in diffusion.PARAM_SETS if after[s] != before[s]] == ["backbone"]
    fields = report.to_dict()
    assert fields["frozen_before"] == fields["frozen_after"]
    assert set(fields["frozen_before"]) == {"identity_adapter", "control"}

    ref = tiny_dataset.test_refs[0]
    result = diffusion.sample(weights, tiny_enc, tiny_schedule, RngState(0), ref_img=ref,
                              text_id=0, mask_kind=None, steps=2, guidance=3.0,
                              identity_scale=0.4)
    assert isinstance(result, tuple) and len(result) == 2
    img, _ = result
    assert img.shape == (3, size, size)
    flagged = training.identity_metric_flagged(quantize(img), ref)
    assert isinstance(flagged, tuple) and len(flagged) == 2
    metric, degenerate = flagged
    assert isinstance(metric, float) and isinstance(degenerate, bool)
