"""The names the benchmark (`bench/run.py`) relies on still exist.

`bench/run.py` is read with `ast`, never imported: importing it pins BLAS
threads and pulls in its tracer.  A refactor that renames a traced layer,
a program function or a `TrainConfig` field then fails here instead of
breaking the benchmark unnoticed.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from freqbooth import diffusion, training
from freqbooth.config import tiny_config
from freqbooth.reference_encoder import (build_encoders, reference_backward,
                                         reference_forward_train)
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


def test_backward_results_have_the_shapes_grad_hooks_read():
    """`grad_hooks` unpacks `denoiser_backward` into (grads by registry name,
    per-block list), reads `reference_backward`'s "heads" list beside its
    arrays, and takes `adam_step`'s grads from its second argument."""
    cfg = tiny_config()
    enc = build_encoders(cfg)
    weights = diffusion.init_weights(cfg, 0)
    rng = np.random.default_rng(0)
    ref = rng.uniform(size=(3, cfg.image_size, cfg.image_size))
    feats, rcache = reference_forward_train(ref, weights.projection, weights.id_heads(), enc)
    z = rng.normal(size=(cfg.latent_hw ** 2, cfg.latent_channels))
    pred, cache = diffusion.denoiser_forward(weights, z, 5, 0, feats, None, 0.4)
    grads, didentity = diffusion.denoiser_backward(pred, cache, diffusion.PARAM_SETS)
    assert isinstance(grads, dict) and isinstance(didentity, list)
    assert set(grads) <= set(weights.params())
    assert all(isinstance(g, np.ndarray) for g in grads.values())
    rgrads = reference_backward(didentity, rcache)
    assert isinstance(rgrads, dict) and isinstance(rgrads["heads"], list)
    assert all(isinstance(g, np.ndarray) for g in rgrads["heads"])
    assert all(isinstance(g, np.ndarray) for k, g in rgrads.items() if k != "heads")
    assert list(inspect.signature(training.adam_step).parameters)[1] == "grads"
