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

import pytest

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
