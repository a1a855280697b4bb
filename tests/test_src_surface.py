"""`src/freqbooth` holds no code that only the tests use.

Every module-level function and class, and every method other than the
dunders Python calls itself, must be referenced from code in `src/` or be
named in `bench/*.py` (which traces layers by their dotted names).  A
helper only the tests call belongs in `tests/conftest.py`.  The files are
read with `ast`, never imported, as in `test_bench_contract.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "freqbooth"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions():
    """(`module.name` or `module.Class.name`, bare name) of each definition."""
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def code_names(tree: ast.Module) -> set[str]:
    """The names and attributes the code in `tree` reads."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def bench_names(tree: ast.Module) -> set[str]:
    """`code_names`, and each dot-separated part of the string constants
    (such as the traced span "netpbm.read_ppm")."""
    return code_names(tree).union(*(node.value.split(".") for node in ast.walk(tree)
                                    if isinstance(node, ast.Constant)
                                    and isinstance(node.value, str)))


def test_every_definition_in_src_is_used_by_src_or_bench():
    used = set().union(*(code_names(parse(p)) for p in SRC.glob("*.py")),
                       *(bench_names(parse(p)) for p in (ROOT / "bench").glob("*.py")))
    unused = [qualified for qualified, name in definitions() if name not in used]
    assert unused == [], f"only tests use {unused}; move them to tests/conftest.py"
