"""`src/freqbooth` holds no code that only the tests use.

Every module-level function and class, and every method other than the
dunders Python calls itself, must be referenced from code in `src/` or be
named in `bench/*.py` (which traces layers by their dotted names).  A
helper only the tests call belongs in `tests/conftest.py`.  The files are
read with `ast`, never imported, as in `test_bench_contract.py`.

The type rules are stated once: only `config.py` (`check_int`,
`check_real`) reads the `numbers` module or asks whether a value is a
bool, and every other module calls those two.
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


def type_rule_reads(tree: ast.Module) -> list[int]:
    """The lines where `tree` reads the `numbers` module or calls
    `isinstance(..., bool)` (alone or in a tuple of types)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "numbers" \
                or isinstance(node, ast.Name) and node.id == "numbers":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                lines.append(node.lineno)
    return lines


def test_only_config_states_what_an_integer_or_a_real_number_is():
    found = {p.name: type_rule_reads(parse(p)) for p in sorted(SRC.glob("*.py"))}
    assert found.pop("config.py"), "config.py no longer states the type rules"
    assert {name: lines for name, lines in found.items() if lines} == {}, \
        "call config.check_int or config.check_real instead"
