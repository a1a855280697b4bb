"""`cli.py` draws no sample and scores no held-out pair itself.

`sample`, `sweep-lambda` and `ablate-masks` call the library's one
evaluation path (`training.draw_trials`, `paired_sweep` and
`held_out_losses`), so `cli.py` names none of the layers below it.  The
file is read with `ast`, never imported, as in `test_src_surface.py`.
"""

import ast

from test_src_surface import SRC, code_names, parse

EVALUATION_LAYERS = {"sample", "predict_eps", "forward_noise", "project_conditions",
                     "identity_metric_flagged"}


def referenced_names(tree: ast.Module) -> set[str]:
    """`code_names`, and each name an import binds or reads."""
    aliases = {part for node in ast.walk(tree) if isinstance(node, ast.alias)
               for part in (node.name.split(".")[-1], node.asname) if part}
    return code_names(tree) | aliases


def test_the_cli_evaluates_only_through_the_library():
    names = referenced_names(parse(SRC / "cli.py"))
    assert names & EVALUATION_LAYERS == set()
    assert {"draw_trials", "paired_sweep", "held_out_losses"} <= names
