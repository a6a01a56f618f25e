"""The import layering of the pipeline's lower modules: the edit distance
and the canonical forms build on the node types only, never on a later
stage."""

import ast
from pathlib import Path

import pytest

import seedgrade

# the seedgrade modules each module may import from
ALLOWED = {
    "ted": {"config", "nodes"},
    "canon": {"config", "errors", "nodes"},
}


def _imported(module: str) -> set:
    """The seedgrade modules that a module's `from .x import` (or
    `from . import x`) statements name."""
    tree = ast.parse(Path(seedgrade.__file__).with_name(f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_lower_layers(module):
    imported = _imported(module)
    assert imported and imported <= ALLOWED[module]
