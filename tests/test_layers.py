"""The import layering of the pipeline: each module imports only from the
modules of earlier stages, never from a later one."""

import ast
from pathlib import Path

import pytest

import seedgrade

PACKAGE = Path(seedgrade.__file__).parent

# the seedgrade modules each module may import from, in pipeline order
ALLOWED = {
    "nodes": set(),
    "config": set(),
    "errors": set(),
    "preprocess": {"errors"},
    "units": {"errors"},
    "parser": {"errors", "nodes", "preprocess", "units"},
    "ted": {"config", "nodes"},
    "canon": {"config", "errors", "nodes"},
    "grader": {"canon", "config", "errors", "nodes", "parser", "preprocess", "ted", "units"},
    "harness": {"config", "errors", "grader", "nodes"},
    "cli": {"config", "errors", "grader", "harness", "nodes"},
}


def _imported(module: str) -> set:
    """The seedgrade modules that a module's `from .x import` (or
    `from . import x`) statements name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_imports_only_lower_layers(module):
    imported = _imported(module)
    assert imported <= ALLOWED[module]
    # a module with allowed imports that shows none is read wrongly
    assert imported or not ALLOWED[module]


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(ALLOWED)
