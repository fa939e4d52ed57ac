"""No module of src/ehd but its __init__ imports a name it never uses, and
no module defines a private module-level function or class that nothing in
src/ehd refers to.  A refactor that stops using an import, or the last
caller of a helper, fails here instead of leaving the dead line behind."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ehd"
TREES = {p.name: ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))}
MODULES = [name for name in TREES if name != "__init__.py"]


def read_names(tree) -> set:
    """The names a module reads (`name`)."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def imported_names(tree) -> set:
    """The names a module's import statements bind, at any depth."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    return bound


def referenced_names() -> set:
    """Every name read, every attribute read and every name imported in src/ehd."""
    names = set()
    for tree in TREES.values():
        names |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {a.name for a in node.names}
    return names


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = TREES[module]
    assert sorted(imported_names(tree) - read_names(tree)) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_definition_is_referenced(module):
    defined = {node.name for node in TREES[module].body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    assert sorted(defined - referenced_names()) == []
