"""No module of the package imports a name it never uses.

Deleting a helper tends to leave its import behind, and no linter runs on
the sources, so this walks each module's syntax tree: every name bound by a
module-level ``import`` must be referenced somewhere in the module or be
listed in its ``__all__``.  The package ``__init__`` re-exports by import and
is skipped.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    path for path in (Path(__file__).parent.parent / "src" / "splitalg").glob("*.py")
    if path.name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return [name for name in _imported_names(tree) if name not in used | exported]


def test_unused_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport re as regex\nfrom x import a, b as c, d\n"
        "__all__ = ['d']\n"
        "def f(p: a) -> None:\n    return os.path.join(p)\n"
    )
    assert unused_imports(source) == ["regex", "c"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
