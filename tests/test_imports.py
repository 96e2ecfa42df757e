"""No module of the package imports a name it never uses, and no private
module-level helper outlives its last caller.

Deleting a helper tends to leave its import behind, and no linter runs on
the sources, so this walks each module's syntax tree: every name bound by a
module-level ``import`` must be referenced somewhere in the module or be
listed in its ``__all__``.  The package ``__init__`` re-exports by import and
is skipped.  Likewise every module-level private function, class or constant
(a name with one leading underscore) must be referenced by some code in the
package outside its own definition.

The test oracles ``tests/naive_tensor.py`` and ``tests/naive_kernel.py``
must stay independent of the package they check, so they may import the
standard library only.
"""

import ast
import sys
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


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _referenced_names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each module-level private definition in ``sources``
    (module name -> source) that no other top-level statement references."""
    statements = [(module, node) for module, text in sources.items()
                  for node in ast.parse(text).body]
    references = [_referenced_names(node) for _, node in statements]
    dead = []
    for index, (module, node) in enumerate(statements):
        for name in filter(_private, _defined_names(node)):
            if not any(name in refs for k, refs in enumerate(references) if k != index):
                dead.append(f"{module}.{name}")
    return dead


def test_dead_private_names_are_detected():
    sources = {
        "a": "_LIMIT = 3\n_unused = 1\n__all__ = []\n"
             "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
             "class _Orphan:\n    pass\n"
             "def _used_elsewhere():\n    pass\n",
        "b": "from a import _used_elsewhere\nimport a\n"
             "def public():\n    return a._LIMIT, _used_elsewhere()\n",
    }
    # _helper only calls itself, which does not keep it alive
    assert dead_private_names(sources) == ["a._unused", "a._helper", "a._Orphan"]


def test_no_dead_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SOURCES + [SOURCES[0].parent / "__init__.py"]}
    assert dead_private_names(sources) == []


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level names of the modules ``source`` imports, anywhere in it,
    that are not in the standard library; a relative import counts."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or "").split(".")[0])
    return [name for name in names if name not in sys.stdlib_module_names]


def test_non_stdlib_imports_are_detected():
    source = (
        "from __future__ import annotations\nimport os.path\nfrom fractions import Fraction\n"
        "import splitalg.core\nfrom splitalg import core\nfrom . import x\n"
        "def f():\n    import naive_checks\n"
    )
    assert non_stdlib_imports(source) == ["splitalg", "splitalg", ".", "naive_checks"]


def test_tensor_oracle_imports_only_the_standard_library():
    oracle = Path(__file__).parent / "naive_tensor.py"
    assert non_stdlib_imports(oracle.read_text(encoding="utf-8")) == []


def test_kernel_oracle_imports_only_the_standard_library():
    oracle = Path(__file__).parent / "naive_kernel.py"
    assert non_stdlib_imports(oracle.read_text(encoding="utf-8")) == []
