"""The package loads its modules on first use, and each CLI verb loads only
the modules it runs.

``import splitalg`` loads no submodule; every name of ``__all__`` is the
object its owning module defines, and loads that module on first use.  In a
fresh interpreter, ``cli.main`` on one verb leaves only that verb's modules
in ``sys.modules``: a module-level import added to ``cli``, ``fileio`` or
``catalog`` would make every step of a pipeline pay for it again.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitalg as sa
from splitalg import catalog, fileio
from splitalg.cli import main
from splitalg.representations import regular_prelie_module

SRC = Path(sa.__file__).resolve().parent.parent

SUBMODULES = ("axioms", "core", "functors", "operators", "representations", "ybe")


def _fresh(code: str, cwd=None) -> str:
    """Stdout of ``code`` run by a fresh interpreter that imports this
    checkout's ``splitalg``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str, cwd=None) -> set[str]:
    """The ``splitalg`` submodules loaded after ``code`` runs in a fresh
    interpreter, its own stdout discarded."""
    out = _fresh(
        "import contextlib, io, json, sys\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    exec({code!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('splitalg.'))))\n",
        cwd)
    return {name.removeprefix("splitalg.") for name in json.loads(out)}


def test_bare_import_loads_no_submodule():
    assert _loaded("import splitalg") == set()


def test_names_resolve_to_their_modules_objects():
    assert sa.__all__ == [name for names in sa._EXPORTS.values() for name in names]
    assert len(set(sa.__all__)) == len(sa.__all__)
    assert tuple(sa._EXPORTS) == SUBMODULES
    for module, names in sa._EXPORTS.items():
        owner = importlib.import_module(f"splitalg.{module}")
        for name in names:
            assert getattr(sa, name) is getattr(owner, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from splitalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(sa.__all__)


def test_dir_lists_names_and_submodules():
    listed = dir(sa)
    assert set(sa.__all__) <= set(listed)
    for module in SUBMODULES:
        assert module in listed
        assert getattr(sa, module) is importlib.import_module(f"splitalg.{module}")


def test_fresh_package_resolves_submodules_and_names():
    out = _fresh("import splitalg as sa\n"
                 "print(sa.ybe.SEquivalenceReport.__module__, sa.core.Algebra is sa.Algebra)")
    assert out.split() == ["splitalg.ybe", "True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        getattr(sa, "no_such_name")
    assert not hasattr(sa, "catalog_files")
    assert not hasattr(sa, "_private_name")


#: verb argv -> the modules its process must not load
_LIGHT_VERBS = {
    ("check", "--class", "pre_lie", "p2.alg.json"): {"operators", "representations", "ybe"},
    ("check", "--class", "l_dendriform", "ld2.alg.json", "--json"):
        {"operators", "representations", "ybe"},
    ("derive", "--functor", "vertical_prelie", "ld2.alg.json"):
        {"operators", "representations", "ybe"},
    ("catalog", "P2", "--dir", "out"): {"operators", "representations", "ybe"},
    ("rb-check", "--map", "rb2.map.json", "p2.alg.json"): {"ybe"},
    ("induce", "--map", "rb2.map.json", "p2.alg.json"): {"ybe"},
    ("induce", "--module", "reg.module.json", "--map", "rb2.map.json"): {"ybe"},
    ("search-rb", "--entry-set=-1,0,1", "p2.alg.json"): {"ybe"},
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("verbs")
    for name in ("P2", "RB2", "LD2"):
        assert main(["catalog", name, "--dir", str(directory)]) == 0
    fileio.write_module(regular_prelie_module(catalog.build("P2")),
                        directory / "reg.module.json")
    return directory


@pytest.mark.parametrize("argv", list(_LIGHT_VERBS), ids=" ".join)
def test_verb_loads_only_its_modules(argv, pipeline_dir):
    code = f"from splitalg.cli import main\nassert main({list(argv)!r}) == 0"
    loaded = _loaded(code, cwd=pipeline_dir)
    assert {"cli", "core", "axioms", "fileio", "functors", "catalog"} <= loaded
    assert loaded & _LIGHT_VERBS[argv] == set()
