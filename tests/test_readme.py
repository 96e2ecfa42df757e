"""The README's examples run as written: every command of the CLI block, in
order and in one directory, exits 0, and the library example executes; and
every dotted name it cites in backticks exists."""

import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import splitalg

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(splitalg.__file__).resolve().parent.parent


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after the README heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands():
    """The CLI block's commands as argv lists, with ``splitalg`` run as
    ``python -m splitalg.cli`` and ``python3`` as this interpreter."""
    programs = {"splitalg": [sys.executable, "-m", "splitalg.cli"], "python3": [sys.executable]}
    for line in _block("CLI", "sh").splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            yield programs[argv[0]] + argv[1:]


def test_readme_cli_block_runs(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    commands = list(_commands())
    assert len(commands) >= 12
    for argv in commands:
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                              check=False)
        assert proc.returncode == 0, (argv, proc.stdout, proc.stderr)
    assert (tmp_path / "sol.tensor.json").exists()


def test_readme_library_example_runs():
    exec(compile(_block("Library example", "python"), "README.md", "exec"), {})


#: where the heads of the README's dotted names live; the standard-library
#: heads it cites are not checked
_HEADS = {
    "splitalg": "splitalg",
    "core": "splitalg.core",
    "fileio": "splitalg.fileio",
    "Algebra": "splitalg.core.Algebra",
    "LinearMap": "splitalg.core.LinearMap",
    "BilinearForm": "splitalg.core.BilinearForm",
}
_STANDARD_LIBRARY = {"fractions", "dataclasses", "chain"}


def _resolves(path: str) -> bool:
    """Whether the dotted ``path`` names a module, or an attribute chain
    below the longest importable module prefix of it."""
    parts = path.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_readme_cited_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", text))
    assert len(names) >= 10
    cited = {name for name in names if name.split(".")[0] not in _STANDARD_LIBRARY}
    unknown = sorted(name for name in cited if name.split(".")[0] not in _HEADS)
    assert unknown == [], "README cites names under heads this test does not know"
    missing = sorted(name for name in cited
                     if not _resolves(_HEADS[name.split(".")[0]] + name[name.index("."):]))
    assert missing == []
