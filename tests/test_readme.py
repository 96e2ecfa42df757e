"""The README's examples run as written: every command of the CLI block, in
order and in one directory, exits 0, and the library example executes."""

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
