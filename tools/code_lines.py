"""Count the code lines of Python modules.

A code line holds a token other than a comment and is not part of a
module, class or function docstring.  Blank lines, comment-only lines and
docstring lines are not code; a line that a multi-line expression spans is
code, and so is every line of a string that is not a docstring.

Usage::

    python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory, searched for ``*.py`` files
(default: ``src/splitalg`` beside this script's parent).  Prints one line
per module, its code lines and its ``wc -l`` count, then the totals.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python module ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _modules(paths) -> list[Path]:
    found = []
    for path in map(Path, paths):
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or \
        [Path(__file__).resolve().parent.parent / "src" / "splitalg"]
    total_code = total_wc = 0
    for path in _modules(paths):
        source = path.read_text(encoding="utf-8")
        code, wc = code_lines(source), source.count("\n")
        total_code += code
        total_wc += wc
        print(f"{code:6d} {wc:6d}  {path}")
    print(f"{total_code:6d} {total_wc:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
