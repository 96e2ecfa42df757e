"""The code-line counter in ``tools/code_lines.py`` on a fixed snippet."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).parent.parent / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
two lines."""

import os   # a comment after code


# a comment line
class A:
    """Class docstring."""

    x = """a string that is
not a docstring"""

    def f(self, a,
          b):
        """Function
        docstring."""
        return (a +
                b)


async def g():
    "one-line docstring"
    return os.sep
'''


def test_counts_code_lines_of_a_fixed_snippet():
    """Code: the import, ``class A``, both lines of ``x``, both lines of the
    ``def``, both lines of the return, ``async def`` and its return."""
    assert code_lines.code_lines(SNIPPET) == 10


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [["10", "24"], ["1", "2"], ["11", "26"]]
    assert lines[-1].endswith("total")
