"""The code-line count that size reports quote (tools/code_lines.py)."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves the line code


# a comment line
def area(r):
    """Function docstring."""

    return math.pi * r * r


class Shape:
    """Class docstring,
    also over two lines."""
    sides = 0


TEXT = """a multi-line string
is code on every line
it spans"""
'''


def test_counts_code_and_skips_docstrings_comments_and_blanks():
    # import, def, return, class, sides, and the three lines of TEXT
    assert code_lines.code_lines(SOURCE) == 8


def test_docstring_alone_is_no_code():
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0
    # a string that is not the first statement of its body is code
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_main_totals_each_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a.py", "     1  b.py", "     9  total"]
