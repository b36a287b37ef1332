"""The line counts of `tools/code_lines.py`: a code line holds a token that
is not a comment and lies outside every module, class and function
docstring."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import code_lines  # noqa: E402

USAGE = "usage: python tools/code_lines.py PACKAGE_DIR\n"


def test_docstrings_comments_and_blank_lines_are_left_out():
    source = '''"""Module docstring,
over two lines."""

# a comment line


class Thing:
    """One line."""

    # indented comment
    def method(self):
        """Three
        lines
        here."""
        return 1  # a trailing comment does not hide the code


def function():
    """Docstring."""
    pass
'''
    # Code lines: `class Thing:`, `def method`, `return 1`, `def function`, `pass`.
    assert code_lines.code_lines(source) == (5, len(source.splitlines()))


def test_strings_that_are_not_docstrings_count():
    source = '''def function():
    x = 1
    "not first in its body, so not a docstring"
    text = """a string
over three
lines"""
    return x, text
'''
    assert code_lines.code_lines(source) == (7, 7)


def test_a_module_without_docstring_counts_every_token_line():
    source = "x = (\n    1,\n    2,\n)\n\n# done\n"
    assert code_lines.code_lines(source) == (4, 6)


def test_main_prints_a_row_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text('"""Doc."""\nx = 1\n', encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\ny = 2\nz = 3\n",
                                           encoding="utf-8")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["1", "2", "a.py"], ["2", "4", "b.py"],
                    ["3", "6", "total", "(code", "lines,", "all", "lines)"]]


@pytest.mark.parametrize("argv", [[], ["a", "b"], ["no-such-directory"], [__file__]],
                         ids=["none", "two", "missing", "a-file"])
def test_bad_arguments_exit_2_with_the_usage_line(argv, capsys):
    assert code_lines.main(argv) == 2
    out = capsys.readouterr()
    assert out.err == USAGE and out.out == ""
