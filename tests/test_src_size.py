"""scripts_calib/src_size.py counts a file's lines as `wc -l` does and its
code lines: lines with a token other than a comment, NL, NEWLINE, INDENT or
DEDENT, less module, class and function docstrings."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts_calib" / "src_size.py"
_SPEC = importlib.util.spec_from_file_location("src_size", SCRIPT)
src_size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_size)

# 18 lines; the code lines are the four marked `# code`, the call's two
# lines and the two lines of the string that is no docstring: 8 in all
FIXTURE = '''"""Module docstring,
on two lines."""
import os  # code


class Thing:  # code
    """Class docstring."""
    size = 3  # code

    def grow(self):  # code
        """Function docstring,
        on two lines."""
        # a comment line
        return os.path.join(
            "a", "b")

    text = """a string that is no docstring,
on two lines"""
'''
FIXTURE_CODE = 8


def test_counts_lines_and_code_lines():
    assert src_size.count(FIXTURE) == (18, FIXTURE_CODE)


def test_docstring_lines_are_module_class_and_function_docstrings():
    assert src_size.docstring_lines(ast.parse(FIXTURE)) == {1, 2, 7, 11, 12}


def test_prints_each_file_then_the_totals(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\n",
                                          encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["18", str(FIXTURE_CODE), "a.py"],
        ["3", "1", "pkg/b.py"],
        ["21", str(FIXTURE_CODE + 1), "total"]]
