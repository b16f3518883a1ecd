"""The code-line counter, tools/code_lines.py, on fixed snippets."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

PYTHON = '''"""A module docstring,
over two lines."""

import os  # a comment after code


# a comment line
class Point:
    """A class docstring."""

    x: int


def f(x):
    """A function docstring."""
    s = """a string
that is not a docstring"""
    return (x +
            len(s))
'''
# import, class, x, def, the two lines of s, the two of the return
PYTHON_LINES = 8

C = '''/* a comment
 * over two lines */
#include <stdio.h>

int f(int x) // a comment after code
{
    return x; /* an inline comment */
}
// a comment line
'''
# the include, the signature, the two braces and the return
C_LINES = 5


def test_python_lines_leave_out_comments_blanks_and_docstrings():
    assert code_lines.python_lines(PYTHON) == PYTHON_LINES


def test_c_lines_leave_out_comments_and_blanks():
    assert code_lines.c_lines(C) == C_LINES


def test_a_directory_is_counted_by_language(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(PYTHON)
    (tmp_path / "pkg" / "b.c").write_text(C)
    (tmp_path / "pkg" / "notes.txt").write_text("not counted\n")
    assert code_lines.count([tmp_path]) == {"python": PYTHON_LINES, "c": C_LINES}
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == f"python {PYTHON_LINES}\nc {C_LINES}\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_reader_that_has_gone_ends_it_with_one_error_line(tmp_path, unbuffered):
    (tmp_path / "a.py").write_text(PYTHON)
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first line is written
    try:
        done = subprocess.run([sys.executable, TOOL, tmp_path], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60,
                              env={**os.environ, "PYTHONUNBUFFERED": unbuffered})
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")
