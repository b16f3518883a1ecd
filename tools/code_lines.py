"""Count the code lines of Python and C sources.

A Python line counts when it holds a token other than a comment, a line
break or an indent, and is not part of a module, class or function
docstring.  A C line counts when it is not blank once its ``/* */`` and
``//`` comments are removed.

    python3 tools/code_lines.py [PATH ...]   # default: src/tensorwheel

Each PATH is a file or a directory searched for ``*.py`` and ``*.c``.
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
C_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)


def python_lines(source: str) -> int:
    """Code lines of one Python source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def c_lines(source: str) -> int:
    """Code lines of one C source; a comment's line breaks are kept."""
    stripped = C_COMMENT.sub(lambda m: "\n" * m.group().count("\n"), source)
    return sum(1 for line in stripped.splitlines() if line.strip())


def count(paths) -> dict:
    """{"python": n, "c": m} over the files under paths."""
    totals = {"python": 0, "c": 0}
    for path in map(Path, paths):
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for file in files:
            if file.suffix == ".py":
                totals["python"] += python_lines(file.read_text())
            elif file.suffix == ".c":
                totals["c"] += c_lines(file.read_text())
    return totals


def main(argv=None) -> int:
    paths = (sys.argv[1:] if argv is None else argv) or ["src/tensorwheel"]
    for language, n in count(paths).items():
        print(f"{language} {n}")
    return 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:  # stdout's reader went away
        # stdout to devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    sys.exit(status)
