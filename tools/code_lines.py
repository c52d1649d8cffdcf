"""Count code lines: the lines of a Python file that hold code, and not only
a blank, a comment or a docstring.

A line counts when some token other than a comment or a line break lies on
it, so a call spread over three lines is three lines.  A docstring is the
string statement that opens a module, class or function body (the ``ast``
walk finds them); its lines do not count.

Usage: ``python3 tools/code_lines.py [DIR] [--against REV]`` prints one
line per ``*.py`` file under DIR (default ``src/gradtamper``), path and
count, then the total.  With ``--against REV`` each line holds the file's
count at the git revision REV (0 for a file absent there) before today's,
and a file that REV holds and today's tree does not is listed at 0 today.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, the text of one module."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], stdout=subprocess.PIPE, text=True,
                          check=True).stdout


def counts_at(root: Path, rev: str) -> dict[str, int]:
    """Code lines of each ``*.py`` file under ``root`` at git revision ``rev``,
    by path relative to ``root``; read with ``git show``."""
    names = _git(root, "ls-tree", "-r", "--name-only", rev).splitlines()
    return {name: code_lines(_git(root, "show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("dir", nargs="?", default="src/gradtamper")
    parser.add_argument("--against", metavar="REV", help="also count each file at git revision REV")
    args = parser.parse_args(argv)
    root = Path(args.dir)
    today = {str(path.relative_to(root)): code_lines(path.read_text())
             for path in root.rglob("*.py")}
    columns = [today]
    if args.against is not None:
        try:
            columns.insert(0, counts_at(root, args.against))
        except subprocess.CalledProcessError:  # git has said why
            return 1
    for name in sorted(set().union(*columns)):
        print(name, *(column.get(name, 0) for column in columns))
    print("total", *(sum(column.values()) for column in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
