"""tools/code_lines.py, the code-line counter that CHANGES.md and ROADMAP.md quote."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def code_lines(directory):
    """The counter's output lines on ``directory``."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(directory)],
        capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()


def test_counts_neither_docstrings_nor_comments_nor_blanks(tmp_path):
    (tmp_path / "mod.py").write_text(
        '"""A module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "def clamp(x):\n"
        '    """A function docstring."""\n'
        "    return max(\n"
        "        x, 0.0,\n"
        "    )\n"
    )
    # def, and the call's three lines
    assert code_lines(tmp_path) == ["mod.py 4", "total 4"]


def test_lists_every_module_of_the_package():
    package = ROOT / "src" / "gradtamper"
    *rows, total = code_lines(package)
    counts = {name: int(count) for name, count in (row.split() for row in rows)}
    assert sorted(counts) == sorted(path.name for path in package.glob("*.py"))
    assert all(count > 0 for count in counts.values())
    assert total == f"total {sum(counts.values())}"
