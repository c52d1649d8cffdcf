"""The tools: code_lines.py, the code-line counter that CHANGES.md and ROADMAP.md quote,
and ab.py, the paired benchmark runs against a git revision."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def code_lines(directory, *flags):
    """The counter's output lines on ``directory``."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(directory), *flags],
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


def test_against_a_revision_counts_both_trees(tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], capture_output=True, check=True)

    git("init", "-q")
    (tmp_path / "kept.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "gone.py").write_text('"""Only a docstring."""\nz = 3\n')
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    (tmp_path / "kept.py").write_text("x = 1\ny = 2\n# a comment\nw = 4\n")
    (tmp_path / "gone.py").unlink()
    (tmp_path / "new.py").write_text("v = 5\n")
    git("add", "-A")
    git("commit", "-q", "-m", "second")
    (tmp_path / "new.py").write_text("v = 5\nu = 6\n")  # today's tree, not yet committed
    assert code_lines(tmp_path, "--against", "HEAD~1") == [
        "gone.py 1 0", "kept.py 2 3", "new.py 0 2", "total 3 5",
    ]
    assert code_lines(tmp_path, "--against", "HEAD")[-1] == "total 4 5"
    assert code_lines(tmp_path) == ["kept.py 3", "new.py 2", "total 5"]


def test_ab_pairs_a_tree_with_its_own_head(tmp_path):
    # A repository of the benchmark and the package, whose working tree is its
    # HEAD: one verify pair must see equal digests.
    tree = tmp_path / "repo"
    tree.mkdir()
    skip = shutil.ignore_patterns("__pycache__", ".bench_work")
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tree / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(["git", "-C", str(tree), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], capture_output=True, check=True)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), "HEAD",
         "--workload", "verify", "--pairs", "1", "--seconds", "0.5"],
        cwd=tree, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    pair, summary, *medians = proc.stdout.splitlines()[1:]
    assert pair.startswith("verify pair 1 (this tree first): min wall_s ")
    assert summary.startswith("verify: this tree won ") and summary.endswith("digests agree")
    # One pair's ratio is its median and both its quartiles.
    ratios = re.search(r"median ratio (\S+) \(quartiles (\S+) to (\S+)\)", summary)
    assert ratios[1] == ratios[2] == ratios[3]
    assert [line.split()[2] for line in medians] == [
        "wall_s", "setup_s", "peak_rss_mb", "cells_per_min", "steps_per_s", "final_test_acc",
    ]
