"""Package surface: the README's library import and stack bound, the benchmark's
hooks, dead imports, where a divergence error is built and caught and a layer
made, and the paths that the library opens."""

import ast
import csv
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradtamper
from gradtamper import grid
from gradtamper.cli import main
from gradtamper.data import write_idx_images, write_idx_labels
from gradtamper.harness import (
    DataSpec,
    TrainConfig,
    format_verify_report,
    load_datasets,
    verify_claims,
    write_metrics_csv,
)
from gradtamper.net import DenseNet, load_checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_block_imports():
    # The README's Library block imports each name from its module; the top
    # level holds only the version.
    text = (ROOT / "README.md").read_text()
    match = re.search(r"## Library\s+```python\n(.*?)\n```", text, re.S)
    assert match, "README has no Library block"
    block = ast.parse(match.group(1)).body
    assert block and all(
        isinstance(node, ast.ImportFrom) and node.module.startswith("gradtamper.")
        for node in block
    )
    namespace = {}
    exec(match.group(1), namespace)
    assert all(alias.name in namespace for node in block for alias in node.names)
    assert gradtamper.__all__ == ["__version__"]


def fresh_python(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports from ``src``."""
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True,
    ).stdout.strip()


def test_top_level_import_loads_no_submodule_and_not_numpy():
    code = (
        "import sys, gradtamper\n"
        "print(sorted(m for m in sys.modules if m.startswith('gradtamper') or m == 'numpy'))"
    )
    assert fresh_python(code) == "['gradtamper']"


def test_cli_import_loads_no_pool_machinery():
    # verify and grid import their pools when they run; train loads neither.
    code = (
        "import sys, gradtamper.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    assert fresh_python(code) == "[]"


def load_bench_module(name, monkeypatch):
    """Import ``bench/<name>.py`` from its file; ``bench`` is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_resolve(monkeypatch):
    # bench/spans.py patches these import sites by name; each must exist and
    # be callable, or the benchmark's tracer fails to install.
    spans = load_bench_module("spans", monkeypatch)
    assert spans.TARGETS
    for module_name, attr, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} does not resolve to a callable"


def test_benchmark_checkpoint_check_passes_a_trained_net(monkeypatch, tmp_path):
    # bench/workloads.py's mnist_idx check runs the saved net's layers over
    # the test split; it must read a checkpoint the CLI writes, and agree.
    workloads = load_bench_module("workloads", monkeypatch)
    rng = np.random.default_rng(0)
    paths = {}
    for split, count in (("train", 48), ("test", 24)):
        labels = np.arange(count, dtype=np.uint8) % 3
        images = rng.integers(0, 60, size=(count, 4, 4), dtype=np.uint8)
        images[np.arange(count), labels, labels] += 150  # a bright pixel per class: learnable
        paths[f"{split}_images"] = str(tmp_path / f"{split}-images.idx")
        paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels.idx")
        write_idx_images(paths[f"{split}_images"], images)
        write_idx_labels(paths[f"{split}_labels"], labels)
    flags = [f"--{key.replace('_', '-')}={path}" for key, path in paths.items()]
    out = tmp_path / "out"
    argv = ["train", "--data", "idx", *flags, "--hidden", "8", "--epochs", "10",
            "--batch-size", "8", "--warmup-epochs", "0", "--cooldown-epochs", "0",
            "--out", str(out)]
    assert main(argv) == 0
    with open(out / "train-000" / "metrics.csv") as fh:
        test_acc = float(list(csv.DictReader(fh))[-1]["test_acc"])
    res = workloads.check_mnist_idx(paths, 0, "", str(out))
    assert res.errors == []
    assert res.quality == test_acc > 0.5  # a trained net, not a chance score


def test_benchmark_reads_every_verify_property(monkeypatch):
    # bench/workloads.py scores the verify workload from the report's
    # property lines; each property must give exactly one matching line.
    workloads = load_bench_module("workloads", monkeypatch)
    report = verify_claims(seed=0, trials=2, class_counts=(3,))
    lines = format_verify_report(report).splitlines()
    matched = [m.groups() for m in map(workloads._PROPERTY_LINE.match, lines) if m]
    assert [(name, int(checks), int(fails)) for _, name, checks, fails in matched] == [
        (p.name, p.samples, p.failures) for p in report.properties
    ]


def test_only_data_reads_dataset_inputs():
    # IDX inputs are uint8 pixels; Dataset.features is what widens them to
    # float64, so no other module may read ``.inputs`` directly.
    package = ROOT / "src" / "gradtamper"
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "data.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "inputs"
    ]
    assert readers == []


def test_only_checks_and_data_read_dtype_kind():
    # A label array is checked once, by data.Dataset; _checks reads the kind
    # of a per-cell setting and data that of the values an IDX file is given.
    # A third reader would be a second label rule.
    package = ROOT / "src" / "gradtamper"
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("_checks.py", "data.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "kind"
        and isinstance(node.value, ast.Attribute) and node.value.attr == "dtype"
    ]
    assert readers == []


def test_only_lossgrad_reads_log_softmax():
    # The loss has one implementation, lossgrad's row cross-entropy, which the
    # training loss and verify's finite-difference oracle both call.
    package = ROOT / "src" / "gradtamper"
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        if path.name != "lossgrad.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if "log_softmax" in {getattr(node, key, None) for key in ("id", "attr", "name")}
    ]
    assert readers == []


def test_only_the_softmax_kernels_call_exp():
    # p' has one kernel, transform._softmax_rows, which training's softmax and
    # the power transform both call; besides it only the threshold kernel and
    # the log-softmax exponentiate, so a second p' kernel cannot come back.
    callers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "exp" and getattr(node.func.value, "id", None) == "np":
                callers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "gradtamper").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert set(callers) == {
        "transform._softmax_rows", "transform._threshold_rows", "lossgrad.log_softmax"
    }


def test_only_parse_value_list_splits_on_commas():
    # Every list the CLI takes goes through one reader, so a second list
    # parser cannot come back.
    tree = ast.parse((ROOT / "src" / "gradtamper" / "cli.py").read_text())
    reader = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "parse_value_list"
    )
    splits = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"split", "rsplit", "partition", "rpartition"}
        and any(isinstance(arg, ast.Constant) and arg.value == "," for arg in node.args)
    ]
    assert splits
    assert [line for line in splits if not reader.lineno <= line <= reader.end_lineno] == []


def test_every_import_is_used(monkeypatch):
    # A module imports only what it reads.  The exceptions are the import
    # sites bench/spans.py patches.
    spans = load_bench_module("spans", monkeypatch)
    patched = {(module_name, attr) for module_name, attr, _ in spans.TARGETS}
    unused = []
    for path in sorted((ROOT / "src" / "gradtamper").glob("*.py")):
        module_name = "gradtamper" if path.stem == "__init__" else f"gradtamper.{path.stem}"
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and (module_name, name) not in patched:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_readme_states_the_stack_bound():
    # The README gives grid_search's stack bound in step elements, the size
    # above which a cell trains alone, and a desk cell's size; all three must
    # be the code's.
    text = " ".join((ROOT / "README.md").read_text().split())
    match = re.search(
        r"stacks of at most ([\d,]+) step elements in all, .*? \(so a cell of more than "
        r"([\d,]+) trains alone; a desk cell has ([\d,]+)\)",
        text,
    )
    assert match, "README states no stack bound"
    bound, alone, desk = (int(group.replace(",", "")) for group in match.groups())
    desk_cell = grid._step_elements(TrainConfig(), load_datasets(DataSpec())[0])
    assert (bound, alone, desk) == (
        grid._STACK_ELEMENTS, grid._STACK_ELEMENTS // 2, desk_cell
    )


def test_divergence_errors_are_built_in_the_training_loop_and_caught_in_main():
    # Divergence stays per-cell data inside the training loop: only
    # harness._train_cells turns it into a DivergenceError, and only cli.main
    # catches one (to exit 5).
    def names(node):
        return {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node)}

    built, caught = set(), set()
    for path in sorted((ROOT / "src" / "gradtamper").glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> its outermost enclosing function; ast.walk goes outside in
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    owner.setdefault(node, func.name)
        for node in ast.walk(tree):
            where = f"{path.stem}.{owner.get(node, '<module>')}"
            if isinstance(node, ast.Call) and "DivergenceError" in names(node.func):
                built.add(where)
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "DivergenceError" in names(node.type):
                    caught.add(where)
    assert built == {"harness._train_cells"}
    assert caught == {"cli.main"}


def test_only_the_net_record_builds_its_layers():
    # A net is its params: DenseNet.__post_init__ makes the layer views, once,
    # and nothing else in the package builds a DenseLayer.
    builders = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            if "DenseLayer" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                builders.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted((ROOT / "src" / "gradtamper").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    assert builders == ["net.DenseNet.__post_init__"]


# Every library function that opens a path, called with a descriptor; a
# reader gets a pipe's read end, a writer its write end.
PATH_OPENERS = {
    "save_checkpoint": lambda fd: save_checkpoint(DenseNet(np.zeros(6), (2, 2), ("identity",)), fd),
    "load_checkpoint": load_checkpoint,
    "write_idx_images": lambda fd: write_idx_images(fd, np.zeros((1, 2, 2), np.uint8)),
    "write_idx_labels": lambda fd: write_idx_labels(fd, np.zeros(1, np.uint8)),
    "write_metrics_csv": lambda fd: write_metrics_csv([], fd),
    "grid_search": lambda fd: grid.grid_search(TrainConfig(epochs=1), [1.0], [0], fd),
}


@pytest.mark.parametrize("name", PATH_OPENERS)
def test_a_descriptor_is_not_a_path(name):
    # open() takes an int as a file descriptor and closes it when done.  Only
    # a pipe's descriptors are probed here, never this process's stdio.
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)  # a read of the empty pipe cannot hang
    fd = read_end if name.startswith("load") else write_end
    try:
        with pytest.raises(ValueError, match=r"must be a path \(str or os.PathLike\), got \d+"):
            PATH_OPENERS[name](fd)
        os.fstat(fd)  # still open
        with pytest.raises(BlockingIOError):  # empty, its write end open: nothing written
            os.read(read_end, 1)
    finally:
        os.close(read_end)
        os.close(write_end)
