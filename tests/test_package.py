"""Package surface: the README's library import and stack bound, the benchmark's
hooks, dead imports."""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gradtamper
from gradtamper import grid, harness
from gradtamper.harness import (
    DataSpec,
    TrainConfig,
    format_verify_report,
    load_datasets,
    verify_claims,
)

ROOT = Path(__file__).resolve().parent.parent


def readme_library_import():
    """The ``from gradtamper import (...)`` statement of the README's Library block."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"## Library\s+```python\n(from gradtamper import \(.*?\))\n```", text, re.S)
    assert match, "README has no Library block"
    return match.group(1)


def test_readme_library_block_imports():
    statement = readme_library_import()
    namespace = {}
    exec(statement, namespace)
    names = set(re.findall(r"\w+", re.sub(r"#.*", "", statement.split("(", 1)[1])))
    assert names and all(name in namespace for name in names)
    # That block is the whole top level, apart from the version.
    assert set(gradtamper.__all__) == names | {"__version__"}


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


def test_every_import_is_used(monkeypatch):
    # A module imports only what it reads.  The exceptions are the package's
    # re-exports in ``__init__`` and the import sites bench/spans.py patches.
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
                exempt = (module_name, name) in patched or (
                    module_name == "gradtamper" and name in gradtamper.__all__
                )
                if name not in read and not exempt:
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
    desk_cell = harness._step_elements(TrainConfig(), load_datasets(DataSpec())[0])
    assert (bound, alone, desk) == (
        grid._STACK_ELEMENTS, grid._STACK_ELEMENTS // 2, desk_cell
    )
