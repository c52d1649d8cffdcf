"""Package surface: the README's library import and the benchmark's hooks."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import gradtamper

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


def test_benchmark_targets_resolve(monkeypatch):
    # bench/spans.py patches these import sites by name; each must exist and
    # be callable, or the benchmark's tracer fails to install.
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attr, _ in spans.TARGETS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} does not resolve to a callable"
