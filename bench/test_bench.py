"""Self-tests for the benchmark's span bookkeeping, checks and declarations.

Run from the repository root with ``python3 -m unittest discover -s bench``
(or ``python3 -m pytest bench``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import re
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=-1):
    return (name, start, end, parent)


class SelfTimeTest(unittest.TestCase):
    def test_nested_self_time_is_duration_minus_child_coverage(self):
        s = [
            _span("root", 0, 100),
            _span("a", 10, 30, 0),
            _span("a.x", 12, 20, 1),
            _span("b", 40, 70, 0),
        ]
        self.assertEqual(spans.self_times(s), [100 - 20 - 30, 20 - 8, 8, 30])

    def test_overlapping_and_overhanging_children_count_once(self):
        s = [
            _span("root", 0, 100),
            _span("c1", 10, 30, 0),
            _span("c2", 20, 50, 0),  # overlaps c1 on [20, 30]
            _span("c3", 90, 120, 0),  # runs past the parent's end
        ]
        # Coverage inside [0, 100]: [10, 50] and [90, 100].
        self.assertEqual(spans.self_times(s)[0], 100 - 40 - 10)

    def test_fold_keeps_evaluation_out_of_step_totals(self):
        s = [
            _span("harness.train", 0, 100),
            _span("net.forward", 0, 10, 0),
            _span(spans.EVALUATE, 50, 90, 0),
            _span("net.forward", 55, 80, 2),
        ]
        totals = spans.fold(s)
        fwd = totals["net.forward"]
        self.assertEqual((fwd.calls, fwd.total_ns), (2, 35))
        self.assertEqual((fwd.step_calls, fwd.step_ns), (1, 10))
        self.assertEqual(totals["harness.train"].self_ns, 100 - 10 - 40)
        self.assertEqual(totals[spans.EVALUATE].self_ns, 40 - 25)


def _module_dicts() -> dict[str, dict]:
    return {
        name: dict(vars(importlib.import_module(name)))
        for name in {module for module, _, _ in spans.TARGETS}
    }


class TracerTest(unittest.TestCase):
    def test_install_then_remove_restores_every_attribute(self):
        before = _module_dicts()
        tracer = spans.Tracer()
        tracer.install()
        try:
            import gradtamper.harness

            self.assertIsNot(gradtamper.harness.forward, before["gradtamper.harness"]["forward"])
        finally:
            tracer.remove()
        after = _module_dicts()
        self.assertEqual(before.keys(), after.keys())
        for name, attrs in before.items():
            self.assertEqual(attrs.keys(), after[name].keys(), name)
            for key, value in attrs.items():
                self.assertIs(after[name][key], value, f"{name}.{key}")

    def test_double_install_is_refused(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with self.assertRaises(RuntimeError):
                tracer.install()
        finally:
            tracer.remove()

    def test_spans_of_a_small_training_run(self):
        from gradtamper.harness import DataSpec, TrainConfig
        from gradtamper.schedule import ScheduleSpec
        from gradtamper.transform import TamperSpec
        import gradtamper.harness as harness

        config = TrainConfig(
            hidden=(8,),
            epochs=2,
            batch_size=16,
            schedule=ScheduleSpec(base_lr=1e-3, peak_lr=0.05, warmup_epochs=0,
                                  total_epochs=2, cooldown_epochs=0),
            tamper=TamperSpec(0.5),
            clip_lambda=1e-3,
            data=DataSpec(classes=3, per_class=20, features=4, seed=1),
        )
        tracer = spans.Tracer()
        tracer.install()
        try:
            harness.train(config)
        finally:
            tracer.remove()
        recorded = tracer.spans()
        names = [name for name, _, _, _ in recorded]
        steps = 2 * 3  # 48 training rows / batch 16, two epochs
        self.assertEqual(names.count("net.sgd_step"), steps)
        self.assertEqual(names.count(spans.EVALUATE), 2 * 2)
        for name, start, end, parent in recorded:
            self.assertLessEqual(start, end)
            if name == "net.forward":
                self.assertIn(recorded[parent][0], ("harness.train", spans.EVALUATE))
            if name == "transform.power_transform_rows":
                self.assertEqual(recorded[parent][0], "lossgrad.tampered_dlogits")
        self.assertEqual(tracer.clip_fired, steps)  # the tiny clip norm always fires
        metrics = spans.per_layer_metrics(
            spans.fold(recorded), reps=1, steps=steps, epochs=2,
            clip_fired=tracer.clip_fired, overhead_frac=0.0,
        )
        self.assertEqual(metrics["lossgrad.smooth_label_rows.calls_per_step"], 2.0)
        self.assertEqual(metrics["net.clip_grads_global.fired_frac"], 1.0)
        self.assertGreater(metrics["harness.train.self_ms_per_step"], 0.0)


class DeclarationTest(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            self.bench = json.load(fh)
        self.declared = run.load_declared()

    def test_printed_metric_names_are_declared(self):
        per_layer = spans.per_layer_metrics({}, reps=1, steps=0, epochs=0,
                                            clip_fired=0, overhead_frac=0.0)
        self.assertEqual(list(per_layer), list(self.declared["per_layer"]))
        measure = {"walls": [1.0, 2.0], "quality": 0.5, "peak_rss_mb": 10.0}
        spec = {"cells_per_rep": 2, "steps_per_rep": 10}
        end_to_end = run.end_to_end_metrics([1.0], measure, spec)
        self.assertEqual(set(end_to_end), set(self.declared["end_to_end"]))

    def test_workloads_match_the_declaration(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]], list(workloads.WORKLOADS))

    def test_benchmark_json_shape(self):
        self.assertEqual(set(self.bench), {"command", "paths", "run_seconds", "workloads",
                                           "end_to_end", "per_layer"})
        for metric in self.bench["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        self.assertEqual(max(m["bound"] for m in self.bench["end_to_end"]),
                         next(m["bound"] for m in self.bench["end_to_end"]
                              if m["name"] == "setup_s"))
        for metric in self.bench["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        names = [m["name"] for kind in ("end_to_end", "per_layer") for m in self.bench[kind]]
        names += [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

    def test_readme_maps_every_per_layer_metric(self):
        readme = (BENCH / "README.md").read_text().split("## Per-layer metrics")[1]
        mapped = set(re.findall(r"^\| `([^`]+)` \|", readme, re.M))
        self.assertEqual(mapped, set(self.declared["per_layer"]))


def _cli(argv: list[str]) -> tuple[int, str]:
    import gradtamper.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = gradtamper.cli.main(argv)
    return rc, buf.getvalue()


class CheckTest(unittest.TestCase):
    def test_derived_seeds_depend_only_on_workload_and_seed(self):
        a = workloads.derived_seeds("verify", 3, 4)
        self.assertEqual(a, workloads.derived_seeds("verify", 3, 4))
        self.assertNotEqual(a, workloads.derived_seeds("verify", 4, 4))
        self.assertNotEqual(a, workloads.derived_seeds("desk_grid", 3, 4))

    def test_verify_check_passes_a_real_report_and_catches_failures(self):
        rc, out = _cli(["verify", "--trials", "3", "--classes", "2"])
        found = workloads.check_verify({}, rc, out, "")
        self.assertEqual(found.errors, [])
        self.assertEqual(found.quality, 1.0)
        failing = re.sub(r"PASS (\S+)(.*); (\d+) checks, 0 failures",
                         r"FAIL \1\2; \3 checks, 1 failures", out, count=1)
        self.assertEqual(len(workloads.check_verify({}, 6, failing, "").errors), 2)
        empty = re.sub(r"(\d+) checks", "0 checks", out, count=1)
        self.assertEqual(len(workloads.check_verify({}, 0, empty, "").errors), 1)

    def test_desk_check_counts_rows_against_cells(self):
        with tempfile.TemporaryDirectory() as out:
            rc, _ = _cli(["grid", "--grid-alphas", "0.5,1.0", "--grid-seeds", "3",
                          "--epochs", "4", "--total-epochs", "4", "--warmup-epochs", "1",
                          "--cooldown-epochs", "1", "--out", out])
            spec = {"expected_cells": [["0.5", 3], ["1.0", 3]]}
            found = workloads.check_desk_grid(spec, rc, "", out)
            self.assertEqual(found.errors, [])
            self.assertEqual(set(found.digests), {"grid.csv"})
            spec = {"expected_cells": [["0.5", 3], ["1.0", 3], ["1.0", 4]]}
            self.assertEqual(len(workloads.check_desk_grid(spec, rc, "", out).errors), 2)

    def test_mnist_check_rescores_the_checkpoint(self):
        with tempfile.TemporaryDirectory() as work:
            import numpy as np

            rng = np.random.default_rng(0)
            paths = {}
            for split, count in (("train", 60), ("test", 20)):
                labels = (np.arange(count) % 3).astype(np.uint8)
                images = rng.integers(0, 256, size=(count, 2, 2), dtype=np.uint8)
                images[:, 0, 0] = labels * 100
                paths[split] = (os.path.join(work, f"{split}-i"), os.path.join(work, f"{split}-l"))
                workloads._write_idx(paths[split][0], images, (0x803, count, 2, 2))
                workloads._write_idx(paths[split][1], labels, (0x801, count))
            out = os.path.join(work, "out")
            rc, _ = _cli(["train", "--data", "idx",
                          "--train-images", paths["train"][0], "--train-labels", paths["train"][1],
                          "--test-images", paths["test"][0], "--test-labels", paths["test"][1],
                          "--hidden", "4", "--epochs", "2", "--warmup-epochs", "0",
                          "--cooldown-epochs", "0", "--out", out])
            spec = {"test_images": paths["test"][0], "test_labels": paths["test"][1]}
            found = workloads.check_mnist_idx(spec, rc, "", out)
            self.assertEqual(found.errors, [])
            self.assertEqual(set(found.digests), {"metrics.csv", "net.ckpt"})
            # A test_acc the checkpoint does not reproduce is caught.
            metrics = Path(out, os.listdir(out)[0], "metrics.csv")
            lines = metrics.read_text().splitlines()
            fields = dict(zip(lines[0].split(","), lines[-1].split(",")))
            fields["test_acc"] = "0.123"  # not a multiple of 1/20
            lines[-1] = ",".join(fields.values())
            metrics.write_text("\n".join(lines) + "\n")
            self.assertEqual(len(workloads.check_mnist_idx(spec, rc, "", out).errors), 1)


if __name__ == "__main__":
    unittest.main()
