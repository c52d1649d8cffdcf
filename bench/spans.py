"""In-memory spans around the functions each gradtamper module imports.

A :class:`Tracer` replaces module attributes such as ``gradtamper.harness.forward``
with wrappers that record one span (name, start, end, parent) per call.  The
package itself is not edited: a call made through a patched attribute is
timed, a call that reaches the function some other way is not.  Span names
are ``<defining module>.<function>``, so a function imported into several
modules keeps one name.

A span's self time is its duration minus the part of its interval that its
child spans cover.  :func:`fold` reduces a list of spans to per-name totals,
and :func:`per_layer_metrics` turns those totals into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

# (module, attribute, span name).  Each entry is one import site; a function
# reached through several modules is patched at each of them.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("gradtamper.cli", "main", "cli.main"),
    ("gradtamper.cli", "train", "harness.train"),
    ("gradtamper.cli", "grid_search", "harness.grid_search"),
    ("gradtamper.cli", "verify_claims", "harness.verify_claims"),
    ("gradtamper.cli", "write_metrics_csv", "harness.write_metrics_csv"),
    ("gradtamper.cli", "save_checkpoint", "net.save_checkpoint"),
    ("gradtamper.harness", "train", "harness.train"),
    ("gradtamper.harness", "_evaluate", "harness._evaluate"),
    ("gradtamper.harness", "forward", "net.forward"),
    ("gradtamper.harness", "backward", "net.backward"),
    ("gradtamper.harness", "sgd_step", "net.sgd_step"),
    ("gradtamper.harness", "clip_grads_global", "net.clip_grads_global"),
    ("gradtamper.harness", "softmax", "lossgrad.softmax"),
    ("gradtamper.harness", "batch_cross_entropy", "lossgrad.batch_cross_entropy"),
    ("gradtamper.harness", "tampered_dlogits", "lossgrad.tampered_dlogits"),
    ("gradtamper.harness", "smooth_label_rows", "lossgrad.smooth_label_rows"),
    ("gradtamper.lossgrad", "smooth_label_rows", "lossgrad.smooth_label_rows"),
    ("gradtamper.harness", "power_transform_rows", "transform.power_transform_rows"),
    ("gradtamper.lossgrad", "power_transform_rows", "transform.power_transform_rows"),
    ("gradtamper.transform", "power_transform_rows", "transform.power_transform_rows"),
    ("gradtamper.harness", "threshold_monotonicity_check",
     "transform.threshold_monotonicity_check"),
    ("gradtamper.harness", "lr_at", "schedule.lr_at"),
    ("gradtamper.harness", "load_idx", "data.load_idx"),
    ("gradtamper.harness", "synth_blobs", "data.synth_blobs"),
)

# Spans below this one are evaluation passes, not part of an optimizer step.
EVALUATE = "harness._evaluate"
CLIP = "net.clip_grads_global"


class Tracer:
    """Records spans while its wrappers are installed.

    Spans live in parallel lists indexed by span id; ``parents[i]`` is the id
    of the span that was open when span ``i`` started, or -1.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.clip_fired = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Drop recorded spans and counts; the wrappers stay installed."""
        self.names.clear()
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.clip_fired = 0

    def wrap(self, name: str, fn):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(starts)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0)
            open_.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                open_.pop()
            # clip_grads_global hands back its input list unless it rescaled.
            if name == CLIP and result is not (args[0] if args else kwargs["grads"]):
                self.clip_fired += 1
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def spans(self) -> list[tuple[str, int, int, int]]:
        """Recorded spans as (name, start_ns, end_ns, parent id)."""
        return list(zip(self.names, self.starts, self.ends, self.parents))


@dataclass
class Totals:
    """Per-name sums over spans; ``step_*`` leave out evaluation passes."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    step_calls: int = 0
    step_ns: int = 0
    step_self_ns: int = 0

    def add(self, other: "Totals") -> None:
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))


def self_times(spans) -> list[int]:
    """Self time of each span: duration minus the union of its children.

    Spans must be listed in start order, as a tracer records them.  Children
    are clipped to their parent's interval and may overlap each other.
    """
    covered = [0] * len(spans)
    reach = {}  # parent id -> end of the child coverage merged so far
    for _, start, end, parent in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(start, p_start, reach.get(parent, p_start))
        hi = min(end, p_end)
        if hi > lo:
            covered[parent] += hi - lo
        reach[parent] = max(reach.get(parent, p_start), hi)
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def fold(spans) -> dict[str, Totals]:
    """Per-name call counts, inclusive and self times."""
    selfs = self_times(spans)
    in_eval = [False] * len(spans)
    out: dict[str, Totals] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        in_eval[i] = name == EVALUATE or (parent >= 0 and in_eval[parent])
        t = out.setdefault(name, Totals())
        t.calls += 1
        t.total_ns += end - start
        t.self_ns += selfs[i]
        if not in_eval[i]:
            t.step_calls += 1
            t.step_ns += end - start
            t.step_self_ns += selfs[i]
    return out


def per_layer_metrics(
    totals: dict[str, Totals],
    reps: int,
    steps: int,
    epochs: int,
    clip_fired: int,
    overhead_frac: float,
) -> dict[str, float]:
    """The benchmark's per-layer metrics from totals over ``reps`` repetitions.

    ``steps`` and ``epochs`` are the totals those repetitions ran.  A
    ``ms_per_step`` metric counts only calls outside evaluation passes; a
    layer a workload never calls reads 0.
    """
    def get(name: str) -> Totals:
        return totals.get(name, Totals())

    def per_step(ns: float) -> float:
        return ns / 1e6 / steps if steps else 0.0

    def per_rep(ns: float) -> float:
        return ns / 1e6 / reps

    clip = get(CLIP)
    return {
        "net.forward.ms_per_step": per_step(get("net.forward").step_ns),
        "net.backward.ms_per_step": per_step(get("net.backward").step_ns),
        "net.sgd_step.ms_per_step": per_step(get("net.sgd_step").step_ns),
        "net.clip_grads_global.ms_per_step": per_step(clip.step_ns),
        "net.clip_grads_global.fired_frac": clip_fired / clip.calls if clip.calls else 0.0,
        "net.save_checkpoint.ms": per_rep(get("net.save_checkpoint").total_ns),
        "lossgrad.softmax.ms_per_step": per_step(get("lossgrad.softmax").step_ns),
        "lossgrad.batch_cross_entropy.ms_per_step":
            per_step(get("lossgrad.batch_cross_entropy").step_ns),
        "lossgrad.tampered_dlogits.self_ms_per_step":
            per_step(get("lossgrad.tampered_dlogits").step_self_ns),
        "lossgrad.smooth_label_rows.calls_per_step":
            get("lossgrad.smooth_label_rows").step_calls / steps if steps else 0.0,
        "transform.power_transform_rows.ms_per_step":
            per_step(get("transform.power_transform_rows").step_ns),
        "transform.threshold_monotonicity_check.ms":
            per_rep(get("transform.threshold_monotonicity_check").total_ns),
        "transform.threshold_monotonicity_check.calls":
            get("transform.threshold_monotonicity_check").calls / reps,
        "schedule.lr_at.ms_per_step": per_step(get("schedule.lr_at").step_ns),
        "data.load_idx.ms": per_rep(get("data.load_idx").total_ns),
        "data.synth_blobs.ms": per_rep(get("data.synth_blobs").total_ns),
        "harness.train.self_ms_per_step": per_step(get("harness.train").self_ns),
        "harness._evaluate.ms_per_epoch":
            get(EVALUATE).total_ns / 1e6 / epochs if epochs else 0.0,
        "harness.grid_search.self_ms": per_rep(get("harness.grid_search").self_ns),
        "harness.verify_claims.self_ms": per_rep(get("harness.verify_claims").self_ns),
        "harness.write_metrics_csv.ms": per_rep(get("harness.write_metrics_csv").total_ns),
        "cli.main.self_ms": per_rep(get("cli.main").self_ns),
        "trace.overhead_frac": overhead_frac,
    }
