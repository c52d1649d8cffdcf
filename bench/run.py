"""gradtamper benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 bench/run.py --workload desk_grid --seed 1 --seconds 20 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``workloads.py``.
Each run starts fresh worker processes (``worker.py``) one after another:
``SETUP_SAMPLES`` of them time import plus warm-up, and the last one then
measures a closed loop of repetitions for ``--seconds``.  With ``--trace 1``
one worker measures half the time untraced and half with span wrappers
installed, and the run reports per-layer metrics instead.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  Run metadata,
output digests and raw samples go to ``.bench_work/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3
# One BLAS thread per worker.  On a 2-core machine a second OpenBLAS thread
# gave mnist_idx no speed-up and spun a second core busy on desk_grid.
BLAS_THREADS = 1
# Workers still running this long after the start are stopped and the run fails.
RUN_BUDGET_S = 170


def load_declared() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end-to-end and the per-layer metrics."""
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        kind: {m["name"]: m["unit"] for m in bench[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def end_to_end_metrics(setup_samples: list[float], measure: dict, spec: dict) -> dict[str, float]:
    """End-to-end metrics from the set-up samples and the measuring worker."""
    wall = statistics.median(measure["walls"])
    quality = measure["quality"]
    return {
        "wall_s": wall,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": measure["peak_rss_mb"],
        "cells_per_min": 60.0 * spec["cells_per_rep"] / wall,
        "steps_per_s": spec["steps_per_rep"] / wall,
        "final_test_acc": quality if quality == quality else 0.0,  # NaN when checks failed
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_worker(spec_path: Path, mode: str, result_path: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), mode, str(result_path)]
    timeout = max(deadline - time.monotonic(), 1.0)
    # On timeout subprocess.run kills the worker and waits for it to end.
    proc = subprocess.run(cmd, env=env, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradtamper" / "__init__.py").is_file():
        print(f"error: no gradtamper sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = load_declared()

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prepare, _ = WORKLOADS[args.workload]
    spec = prepare(args.seed, str(work))
    spec.update(workload=args.workload, root=str(ROOT), work=str(work), seconds=args.seconds)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)

    modes = ["trace"] if args.trace else ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]
    try:
        results = [
            _run_worker(spec_path, mode, work / f"worker-{i}.json", env, deadline)
            for i, mode in enumerate(modes)
        ]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = results[-1]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    for i, r in enumerate(results[1:], 1):
        for op, (got, want) in enumerate(zip(r["digests"], results[0]["digests"])):
            if got != want:
                failed += 1
                errors.append(f"worker {i} op {op}: output bytes differ from worker 0")

    if args.trace:
        kind, metrics = "per_layer", last["per_layer"]
        basis = f"totals over {len(last['traced_walls'])} traced repetitions"
    else:
        kind = "end_to_end"
        metrics = end_to_end_metrics([r["setup_s"] for r in results], last, spec)
        basis = (f"timings are medians of {len(last['walls'])} repetitions, "
                 f"setup_s of {len(results)} fresh processes")
    units = declared[kind]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(metrics)} differ from the {kind} metrics "
              f"declared in BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 1

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_commit": _git_commit(ROOT),
        **last["meta"],
    }
    detail = {
        "meta": meta,
        "digests": last["digests"],
        "setup_samples": [r["setup_s"] for r in results],
        "walls": last["walls"],
        "traced_walls": last.get("traced_walls"),
        "errors": errors,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=1))

    print(f"gradtamper benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("  meta " + json.dumps(meta, sort_keys=True))
    for op, digests in enumerate(last["digests"]):
        for name, digest in sorted(digests.items()):
            print(f"  sha256 op{op} {name} {digest}")
    print(f"  {kind} metrics ({basis}):")
    for name, unit in units.items():
        print(f"    {name:<46} {metrics[name]:.6g} {unit}")
    print(f"  failed_frac {failed}/{attempted} = {failed / attempted:.6g} ops")
    for err in errors:
        print(f"  FAILED: {err.splitlines()[0]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
