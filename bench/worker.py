"""One fresh process of the benchmark: timed set-up, then repetitions.

Usage: ``python3 bench/worker.py SPEC_JSON MODE RESULT_JSON`` with MODE one of

- ``setup``: import gradtamper and run one untimed warm-up repetition;
- ``measure``: the same, then timed repetitions for ``spec["seconds"]``;
- ``trace``: the same, then half the time untraced and half traced.

Set-up time runs from the top of this file, before gradtamper and numpy
are imported, to the end of the warm-up.  A repetition is timed around the
``gradtamper.cli.main`` calls only; checks run after the clock stops.
run.py starts this script; it is not meant to be run by hand.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import OUT, WORKLOADS  # noqa: E402


class Runner:
    """Runs repetitions of one workload and checks every op's outputs."""

    def __init__(self, spec: dict, check) -> None:
        import gradtamper.cli

        self.cli = gradtamper.cli
        self.spec = spec
        self.check = check
        self.runs = os.path.join(spec["work"], f"runs-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_digests: list[dict] | None = None
        self.qualities: list[float] = []

    def _op(self, argv: list[str]) -> tuple[float, int, str, str]:
        out = os.path.join(self.runs, str(self.attempted))
        os.makedirs(out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                # Looked up on each call, so a tracer's wrapper is used.
                rc = self.cli.main([out if a == OUT else a for a in argv])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
            wall = time.perf_counter() - start
        return wall, rc, buf.getvalue(), out

    def rep(self) -> float:
        """One repetition; returns the wall time of its CLI calls in seconds."""
        total = 0.0
        digests: list[dict] = []
        qualities = []
        for index, argv in enumerate(self.spec["ops"]):
            self.attempted += 1
            try:
                wall, rc, stdout, out = self._op(argv)
                total += wall
                found = self.check(self.spec, rc, stdout, out)
                shutil.rmtree(out)
            except Exception:  # a crash in one op is a failed op, not a lost run
                self._fail(f"op {index} raised:\n{traceback.format_exc()}")
                digests.append({})
                continue
            digests.append(found.digests)
            qualities.append(found.quality)
            if found.errors:
                self._fail(f"op {index}: " + "; ".join(found.errors))
            elif self.first_digests is not None and found.digests != self.first_digests[index]:
                self._fail(f"op {index}: output bytes differ from the first repetition")
        if self.first_digests is None:
            self.first_digests = digests
        self.qualities.append(statistics.fmean(qualities) if qualities else float("nan"))
        return total

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)
        print(message, file=sys.stderr)

    def loop(self, seconds: float, after_rep=None) -> list[float]:
        """Closed loop: repetitions back to back for about ``seconds``.

        A repetition starts only if one of average length still fits, so a
        run does not overshoot by most of a long repetition.
        """
        walls = []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start + statistics.fmean(walls) <= seconds:
            walls.append(self.rep())
            if after_rep is not None:
                after_rep()
        return walls


def _blas() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy builds without the dict form
        return {"name": "unknown", "version": "unknown"}
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _traced(runner: Runner, seconds: float, untraced_walls: list[float]):
    """Traced repetitions; returns the per-layer metrics and their walls.

    Spans are folded into totals after each repetition, outside its timed
    part; the last repetition's spans are written to ``spans.csv``.
    """
    from spans import Totals, Tracer, fold, per_layer_metrics

    tracer = Tracer()
    totals: dict[str, Totals] = {}
    fired: list[int] = []
    last_spans: list = []

    def fold_rep() -> None:
        nonlocal last_spans
        last_spans = tracer.spans()
        for name, t in fold(last_spans).items():
            totals.setdefault(name, Totals()).add(t)
        fired.append(tracer.clip_fired)
        tracer.clear()

    tracer.install()
    try:
        walls = runner.loop(seconds, after_rep=fold_rep)
    finally:
        tracer.remove()

    with open(os.path.join(runner.spec["work"], "spans.csv"), "w") as fh:
        fh.write("id,parent,name,start_ns,end_ns\n")
        for i, (name, start, end, parent) in enumerate(last_spans):
            fh.write(f"{i},{parent},{name},{start},{end}\n")

    reps = len(walls)
    untraced = statistics.median(untraced_walls)
    metrics = per_layer_metrics(
        totals,
        reps=reps,
        steps=reps * runner.spec["steps_per_rep"],
        epochs=reps * runner.spec["epochs_per_rep"],
        clip_fired=sum(fired),
        overhead_frac=(statistics.median(walls) - untraced) / untraced,
    )
    return metrics, walls


def main(argv: list[str]) -> int:
    spec_path, mode, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import gradtamper

    if os.path.dirname(os.path.dirname(os.path.abspath(gradtamper.__file__))) != src:
        print(f"gradtamper was imported from {gradtamper.__file__}, not {src}", file=sys.stderr)
        return 2

    runner = Runner(spec, WORKLOADS[spec["workload"]][1])
    runner.rep()  # warm-up
    result: dict = {"setup_s": time.perf_counter() - T0}

    seconds = spec["seconds"]
    if mode == "measure":
        result["walls"] = runner.loop(seconds)
    elif mode == "trace":
        result["walls"] = runner.loop(seconds / 2)
        result["per_layer"], result["traced_walls"] = _traced(
            runner, seconds / 2, result["walls"]
        )

    import numpy as np

    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors,
        digests=runner.first_digests,
        # Quality of the last repetition; every repetition's bytes match the
        # first one's or the mismatch is counted as a failure.
        quality=runner.qualities[-1],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        meta={
            "gradtamper": gradtamper.__version__,
            "numpy": np.__version__,
            "blas": _blas(),
            "threads_env": {
                var: os.environ.get(var)
                for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
        },
    )
    shutil.rmtree(runner.runs, ignore_errors=True)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
