"""Grid sweeps: every (alpha, seed) cell of a tampering sweep, resumable.

``grid_search`` sweeps tampering strengths and seeds through ``harness``'s
training loop, in stacks of small nets that train in forked worker
processes, one per usable CPU, evaluating each cell after its last epoch
alone, with CSV persistence by this process alone, so an interrupted sweep
resumes by skipping finished cells.  ``grid.csv`` keeps ``harness``'s CSV
conventions: its header names :class:`GridRow`'s fields, and its floats are
written with ``repr``.
"""

from __future__ import annotations

import ctypes
import math
import os
import signal
import sys
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from typing import get_type_hints

from ._checks import check_path, check_sequence, is_count
from .data import Dataset
from .harness import (
    DivergenceError,
    TrainConfig,
    _csv_header,
    _csv_line,
    _train_cells,
    _usable_cpus,
    datasets_for,
)
from .net import param_count
from .transform import TamperSpec

# ``grid_search`` trains its cells in stacks whose ``_step_elements`` (below,
# the one measure of what a cell's step holds) add up to at most this many.
# Stacking pays while per-call overhead dominates a step, and a step's work and
# memory grow with the batch as well as with the parameters, so a bound on
# parameters alone made full-batch grids slower.
# Grid time per cell in ms, by cells per stack: the first grid of a fresh
# process, median of 4 to 8 interleaved runs of 16 to 128 cells on 800 blob
# rows (784 features for the 784-input nets, 8 and 4 epochs), one BLAS
# thread, 2-vCPU x86 host.  [n] is what this bound gives, (n) what the former
# bound of 2^14 parameters gave.
#
#   net         batch  elements  ms per cell at that many cells per stack
#   20-64-10       32     5,002  (8) 44-51  16: 41-43  32: 38  [104]  128: 36
#   20-64-10        8     2,746  (8) 130-144  32: 83  128: 74  [190]
#   20-64-10      160    17,034  (8) 35  16: 34  [30]  32: 33  128: 41
#   20-64-10      800    77,194  1: 44  2: 36  5: 33  [6] 37  (8) 33-39  16: 39  128: 54
#   20-256-10      32    17,098  (2) 158-163  4: 129  16: 99-111  [30]  32: 104
#   20-256-10     800   236,746  1: 110  (2) [2] 89-100  4: 99  16: 129  32: 178
#   784-64-10      32    78,346  (1) 147  2: 124  5: 116  [6]  10: 109
#   784-256-10     32   237,130  (1) 206  [2] 197
#
# No size measured slower at this bound than at the former one.  It also caps
# what a kill loses and what a stack holds in memory.
_STACK_ELEMENTS = 1 << 19


def _step_elements(base: TrainConfig, train_ds: Dataset) -> int:
    """Float64 values one cell's training step holds: the net's parameters,
    plus a batch's worth of rows for every layer width, input included."""
    sizes = [train_ds.num_features, *base.hidden, train_ds.num_classes]
    return param_count(sizes) + base.batch_size * sum(sizes)


@dataclass(frozen=True)
class GridRow:
    """Final metrics of one (alpha, seed) cell; NaNs when the cell diverged."""

    alpha: float
    seed: int
    final_train_acc: float
    final_test_acc: float
    gap: float
    mean_logit_norm: float
    status: str


GRID_HEADER = _csv_header(GridRow)

# The type of each GridRow field, in order, which reads its CSV text back.
_GRID_TYPES = tuple(get_type_hints(GridRow).values())


def _parse_grid_row(line: str) -> GridRow:
    """A ``grid.csv`` row, each field read as :class:`GridRow` annotates it."""
    try:
        values = [kind(raw) for kind, raw in zip(_GRID_TYPES, line.split(","), strict=True)]
    except ValueError:  # a field that does not parse, or too few or too many
        values = None
    if values is None or values[-1] not in ("ok", "diverged"):
        raise ValueError(f"malformed grid row: {line!r}")
    return GridRow(*values)


def check_grid(alphas: list[float], seeds: list[int]) -> None:
    """Reject an axis that is not a sequence, and an empty, out-of-range or
    repeated alpha or seed, with ValueError."""
    check_sequence("grid alphas", alphas)
    check_sequence("grid seeds", seeds)
    if len(alphas) == 0:
        raise ValueError("grid needs at least one alpha")
    if len(seeds) == 0 or not all(is_count(seed) and seed >= 0 for seed in seeds):
        raise ValueError(f"grid needs at least one seed, all integers >= 0, got {seeds!r}")
    for alpha in alphas:
        TamperSpec(alpha)  # rejects a bad alpha before any training
    if len(set(map(float, alphas))) < len(alphas) or len(set(seeds)) < len(seeds):
        raise ValueError(f"grid alphas and seeds must not repeat, got {alphas!r} and {seeds!r}")


def grid_search(
    base: TrainConfig,
    alphas: list[float],
    seeds: list[int],
    csv_path: str,
    datasets: tuple[Dataset, Dataset] | None = None,
) -> list[GridRow]:
    """Sweep ``alphas x seeds``, appending one CSV row per cell.

    The cells not yet in the CSV train in lockstep, in consecutive stacks of
    at most ``_STACK_ELEMENTS`` step elements in all (parameters plus a
    batch's rows of every layer width, so one cell at a time for a cell of
    more than half of that), and of at most an equal share of the cells per
    CPU that this process may run on.  The stacks train in forked worker
    processes, one per CPU, or in this process where there is one CPU or no
    ``fork``; a cell's bits do not depend on its stack or its process.  This
    process alone writes the CSV: a stack's rows are appended in sweep order
    and flushed once it and every earlier stack have finished, and at most
    one stack per worker is out at a time.  If ``csv_path`` already holds
    rows (same header), those (alpha, seed) cells are skipped and the stored
    rows are returned in their place, so a killed sweep resumes where it
    stopped; a kill loses the stacks not yet written, at most one per worker:
    the whole of a 16-cell desk grid, or 2 cells of a 784-256-10 net at batch
    32 per worker.  A last line without its newline is a row the kill cut
    short: it is cut off the file and its cell runs again.  An exception in
    a worker is raised here with its own type, once the stacks still
    training have ended; no worker outlives the call.
    A cell is evaluated once, after its last epoch, the one its row keeps.
    It is recorded with status ``diverged`` and NaN metrics iff a training
    step's logits or loss, or that evaluation, go non-finite; it does not
    stop the sweep.  Rows come back in sweep order.
    """
    check_path("grid CSV", csv_path)
    check_grid(alphas, seeds)
    done: dict[tuple[str, int], GridRow] = {}
    fresh = True
    if os.path.exists(csv_path) and os.path.getsize(csv_path) > 0:
        with open(csv_path, "r+b") as fh:
            blob = fh.read()
            end = blob.rfind(b"\n") + 1  # every complete row ends in a newline
            lines = [ln.strip() for ln in blob[:end].decode().splitlines() if ln.strip()]
            if not lines or lines[0] != GRID_HEADER:
                raise ValueError(
                    f"{csv_path} exists but does not start with the grid header {GRID_HEADER!r}"
                )
            for ln in lines[1:]:
                row = _parse_grid_row(ln)
                done[(repr(row.alpha), row.seed)] = row
            if end < len(blob):
                fh.truncate(end)
        fresh = False

    sweep = [(float(alpha), int(seed)) for alpha in alphas for seed in seeds]
    pending = [cell for cell in sweep if (repr(cell[0]), cell[1]) not in done]
    stacks = []
    workers = 1
    if pending:  # loaded and checked before the CSV is opened or a worker forked
        datasets = datasets_for(base, datasets)
        most = _grid_workers()
        stacks = _grid_stacks(pending, _STACK_ELEMENTS // _step_elements(base, datasets[0]), most)
        workers = min(most, len(stacks))

    with open(csv_path, "a", newline="\n") as fh, closing(
        _rows_by_stack(base, stacks, datasets, workers)
    ) as results:
        if fresh:
            fh.write(GRID_HEADER + "\n")
            fh.flush()
        for rows in results:
            for row in rows:
                done[(repr(row.alpha), row.seed)] = row
                fh.write(_csv_line(row) + "\n")
            fh.flush()
    return [done[(repr(alpha), seed)] for alpha, seed in sweep]


def _grid_workers() -> int:
    """Most processes a grid trains in: one per CPU this process may run on,
    or one (this process) where the OS cannot ``fork``."""
    return _usable_cpus() if hasattr(os, "fork") else 1


def _grid_stacks(
    pending: list[tuple[float, int]], bound: int, workers: int
) -> list[list[tuple[float, int]]]:
    """``pending`` cut into consecutive stacks of at most ``bound`` cells (at
    least one), and of at most an equal share of the cells per worker, so
    that every worker gets a stack."""
    size = max(1, min(bound, -(-len(pending) // workers)))
    return [pending[lo : lo + size] for lo in range(0, len(pending), size)]


def _stack_rows(
    base: TrainConfig, stack: list[tuple[float, int]], datasets: tuple[Dataset, Dataset]
) -> list[GridRow]:
    """Train one stack of cells in lockstep; returns their rows in its order."""
    outcomes = _train_cells(base, stack, datasets, final_only=True)
    return [_grid_row(alpha, seed, outcome) for (alpha, seed), outcome in zip(stack, outcomes)]


def _grid_row(alpha: float, seed: int, outcome) -> GridRow:
    """A cell's row from its ``_train_cells`` outcome: its last record, or NaNs."""
    if isinstance(outcome, DivergenceError):
        return GridRow(alpha, seed, math.nan, math.nan, math.nan, math.nan, "diverged")
    last = outcome[1][-1]
    return GridRow(alpha, seed, last.train_acc, last.test_acc, last.gap, last.mean_logit_norm, "ok")


# A grid worker's (base, datasets), set once as the worker starts.  Under
# ``fork`` the worker inherits them from the parent's memory, so the dataset
# arrays are shared copy-on-write, never pickled, and numpy is not imported
# again.  Unset in every other process.
_WORKER_RUN: tuple[TrainConfig, tuple[Dataset, Dataset]] | None = None

_PR_SET_PDEATHSIG = 1  # prctl option, <linux/prctl.h>


def _adopt_run(base: TrainConfig, datasets: tuple[Dataset, Dataset], parent: int) -> None:
    global _WORKER_RUN
    _WORKER_RUN = (base, datasets)
    if sys.platform == "linux":
        # Once its parent is gone a worker waits for its next stack for ever,
        # so the kernel kills it when the parent dies, even by SIGKILL.  A
        # parent that died before the request is caught by its pid.
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            os._exit(1)


def _worker_stack_rows(stack: list[tuple[float, int]]) -> list[GridRow]:
    base, datasets = _WORKER_RUN
    return _stack_rows(base, stack, datasets)


def _rows_by_stack(
    base: TrainConfig,
    stacks: list[list[tuple[float, int]]],
    datasets: tuple[Dataset, Dataset] | None,
    workers: int,
):
    """Yield each stack's rows, stack by stack in sweep order.

    With one worker the stacks train here, one after another.  With more,
    they train in that many forked worker processes, and at most ``workers``
    stacks are handed out beyond the ones already yielded, so a stack waits
    in the parent only while an earlier one is still training.  A worker's
    exception is raised here with its own type.  The pool is shut down and
    joined however the generator ends: the stacks not yet started are
    cancelled, and the ones training run to their end.
    """
    if workers == 1:
        for stack in stacks:
            yield _stack_rows(base, stack, datasets)
        return
    # Imported here: the pool machinery adds about 2 MiB to any process that
    # imports it, and only a grid on more than one CPU needs it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_run,
        initargs=(base, datasets, os.getpid()),
    )
    try:
        queued = deque()
        for stack in stacks:
            queued.append(pool.submit(_worker_stack_rows, stack))
            if len(queued) == workers:
                yield queued.popleft().result()
        while queued:
            yield queued.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
