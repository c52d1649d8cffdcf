"""Grid search: sweep, resume, divergence within a stack, stack bounds and
worker processes."""

import math
import multiprocessing
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import gradtamper.grid as grid
from gradtamper.grid import GRID_HEADER, GridRow, check_grid, grid_search
from gradtamper.harness import DivergenceError, TrainConfig, _train_cells, train
from gradtamper.transform import TamperSpec
from test_harness import (
    TINY_DATA,
    count_evaluations,
    nan_entry,
    plant_logits,
    spread_rows,
    step_schedule,
    tiny_config,
)


def pin_grid_workers(monkeypatch, workers=1):
    """Make ``grid_search`` use ``workers`` processes; one runs its stacks in
    this process, where a spy sees their calls."""
    monkeypatch.setattr(grid, "_grid_workers", lambda: workers)


class TestGrid:
    def test_sweep_then_resume_reproduces_csv(self, tmp_path):
        cfg = tiny_config()
        full = tmp_path / "grid.csv"
        rows = grid_search(cfg, [0.5, 1.0], [0, 1], full)
        assert len(rows) == 4
        complete = full.read_bytes()

        # A kill after any number of finished rows, or inside a row; each
        # resume trains a different stack of the pending cells.
        lines = complete.decode().splitlines(keepends=True)
        cuts = ["".join(lines[: 1 + k]) for k in range(len(lines))]
        cuts.append("".join(lines[:3]) + lines[3][:9])
        for i, cut in enumerate(cuts):
            partial = tmp_path / f"cut{i}.csv"
            partial.write_text(cut)
            resumed = grid_search(cfg, [0.5, 1.0], [0, 1], partial)
            assert partial.read_bytes() == complete, f"cut {cut!r}"
            assert resumed == rows

    @pytest.mark.parametrize("lr", [4e9, 1e11, 10**12.875])
    def test_mixed_divergence_stack_matches_solo_runs(self, tmp_path, lr):
        # At lr 4e9 seed 3 diverges while evaluating and seeds 0-2 finish; at
        # 1e11 seed 3 diverges at step 14 and the others train on to step 15.
        # At 10**12.875 cell (0.01, 2) first fails in its epoch-2 evaluation;
        # the grid evaluates only after the last epoch, and the cell's row
        # still reads diverged because a later training step overflows.
        cfg = tiny_config(schedule=step_schedule(lr))
        cells = [(alpha, seed) for alpha in (0.01, 1.0) for seed in range(4)]
        stacked = _train_cells(cfg, cells)
        rows = grid_search(cfg, [0.01, 1.0], range(4), tmp_path / "grid.csv")
        for (alpha, seed), outcome, row in zip(cells, stacked, rows):
            assert (row.alpha, row.seed) == (alpha, seed)
            try:
                net, records = train(replace(cfg, tamper=TamperSpec(alpha), seed=seed))
            except DivergenceError as error:
                assert str(outcome) == str(error)
                assert row.status == "diverged"
                continue
            assert_array_equal(outcome[0].params, net.params)
            assert [repr(astuple(r)) for r in outcome[1]] == [repr(astuple(r)) for r in records]
            last = records[-1]
            assert repr(astuple(row)) == repr(astuple(GridRow(
                alpha, seed, last.train_acc, last.test_acc, last.gap, last.mean_logit_norm, "ok"
            )))
        statuses = [row.status for row in rows]
        if lr == 4e9:
            assert statuses == ["ok", "ok", "ok", "diverged"] * 2
        elif lr == 1e11:
            assert "at step 14" in str(stacked[3]) and "at step 15" in str(stacked[0])
        else:
            (early,) = _train_cells(replace(cfg, epochs=2), [(0.01, 2)])
            assert not isinstance(early, DivergenceError)
            assert "while evaluating" in str(stacked[2])

    @pytest.mark.parametrize("plant", [spread_rows, nan_entry], ids=["finite-spread", "nan"])
    def test_planted_cell_diverges_and_the_others_match_solo_runs(
        self, tmp_path, monkeypatch, plant
    ):
        cfg = tiny_config()
        cells = [(alpha, seed) for alpha in (0.5, 1.0) for seed in range(2)]
        pin_grid_workers(monkeypatch)
        plant_logits(monkeypatch, 1, plant)
        rows = grid_search(cfg, [0.5, 1.0], range(2), tmp_path / "grid.csv")
        monkeypatch.undo()
        assert [(row.alpha, row.seed) for row in rows] == cells
        assert [row.status for row in rows] == ["ok", "diverged", "ok", "ok"]
        for (alpha, seed), row in zip(cells, rows):
            if row.status == "ok":
                last = train(replace(cfg, tamper=TamperSpec(alpha), seed=seed))[1][-1]
                assert repr(astuple(row)) == repr(astuple(GridRow(
                    alpha, seed, last.train_acc, last.test_acc, last.gap, last.mean_logit_norm, "ok"
                )))

    @pytest.mark.parametrize(
        "budget, stacks", [(1192, [2, 2, 2]), (1787, [2, 2, 2]), (595, [1] * 6)]
    )
    def test_stacks_are_bounded_and_written_as_they_finish(
        self, tmp_path, monkeypatch, budget, stacks
    ):
        # A step of the tiny 6-16-4 net at batch 16 holds 180 parameters and
        # 16 rows of 6 + 16 + 4 widths: 596 elements a cell.
        cfg = tiny_config()
        whole = tmp_path / "whole.csv"
        grid_search(cfg, [0.5, 1.0, 0.25], [0, 1], whole)

        p = tmp_path / "grid.csv"
        seen = []

        def spy(base, cells, datasets, **kw):
            seen.append((len(cells), len(p.read_text().splitlines())))
            return _train_cells(base, cells, datasets, **kw)

        pin_grid_workers(monkeypatch)
        monkeypatch.setattr(grid, "_STACK_ELEMENTS", budget)
        monkeypatch.setattr(grid, "_train_cells", spy)
        grid_search(cfg, [0.5, 1.0, 0.25], [0, 1], p)
        # Each stack starts with the rows of every earlier stack on disk.
        rows_before = [1 + sum(stacks[:k]) for k in range(len(stacks))]
        assert seen == list(zip(stacks, rows_before))
        assert p.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("hidden, epochs, stacks", [((64,), 30, [16]), ((256,), 4, [16])])
    def test_small_net_sweep_is_one_stack_and_matches_solo_cells(
        self, tmp_path, monkeypatch, hidden, epochs, stacks
    ):
        # The desk sweep (20-64-10 at batch 32, 5,002 step elements a cell)
        # and a 20-256-10 one (17,098) train as one stack whose grid.csv holds
        # the bytes of a sweep that trains its cells one at a time.
        cfg = TrainConfig(hidden=hidden, epochs=epochs)
        alphas, seeds = [0.1, 0.3, 0.6, 1.0], [11, 22, 33, 44]
        seen = []

        def spy(base, cells, datasets, **kw):
            seen.append(len(cells))
            return _train_cells(base, cells, datasets, **kw)

        pin_grid_workers(monkeypatch)
        monkeypatch.setattr(grid, "_train_cells", spy)
        grid_search(cfg, alphas, seeds, tmp_path / "stacked.csv")
        assert seen == stacks
        monkeypatch.setattr(grid, "_STACK_ELEMENTS", 1)
        grid_search(cfg, alphas, seeds, tmp_path / "solo.csv")
        assert seen == stacks + [1] * 16
        assert (tmp_path / "stacked.csv").read_bytes() == (tmp_path / "solo.csv").read_bytes()

    def test_evaluates_each_finished_cell_once(self, tmp_path, monkeypatch):
        # A stack is evaluated once, after its last epoch, in one call that
        # covers all of its cells.
        pin_grid_workers(monkeypatch)
        calls = count_evaluations(monkeypatch)
        grid_search(tiny_config(), [0.5, 1.0, 0.25], [0, 1], tmp_path / "grid.csv")
        assert [net.params.shape[0] for net, *_ in calls] == [6]
        calls.clear()
        monkeypatch.setattr(grid, "_STACK_ELEMENTS", 1192)  # stacks of two tiny cells
        grid_search(tiny_config(), [0.5, 1.0, 0.25], [0, 1], tmp_path / "pairs.csv")
        assert [net.params.shape[0] for net, *_ in calls] == [2, 2, 2]
        # A stack whose cells all diverge while training is never evaluated.
        calls.clear()
        grid_search(tiny_config(schedule=step_schedule(1e150)), [0.5], [0, 1], tmp_path / "d.csv")
        assert calls == []

    def test_diverged_cell_recorded_and_sweep_continues(self, tmp_path):
        p = tmp_path / "grid.csv"
        rows = grid_search(tiny_config(schedule=step_schedule(1e150)), [0.5], [0, 1], p)
        assert [r.status for r in rows] == ["diverged", "diverged"]
        assert all(math.isnan(r.final_train_acc) for r in rows)
        assert len(p.read_text().splitlines()) == 3

    def test_foreign_header_rejected(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("alpha,seed\n")
        with pytest.raises(ValueError, match="grid header"):
            grid_search(tiny_config(), [1.0], [0], p)

    def test_unknown_status_rejected(self, tmp_path):
        # A complete row is never a cut one: its status must be a real one.
        p = tmp_path / "grid.csv"
        p.write_text(GRID_HEADER + "\n1.0,0,1.0,1.0,0.0,3.0,o\n")
        with pytest.raises(ValueError, match="malformed grid row"):
            grid_search(tiny_config(), [1.0], [0], p)
        assert p.read_text().endswith(",o\n")  # left as it was

    @pytest.mark.parametrize(
        "line",
        ["1.0,1.0,1.0,1.0,0.0,3.0,ok", "1.0,0,1.0,high,0.0,3.0,ok", "1.0,0,1.0,1.0,ok"],
        ids=["non-integer-seed", "non-number-metric", "short-row"],
    )
    def test_unparsable_row_rejected(self, tmp_path, line):
        p = tmp_path / "grid.csv"
        text = f"{GRID_HEADER}\n{line}\n"
        p.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"malformed grid row: {line!r}")):
            grid_search(tiny_config(), [1.0], [0], p)
        assert p.read_text() == text  # left as it was

    def test_empty_axes_rejected(self, tmp_path):
        for alphas in ([], np.array([])):
            with pytest.raises(ValueError, match="grid needs at least one alpha"):
                grid_search(tiny_config(), alphas, [0], tmp_path / "g.csv")
        for seeds in ([], np.array([], dtype=int)):
            with pytest.raises(ValueError, match="grid needs at least one seed"):
                grid_search(tiny_config(), [1.0], seeds, tmp_path / "g.csv")
        for seeds in ([1.5], [0, True], [-1]):  # int() would have run 1.5 and True as seed 1
            with pytest.raises(ValueError, match="seed"):
                grid_search(tiny_config(), [1.0], seeds, tmp_path / "g.csv")

    @pytest.mark.parametrize(
        "alphas, seeds",
        [([1.0, 1.0], [0]), ([0.5, 1, 1.0], [0]), ([1.0], [0, 0]), ([1.0], [2, 1, 2]),
         (np.array([0.5, 0.5]), np.array([0])), ([1.0], np.array([2, 1, 2]))],
    )
    def test_repeated_cells_rejected_before_any_file(self, tmp_path, alphas, seeds):
        # A repeated alpha or seed would train one cell twice and write it twice.
        with pytest.raises(ValueError, match="must not repeat"):
            grid_search(tiny_config(), alphas, seeds, tmp_path / "g.csv")
        assert not (tmp_path / "g.csv").exists()

    # An axis must be a sequence: a str would be walked character by
    # character, and a scalar has no length.
    @pytest.mark.parametrize(
        "alphas, seeds, setting",
        [(0.5, [0], "alphas"), (np.float64(0.5), [0], "alphas"), ("0.5", [0], "alphas"),
         ([0.5], 3, "seeds"), ([0.5], np.int64(3), "seeds"), ([0.5], "3", "seeds")],
        ids=["float", "numpy-float", "str-alpha", "int", "numpy-int", "str-seed"],
    )
    def test_scalar_or_str_axis_rejected(self, alphas, seeds, setting):
        with pytest.raises(ValueError, match=f"grid {setting} must be a sequence"):
            check_grid(alphas, seeds)

    # An axis is tested for emptiness by its length, not its truth value.
    @pytest.mark.parametrize(
        "alphas, seeds",
        [(np.array([0.0]), [0]), ([0.5], np.array([0])), (np.array([0.3, 0.6]), np.array([1, 2]))],
        ids=["zero-alpha", "zero-seed", "pairs"],
    )
    def test_numpy_axes_accepted(self, alphas, seeds):
        check_grid(alphas, seeds)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_oversized_batch_rejected_before_any_file(self, tmp_path, monkeypatch, workers):
        pin_grid_workers(monkeypatch, workers)
        cfg = replace(TrainConfig(epochs=2), batch_size=5000)
        with pytest.raises(ValueError, match="exceeds training set size 800"):
            grid_search(cfg, [0.5, 1.0], [0, 1], tmp_path / "grid.csv")
        assert not (tmp_path / "grid.csv").exists()
        assert multiprocessing.active_children() == []

    def test_resume_with_nothing_pending_loads_no_data(self, tmp_path, monkeypatch):
        p = tmp_path / "grid.csv"
        rows = grid_search(tiny_config(epochs=1), [0.5, 1.0], [0], p)
        complete = p.read_bytes()

        def no_data(*args):
            raise AssertionError("a finished sweep loaded its data")

        monkeypatch.setattr(grid, "datasets_for", no_data)
        assert grid_search(tiny_config(epochs=1), [0.5, 1.0], [0], p) == rows
        assert p.read_bytes() == complete


class TestGridWorkers:
    """A grid's stacks train in forked worker processes, one per usable CPU."""

    @pytest.mark.parametrize(
        "cells, bound, workers, sizes",
        [
            (16, 104, 1, [16]),
            (16, 104, 2, [8, 8]),
            (16, 104, 3, [6, 6, 4]),
            (6, 2, 1, [2, 2, 2]),
            (6, 2, 2, [2, 2, 2]),
            (6, 2, 3, [2, 2, 2]),
            (5, 104, 2, [3, 2]),
            (5, 104, 3, [2, 2, 1]),
            (2, 0, 1, [1, 1]),
            (2, 0, 3, [1, 1]),
        ],
    )
    def test_stack_split(self, cells, bound, workers, sizes):
        pending = [(alpha, seed) for alpha in (0.1, 0.3, 0.6, 1.0) for seed in range(4)][:cells]
        stacks = grid._grid_stacks(pending, bound, workers)
        assert [len(stack) for stack in stacks] == sizes
        assert [cell for stack in stacks for cell in stack] == pending

    @pytest.mark.parametrize(
        "cfg, alphas, seeds",
        [
            # the desk sweep: 8 + 8 cells on two workers, 16 in one stack on one
            (TrainConfig(), [0.1, 0.3, 0.6, 1.0], [11, 22, 33, 44]),
            # seed 3 diverges while evaluating and seeds 0-2 finish
            (tiny_config(schedule=step_schedule(4e9)), [0.01, 1.0], [0, 1, 2, 3]),
            # 784 inputs, the width at which BLAS threads change the bits
            (
                tiny_config(epochs=1, data=replace(TINY_DATA, features=784, per_class=10)),
                [0.5, 1.0],
                [5],
            ),
        ],
        ids=["desk", "mixed-divergence", "784-inputs"],
    )
    def test_two_workers_write_the_bytes_of_one(self, tmp_path, monkeypatch, cfg, alphas, seeds):
        rows = {}
        for workers in (1, 2):
            pin_grid_workers(monkeypatch, workers)
            rows[workers] = grid_search(cfg, alphas, seeds, tmp_path / f"{workers}.csv")
        assert repr(rows[1]) == repr(rows[2])
        assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "2.csv").read_bytes()
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller_with_its_type(self, tmp_path, monkeypatch):
        # Each of the two one-cell stacks raises in its worker, which forks
        # with the planted trainer in place.
        def planted(base, stack, datasets, final_only):
            raise ValueError(f"planted failure in {stack}")

        pin_grid_workers(monkeypatch, 2)
        monkeypatch.setattr(grid, "_train_cells", planted)
        p = tmp_path / "grid.csv"
        with pytest.raises(ValueError, match="planted failure"):
            grid_search(tiny_config(), [0.5, 1.0], [0], p)
        assert multiprocessing.active_children() == []
        assert p.read_text() == GRID_HEADER + "\n"
