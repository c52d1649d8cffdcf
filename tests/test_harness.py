"""Training loop determinism, grid resume, analysis tables, verify kit."""

import math
import tracemalloc
import warnings
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gradtamper.data import Dataset, write_idx_images, write_idx_labels
from gradtamper.harness import (
    GRID_HEADER,
    METRICS_HEADER,
    DataSpec,
    DivergenceError,
    GridRow,
    MetricsRecord,
    PropertyResult,
    TrainConfig,
    analyze_transform,
    format_verify_report,
    grid_search,
    load_datasets,
    max_relative_error,
    train,
    verify_claims,
    _EVAL_ROWS,
    _evaluate,
    _fd_logit_grad,
    _logits,
    _stable_order_mismatches,
    _train_cells,
    write_metrics_csv,
    write_transform_csv,
)
from gradtamper.lossgrad import smooth_label_rows, softmax
from gradtamper.net import DenseLayer, DenseNet, forward, init_dense_net
from gradtamper.schedule import ScheduleSpec
from gradtamper.transform import (
    TamperSpec,
    power_transform_rows,
    stationary_threshold,
    transform_probabilities,
)

TINY_DATA = DataSpec(kind="blobs", classes=4, per_class=20, features=6, spread=1.0, seed=11)
TINY_SCHED = ScheduleSpec(
    kind="warmup_cosine_cooldown",
    base_lr=1e-3,
    peak_lr=0.05,
    warmup_epochs=1,
    total_epochs=6,
    cooldown_epochs=1,
)


def tiny_config(**kw):
    base = dict(
        hidden=(16,),
        epochs=4,
        batch_size=16,
        schedule=TINY_SCHED,
        data=TINY_DATA,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def step_schedule(lr):
    return ScheduleSpec(
        kind="step", base_lr=lr, peak_lr=lr, warmup_epochs=0,
        total_epochs=6, cooldown_epochs=0,
    )


def count_evaluations(monkeypatch):
    """Route ``harness._evaluate`` through a spy; returns its growing call list."""
    import gradtamper.harness as harness

    calls = []

    def spy(*args):
        calls.append(args)
        return _evaluate(*args)

    monkeypatch.setattr(harness, "_evaluate", spy)
    return calls


class TestTrain:
    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = tiny_config()
        paths = []
        for name in ("a.csv", "b.csv"):
            _, records = train(cfg)
            p = tmp_path / name
            write_metrics_csv(records, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_one_record_per_epoch_with_gap_identity(self):
        cfg = tiny_config(epochs=3)
        _, records = train(cfg)
        assert [r.epoch for r in records] == [0, 1, 2]
        for r in records:
            assert r.gap == r.train_acc - r.test_acc
            assert math.isfinite(r.train_loss) and math.isfinite(r.mean_logit_norm)
            assert r.lr > 0

    def test_tamper_gate_delays_divergence_of_trajectories(self):
        ds = load_datasets(TINY_DATA)
        base = tiny_config(tamper=TamperSpec(1.0))
        gated = tiny_config(tamper=TamperSpec(0.3, start_epoch=2))
        _, rec_base = train(base, ds)
        _, rec_gated = train(gated, ds)
        # identical while the gate holds the transform off, then they part
        assert rec_gated[0] == rec_base[0]
        assert rec_gated[1] == rec_base[1]
        assert rec_gated[3] != rec_base[3]

    def test_alpha_one_is_the_untouched_baseline(self):
        ds = load_datasets(TINY_DATA)
        _, a = train(tiny_config(tamper=TamperSpec(1.0, start_epoch=0)), ds)
        _, b = train(tiny_config(tamper=TamperSpec(1.0, start_epoch=3)), ds)
        assert a == b

    def test_supplied_datasets_match_loaded(self):
        cfg = tiny_config(epochs=2)
        _, implicit = train(cfg)
        _, explicit = train(cfg, load_datasets(TINY_DATA))
        assert implicit == explicit

    def test_batch_size_larger_than_train_set(self):
        with pytest.raises(ValueError, match="exceeds training set"):
            train(tiny_config(batch_size=4096))

    def test_divergence_raises_and_names_the_step(self):
        with pytest.raises(DivergenceError, match=r"non-finite logits.*step"):
            train(tiny_config(schedule=step_schedule(1e150)))

    def test_logit_norm_of_huge_finite_logits_is_finite(self):
        # The squares of 1e200 overflow; the norm itself does not.
        net = DenseNet([DenseLayer(np.array([[1e200], [0.0]]), np.zeros(2))])
        ds = Dataset(np.array([[1.0]]), np.array([0]), 2, "test")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, norm = _evaluate(net, ds, ds, 0.0)
        assert norm == 1e200

    def test_loss_mean_of_finite_huge_rows_is_finite(self):
        # At lr 5e9 the per-row losses stay finite while their sum overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, records = train(tiny_config(schedule=step_schedule(5e9)))
        assert records[-1].train_loss > 1e306
        assert math.isfinite(records[-1].train_loss)

    def test_evaluates_once_per_epoch(self, monkeypatch):
        calls = count_evaluations(monkeypatch)
        train(tiny_config(epochs=3))
        assert len(calls) == 3

    def test_fitted_desk_run_records_no_negative_zero_loss(self):
        # At alpha=0.05 the desk run fits its training split so tightly that
        # the loss is exactly zero in most epochs; it must read 0.0, not -0.0.
        _, records = train(TrainConfig(tamper=TamperSpec(0.05)))
        losses = [r.train_loss for r in records]
        assert 0.0 in losses
        assert all(math.copysign(1.0, loss) == 1.0 for loss in losses)


class TestEvaluationBlocks:
    """Evaluation runs ``forward`` over row blocks, with the bits of one call."""

    @staticmethod
    def blobs(rows, features, split="train", seed=95):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(rows, features)), rng.integers(0, 10, rows), 10, split)

    # Cut at multiples of _EVAL_ROWS, the first two splits would leave 1- and
    # 100-row tails, which take BLAS's small-matrix kernel; the last is one block.
    @pytest.mark.parametrize(
        "rows", [2 * _EVAL_ROWS + 1, 2 * _EVAL_ROWS + 100, _EVAL_ROWS + 3000, _EVAL_ROWS - 7]
    )
    def test_logits_equal_one_forward_call(self, rows):
        net = init_dense_net([40, 32, 10], np.random.default_rng(96))
        ds = self.blobs(rows, 40)
        whole, _ = forward(net, ds.inputs)
        assert_array_equal(_logits(net, ds).view(np.int64), whole.view(np.int64))

    def test_uint8_logits_equal_one_forward_call_on_the_widened_rows(self):
        net = init_dense_net([40, 32, 10], np.random.default_rng(98))
        rng = np.random.default_rng(99)
        rows = 2 * _EVAL_ROWS + 1
        ds = Dataset(rng.integers(0, 256, size=(rows, 40), dtype=np.uint8),
                     rng.integers(0, 10, rows), 10)
        whole, _ = forward(net, ds.inputs.astype(np.float64) / 255.0)
        assert_array_equal(_logits(net, ds).view(np.int64), whole.view(np.int64))

    def test_non_finite_logit_in_the_last_block_names_the_split(self):
        net = init_dense_net([40, 32, 10], np.random.default_rng(97))
        net.params[...] = np.abs(net.params)  # every sum of huge inputs overflows
        ds = self.blobs(2 * _EVAL_ROWS + 5, 40, split="test")
        ds.inputs[-1] = 1e308
        assert np.all(np.isfinite(forward(net, ds.inputs[:-1])[0]))
        with pytest.raises(DivergenceError, match="the test split"):
            _logits(net, ds)

    def test_peak_memory_stays_below_one_hidden_activation(self):
        # Whole-split evaluation held the hidden pre-activation and its relu,
        # 2 x N x hidden x 8 bytes; row blocks hold one block of each.
        rows, hidden = 20_000, 256
        net = init_dense_net([784, hidden, 10], np.random.default_rng(98))
        train_ds, test_ds = self.blobs(rows, 784), self.blobs(100, 784, "test")
        tracemalloc.start()
        try:
            _evaluate(net, train_ds, test_ds, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * hidden * 8


class TestMetricsCsv:
    def test_header_and_repr_round_trip(self, tmp_path):
        _, records = train(tiny_config(epochs=2))
        p = tmp_path / "m.csv"
        write_metrics_csv(records, p)
        lines = p.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        r = records[0]
        assert int(fields[0]) == 0
        assert float(fields[1]) == r.train_loss  # repr round-trips exactly
        assert float(fields[5]) == r.mean_logit_norm


class TestPixelInputs:
    """A uint8 Dataset trains bit for bit like the float64 Dataset of its features."""

    @staticmethod
    def pixel_pair():
        # IDX-shaped: 6 x 6 uint8 images, flattened, in a train and a test split.
        rng = np.random.default_rng(21)
        pixels = [Dataset(rng.integers(0, 256, size=(n, 36), dtype=np.uint8),
                          rng.integers(0, 4, n), 4, split)
                  for n, split in ((96, "train"), (32, "test"))]
        widened = [Dataset(ds.features(slice(None)), ds.labels, 4, ds.split) for ds in pixels]
        assert all(ds.inputs.dtype == np.float64 for ds in widened)
        return tuple(pixels), tuple(widened)

    def test_train_matches_float64_features(self):
        pixels, widened = self.pixel_pair()
        cfg = tiny_config(epochs=3, clip_lambda=1.0)
        net_u8, rec_u8 = train(cfg, pixels)
        net_f64, rec_f64 = train(cfg, widened)
        assert rec_u8 == rec_f64
        assert_array_equal(net_u8.params.view(np.int64), net_f64.params.view(np.int64))

    def test_idx_splits_share_a_class_count_and_stay_uint8(self, tmp_path):
        paths = {}
        for split, labels in (("train", [0, 1, 1]), ("test", [2, 0])):
            images = np.arange(len(labels) * 4, dtype=np.uint8).reshape(-1, 2, 2)
            paths[f"{split}_images"] = str(tmp_path / f"{split}-images")
            paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels")
            write_idx_images(paths[f"{split}_images"], images)
            write_idx_labels(paths[f"{split}_labels"], np.array(labels, dtype=np.uint8))
        train_ds, test_ds = load_datasets(DataSpec(kind="idx", **paths))
        assert (train_ds.num_classes, test_ds.num_classes) == (3, 3)
        assert (train_ds.split, test_ds.split) == ("train", "test")
        assert train_ds.inputs.dtype == test_ds.inputs.dtype == np.uint8

    def test_grid_rows_match_float64_features(self, tmp_path):
        pixels, widened = self.pixel_pair()
        cfg = tiny_config(epochs=2)
        rows_u8 = grid_search(cfg, [0.5, 1.0], [3], tmp_path / "u8.csv", pixels)
        rows_f64 = grid_search(cfg, [0.5, 1.0], [3], tmp_path / "f64.csv", widened)
        assert len(rows_u8) == 2 and rows_u8 == rows_f64
        assert (tmp_path / "u8.csv").read_bytes() == (tmp_path / "f64.csv").read_bytes()


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

    @pytest.mark.parametrize("budget, stacks", [(360, [2, 2, 2]), (539, [2, 2, 2]), (179, [1] * 6)])
    def test_stacks_are_bounded_and_written_as_they_finish(
        self, tmp_path, monkeypatch, budget, stacks
    ):
        # The tiny 6-16-4 net has 180 parameters per cell.
        import gradtamper.harness as harness

        cfg = tiny_config()
        whole = tmp_path / "whole.csv"
        grid_search(cfg, [0.5, 1.0, 0.25], [0, 1], whole)

        p = tmp_path / "grid.csv"
        seen = []

        def spy(base, cells, datasets, **kw):
            seen.append((len(cells), len(p.read_text().splitlines())))
            return _train_cells(base, cells, datasets, **kw)

        monkeypatch.setattr(harness, "_STACK_PARAMS", budget)
        monkeypatch.setattr(harness, "_train_cells", spy)
        grid_search(cfg, [0.5, 1.0, 0.25], [0, 1], p)
        # Each stack starts with the rows of every earlier stack on disk.
        rows_before = [1 + sum(stacks[:k]) for k in range(len(stacks))]
        assert seen == list(zip(stacks, rows_before))
        assert p.read_bytes() == whole.read_bytes()

    def test_evaluates_each_finished_cell_once(self, tmp_path, monkeypatch):
        calls = count_evaluations(monkeypatch)
        grid_search(tiny_config(), [0.5, 1.0, 0.25], [0, 1], tmp_path / "grid.csv")
        assert len(calls) == 6
        # Cells that diverge while training are never evaluated.
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

    def test_empty_axes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="alpha"):
            grid_search(tiny_config(), [], [0], tmp_path / "g.csv")
        with pytest.raises(ValueError, match="seed"):
            grid_search(tiny_config(), [1.0], [], tmp_path / "g.csv")


class TestAnalyze:
    def test_rows_match_transform_and_threshold(self):
        p = np.array([0.7, 0.2, 0.1])
        rows = analyze_transform(p, [0.25, 0.5, 1.0])
        assert_array_equal(rows[0].transformed, transform_probabilities(p, 0.25))
        assert rows[0].threshold == stationary_threshold(p, 0.25)
        assert rows[2].threshold is None
        assert_array_equal(rows[2].transformed, p)

    def test_csv_layout(self, tmp_path):
        rows = analyze_transform([0.7, 0.2, 0.1], [0.5, 1.0])
        out = tmp_path / "t.csv"
        write_transform_csv(rows, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,threshold,p0,p1,p2"
        fields = lines[1].split(",")
        assert float(fields[0]) == 0.5
        assert float(fields[1]) == stationary_threshold(np.array([0.7, 0.2, 0.1]), 0.5)
        assert lines[2].startswith("1.0,,")  # identity row leaves threshold blank
        with pytest.raises(ValueError):
            write_transform_csv([], tmp_path / "e.csv")


class TestVerify:
    def test_small_run_passes_everything(self):
        report = verify_claims(seed=0, trials=20, class_counts=(2, 5))
        assert report.passed
        names = {p.name for p in report.properties}
        assert "gradient-matches-fd" in names
        assert "wide-logit-gradient" in names
        assert "threshold-monotonicity" in names
        assert "temperature-equivalence" in names
        for prop in report.properties:
            assert prop.failures == 0
            assert prop.samples > 0

    def test_wide_band_rejects_transform_of_underflowed_softmax(self, monkeypatch):
        # Computing the tampered gradient as transform(softmax(z)) - q keeps
        # the exact zeros of an underflowed softmax; only the wide band sees it.
        import gradtamper.harness as harness

        def transformed_softmax(logits, q, alpha):
            return power_transform_rows(softmax(logits, axis=-1), alpha) - q

        monkeypatch.setattr(harness, "tampered_dlogits", transformed_softmax)
        report = verify_claims(seed=0, trials=20, class_counts=(10, 100))
        failing = [p.name for p in report.properties if not p.passed]
        assert failing == ["wide-logit-gradient"]

    def test_single_trial_runs(self):
        assert verify_claims(seed=3, trials=1, class_counts=(3,)).passed

    def test_report_format(self):
        report = verify_claims(seed=1, trials=5, class_counts=(4,))
        text = format_verify_report(report)
        assert text.count("PASS") >= len(report.properties)
        assert "overall: PASS" in text

    def test_property_result_accumulates(self):
        worst = PropertyResult("p", "m", "max", 1.0)
        assert worst.observed == -np.inf
        worst.add([0.5, 2.0])
        worst.add(0.25)
        assert (worst.observed, worst.samples, worst.failures) == (2.0, 3, 1)
        least = PropertyResult("p", "m", "min", 0.0)
        least.add([0.5, -1.0])
        assert (least.observed, least.samples, least.failures, least.passed) == (-1.0, 2, 1, False)
        with pytest.raises(ValueError, match="kind"):
            PropertyResult("p", "m", "mean", 0.0)

    def test_property_result_keeps_nan(self):
        # A NaN check shows in ``observed`` whether it comes alone or in a batch.
        for kind in ("max", "min"):
            for batches in ([[0.5, math.nan]], [[0.5], [math.nan]], [[math.nan], [0.5]]):
                prop = PropertyResult("p", "m", kind, 1.0 if kind == "max" else 0.0)
                for values in batches:
                    prop.add(values)
                assert math.isnan(prop.observed)
                assert (prop.samples, prop.failures) == (2, 1)

    def test_argument_validation(self):
        for kw in (
            dict(trials=0),
            dict(trials=2.5),
            dict(trials=True),
            dict(class_counts=(1, 5)),
            dict(class_counts=(2.5,)),
            dict(class_counts=(3, 4.0)),
            dict(class_counts=()),
        ):
            with pytest.raises(ValueError):
                verify_claims(**kw)
        assert verify_claims(trials=np.int64(2), class_counts=(np.int64(3),)).passed

    def test_report_pinned_to_fixture(self):
        # Batching the oracles and reusing temporaries must not move a digit.
        fixture = Path(__file__).parent / "fixtures" / "verify_seed0_trials200.txt"
        text = format_verify_report(verify_claims(seed=0, trials=200))
        assert text + "\n" == fixture.read_text()

    def test_max_relative_error_floor(self):
        assert max_relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        # below the floor the check is absolute at floor * tol
        assert max_relative_error([1e-9], [2e-9], floor=1e-4) == pytest.approx(1e-5)
        assert max_relative_error([2.0], [1.0], floor=1e-4) == 0.5

    def test_max_relative_error_rows(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 5, 7))
        per_row = max_relative_error(a, b)
        assert per_row.shape == (5,)
        for i in range(5):
            assert per_row[i] == max_relative_error(a[i], b[i])
        assert np.ndim(max_relative_error(a[0], b[0])) == 0


def _former_fd_logit_grad(z, q, scale, h):
    """Reference: the one-vector oracle written with allocating expressions."""

    def ce_rows(rows):
        x = scale * rows
        shifted = x - x.max(axis=-1, keepdims=True)
        ls = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        return -(q * ls).sum(axis=-1)

    eye = np.eye(z.size) * h
    return (ce_rows(z + eye) - ce_rows(z - eye)) / (2.0 * h)


class TestVerifyKernels:
    @pytest.mark.parametrize("c, n", [(2, 9), (10, 9), (100, 13), (250, 3)])
    def test_fd_rows_equal_per_row_calls(self, c, n):
        # 2^16-element blocks hold 6 rows at C=100, so 13 rows end in a short
        # block; at C=250 one row alone exceeds a block.
        rng = np.random.default_rng(c)
        for sigma in (3.0, 300.0):
            z = rng.normal(0.0, sigma, size=(n, c))
            q = smooth_label_rows(rng.integers(0, c, size=n), c, 0.1)
            z_before, q_before = z.copy(), q.copy()
            for scale in (1.0, 0.3):
                rows = _fd_logit_grad(z, q, scale=scale, h=1e-4)
                assert rows.shape == (n, c)
                for i in range(n):
                    single = _fd_logit_grad(z[i], q[i], scale=scale, h=1e-4)
                    assert_array_equal(rows[i], single)
                    assert_array_equal(single, _former_fd_logit_grad(z[i], q[i], scale, 1e-4))
            assert_array_equal(z, z_before)
            assert_array_equal(q, q_before)

    def test_order_mismatches_equal_stable_argsort(self):
        probs = np.array(
            [
                [0.1, 0.2, 0.3, 0.4],
                [0.1, 0.2, 0.3, 0.4],
                [0.1, 0.2, 0.3, 0.4],
                [0.4, 0.3, 0.2, 0.1],
                [0.25, 0.25, 0.25, 0.25],
                [0.25, 0.25, 0.25, 0.25],
            ]
        )
        t = np.array(
            [
                [0.1, 0.2, 0.3, 0.4],  # same order
                [0.2, 0.2, 0.3, 0.3],  # ties whose indices rise in the reference
                [0.1, 0.3, 0.2, 0.4],  # an inversion
                [0.3, 0.3, 0.2, 0.2],  # ties whose reference order has indices falling
                [0.25, 0.25, 0.25, 0.25],  # all tied
                [0.3, 0.2, 0.25, 0.25],  # reordered from a tie
            ]
        )
        rng = np.random.default_rng(0)
        rand = rng.dirichlet(np.ones(6), size=200)
        rand_t = np.round(rand, 2)  # rounding makes ties, some out of index order
        for p_rows, t_rows in ((probs, t), (rand, rand_t), (rand, rand)):
            order_ref = np.argsort(p_rows, axis=1, kind="stable")
            want = (np.argsort(t_rows, axis=1, kind="stable") != order_ref).sum(1)
            got = _stable_order_mismatches(t_rows, order_ref)
            assert got.dtype == np.float64
            assert_array_equal(got, want)
        assert_array_equal(_stable_order_mismatches(t, np.argsort(probs, axis=1, kind="stable")),
                           [0, 0, 2, 4, 0, 4])


class TestConfigValidation:
    def test_epochs_must_fit_schedule(self):
        with pytest.raises(ValueError, match="schedule covers"):
            tiny_config(epochs=40)

    def test_hidden_list_coerced(self):
        cfg = tiny_config(hidden=[8, 4])
        assert cfg.hidden == (8, 4)

    def test_rejects_bad_fields(self):
        for kw in (
            dict(momentum=1.0),
            dict(label_smoothing=1.0),
            dict(clip_lambda=0.0),
            dict(activation="tanh"),
            dict(hidden=(0,)),
            dict(hidden=(8.0,)),
            dict(hidden=(True,)),
            dict(weight_decay=-1e-3),
            dict(epochs=2.5),
            dict(epochs=True),
            dict(batch_size=8.0),
            dict(batch_size=True),
        ):
            with pytest.raises(ValueError):
                tiny_config(**kw)

    def test_dataspec_validation(self):
        with pytest.raises(ValueError, match="unknown data kind"):
            DataSpec(kind="csv")
        with pytest.raises(ValueError, match="needs paths"):
            DataSpec(kind="idx", train_images="x")

    def test_metrics_record_checks(self):
        with pytest.raises(ValueError, match="gap"):
            MetricsRecord(0, 1.0, 0.9, 0.8, 0.2, 1.0, 0.1)
        with pytest.raises(ValueError, match="train_acc"):
            MetricsRecord(0, 1.0, 1.5, 0.8, 0.7, 1.0, 0.1)
