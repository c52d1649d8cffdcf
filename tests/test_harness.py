"""Training loop and step determinism, metrics CSV, grid CSV rows, verify kit."""

import math
import re
import tracemalloc
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import gradtamper.grid as grid
import gradtamper.harness as harness
from gradtamper.data import Dataset, synth_blobs, write_idx_images, write_idx_labels
from gradtamper.grid import GRID_HEADER, GridRow, grid_search
from gradtamper.harness import (
    METRICS_HEADER,
    DataSpec,
    DivergenceError,
    MetricsRecord,
    PropertyResult,
    TrainConfig,
    format_verify_report,
    load_datasets,
    max_relative_error,
    train,
    verify_claims,
    _EVAL_ROWS,
    _csv_line,
    _evaluate,
    _fd_logit_grad,
    _logits,
    _stable_order_mismatches,
    _step,
    write_metrics_csv,
)
from gradtamper.lossgrad import cross_entropy_rows, smooth_label_rows, softmax, tampered_dlogits
from gradtamper.net import (
    DenseNet,
    check_opt_settings,
    forward,
    init_dense_net,
    init_opt_state,
    stack_nets,
)
from gradtamper.schedule import ScheduleSpec
from gradtamper.transform import TamperSpec, power_transform_rows

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
    calls = []

    def spy(*args):
        calls.append(args)
        return _evaluate(*args)

    monkeypatch.setattr(harness, "_evaluate", spy)
    return calls


def plant_logits(monkeypatch, cell, plant):
    """Route ``harness.forward`` through a spy that, on its first call (a
    training step 0), overwrites the logits of stacked cell ``cell`` by
    ``plant(logits[cell])``."""
    calls = []

    def spy(net, batch, out=None):
        logits, cache = forward(net, batch, out)
        if not calls:
            logits[cell] = plant(logits[cell])
        calls.append(None)
        return logits, cache

    monkeypatch.setattr(harness, "forward", spy)


def spread_rows(logits):
    """Finite logits with a NaN loss: every row holds the largest float and,
    on its other classes, its negation, so the max shift overflows to -inf on
    a class whose unsmoothed target weight is 0, and 0 * -inf is NaN."""
    out = np.full_like(logits, -np.finfo(np.float64).max)
    out[..., 0] = np.finfo(np.float64).max
    return out


def nan_entry(logits):
    out = logits.copy()
    out[0, 0] = math.nan
    return out


def count_calls(monkeypatch, *names):
    """Route each named ``harness`` function through a counting spy."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _real=getattr(harness, name)):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(harness, name, spy)
    return counts


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
        net = DenseNet(np.array([1e200, 0.0, 0.0, 0.0]), (1, 2), ("identity",))
        ds = Dataset(np.array([[1.0]]), np.array([0]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            *_, norm, split = _evaluate(net, ds, ds, smooth_label_rows(2, 0.0))
        assert norm == 1e200 and split == ""

    def test_loss_mean_of_finite_huge_rows_is_finite(self):
        # At lr 5e9 the per-row losses stay finite while their sum overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, records = train(tiny_config(schedule=step_schedule(5e9)))
        assert records[-1].train_loss > 1e306
        assert math.isfinite(records[-1].train_loss)

    @pytest.mark.parametrize(
        "plant, message",
        [
            (spread_rows, "training loss became NaN at step 0 (epoch 0, batch 0)"),
            (nan_entry, "non-finite logits (diverged) at step 0 (epoch 0, batch 0)"),
        ],
        ids=["finite-spread", "nan"],
    )
    def test_planted_logits_end_the_run_at_step_0(self, monkeypatch, plant, message):
        plant_logits(monkeypatch, 0, plant)
        with pytest.raises(DivergenceError, match=re.escape(message)):
            train(tiny_config())

    def test_nan_evaluation_loss_ends_the_run_after_its_epoch(self, monkeypatch):
        # Finite training-split logits that span more than the float64 range
        # give an unsmoothed NaN loss at the end of epoch 0, after 4 steps.
        datasets = load_datasets(TINY_DATA)

        def spy(net, ds):
            logits = _logits(net, ds)
            return spread_rows(logits) if ds is datasets[0] else logits

        monkeypatch.setattr(harness, "_logits", spy)
        message = "training loss became NaN after step 3 (end of epoch 0)"
        with pytest.raises(DivergenceError, match=re.escape(message)):
            train(tiny_config(label_smoothing=0.0), datasets)

    def test_a_step_computes_no_loss_and_no_label_rows(self, monkeypatch):
        # Only the evaluations compute a loss; the steps screen the logits.
        # The run's one label table gives the targets of steps and evaluations.
        counts = count_calls(monkeypatch, "batch_cross_entropy", "smooth_label_rows")
        train(TrainConfig(epochs=2))
        assert counts == {"batch_cross_entropy": 2, "smooth_label_rows": 1}

    def test_one_step_call_per_optimizer_step(self, monkeypatch):
        n = len(load_datasets(TINY_DATA)[0])
        assert n % 24  # an epoch ends on a short batch
        counts = count_calls(monkeypatch, "_step")
        train(tiny_config(epochs=3, batch_size=24))
        assert counts == {"_step": 3 * math.ceil(n / 24)}

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


class TestStep:
    """One ``_step`` of a stack moves each cell as a step of that cell alone does."""

    ALPHAS = np.array([0.1, 0.5, 1.0])[:, None, None]
    CLIP = 5.0
    LR = 0.1

    @staticmethod
    def batches(steps=4):
        """``steps`` (3, 8, 6) batches and their targets at smoothing 0.1; the
        middle cell's inputs are 10x larger, so that the clip fires in it alone."""
        rng = np.random.default_rng(41)
        xs = rng.normal(size=(steps, 3, 8, 6)) * np.array([1.0, 10.0, 1.0])[:, None, None]
        qs = smooth_label_rows(4, 0.1)[rng.integers(0, 4, size=(steps, 3, 8))]
        return xs, qs

    @staticmethod
    def fresh(seeds):
        """A stack of 6-16-4 nets, one per seed, and its optimizer state."""
        net = stack_nets([init_dense_net([6, 16, 4], np.random.default_rng(s)) for s in seeds])
        return net, init_opt_state(net)

    def run(self, seeds, alphas, xs, qs, clip):
        net, opt = self.fresh(seeds)
        # Fresh step arrays for every step: a new cache list, no kept vectors.
        verdicts = [_step(net, opt, xb, q, alphas, self.LR, clip, ([], None, None))
                    for xb, q in zip(xs, qs)]
        return net, opt, verdicts

    def assert_cell_matches(self, net, opt, cell, solo_net, solo_opt):
        assert_array_equal(net.params[cell].view(np.int64), solo_net.params[0].view(np.int64))
        assert_array_equal(opt.velocity[cell].view(np.int64), solo_opt.velocity[0].view(np.int64))

    def test_stack_equals_its_cells_alone(self):
        xs, qs = self.batches()
        net, opt, verdicts = self.run(range(3), self.ALPHAS, xs, qs, self.CLIP)
        unclipped = self.run(range(3), self.ALPHAS, xs, qs, None)[0]
        fired = [not np.array_equal(net.params[s], unclipped.params[s]) for s in range(3)]
        assert fired == [False, True, False]
        assert verdicts == [None] * len(xs)
        for s in range(3):
            one = slice(s, s + 1)
            solo = self.run([s], self.ALPHAS[one], xs[:, one], qs[:, one], self.CLIP)
            assert solo[2] == verdicts
            self.assert_cell_matches(net, opt, s, *solo[:2])

    def test_planted_nan_cell_leaves_the_others_alone(self, monkeypatch):
        xs, qs = self.batches(steps=1)
        net, opt = self.fresh(range(3))
        plant_logits(monkeypatch, 1, nan_entry)
        finite, losses = _step(net, opt, xs[0], qs[0], self.ALPHAS, self.LR, self.CLIP,
                               ([], None, None))
        monkeypatch.undo()
        assert finite.tolist() == [True, False, True]
        assert np.isfinite(losses[[0, 2]]).all() and not np.isfinite(losses[1])
        for s in (0, 2):
            one = slice(s, s + 1)
            solo_net, solo_opt = self.fresh([s])
            assert _step(solo_net, solo_opt, xs[0, one], qs[0, one], self.ALPHAS[one],
                         self.LR, self.CLIP, ([], None, None)) is None
            self.assert_cell_matches(net, opt, s, solo_net, solo_opt)


class TestEvaluationBlocks:
    """Evaluation runs ``forward`` over row blocks, with the bits of one call."""

    @staticmethod
    def blobs(rows, features, seed=95):
        rng = np.random.default_rng(seed)
        return Dataset(rng.normal(size=(rows, features)), rng.integers(0, 10, rows), 10)

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
        sound = self.blobs(2 * _EVAL_ROWS + 5, 40)
        inputs = sound.inputs.copy()
        inputs[-1] = 1e308  # finite, so the split is built with it in place
        ds = Dataset(inputs, sound.labels, 10)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(_logits(net, ds)).all(axis=-1)
        assert finite[:-1].all() and not finite[-1]
        # Training on a sound split, the run ends at its first evaluation.
        cfg = tiny_config(hidden=(32,), epochs=2)
        with pytest.raises(DivergenceError, match=re.escape(
            "non-finite logits while evaluating the test split"
        )):
            train(cfg, (self.blobs(64, 40), ds))

    def test_peak_memory_stays_below_one_hidden_activation(self):
        # Whole-split evaluation held the hidden pre-activation and its relu,
        # 2 x N x hidden x 8 bytes; row blocks hold one block of each.
        rows, hidden = 20_000, 256
        net = init_dense_net([784, hidden, 10], np.random.default_rng(98))
        train_ds, test_ds = self.blobs(rows, 784), self.blobs(100, 784)
        tracemalloc.start()
        try:
            _evaluate(net, train_ds, test_ds, smooth_label_rows(10, 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * hidden * 8


class TestStackEvaluation:
    """One ``_evaluate`` of a stack gives each cell, bit for bit, what an
    evaluation of that cell alone gives."""

    @staticmethod
    def assert_cells_match(net, train_ds, test_ds, q_table):
        *stacked, splits = _evaluate(net, train_ds, test_ds, q_table)
        for s in range(net.params.shape[0]):
            *solo, split = _evaluate(net.cell(s), train_ds, test_ds, q_table)
            assert splits[s] == split
            for many, one in zip(stacked, solo):
                assert_array_equal(np.asarray(many[s]).view(np.int64), one.view(np.int64))
        return splits

    def test_desk_stack_of_8_matches_its_cells(self):
        train_ds, test_ds = load_datasets(DataSpec())
        net = stack_nets([init_dense_net([20, 64, 10], np.random.default_rng(s)) for s in range(8)])
        net.params[5] *= 1e300  # a diverged cell rides along
        q_table = smooth_label_rows(10, 0.1)
        splits = self.assert_cells_match(net, train_ds, test_ds, q_table)
        assert splits.tolist() == [""] * 5 + ["train"] + [""] * 2

    def test_uint8_stack_of_2_matches_its_cells_over_row_blocks(self):
        rng = np.random.default_rng(100)

        def pixels(rows):
            images = rng.integers(0, 256, size=(rows, 40), dtype=np.uint8)
            return Dataset(images, rng.integers(0, 10, rows), 10)

        train_ds, test_ds = pixels(2 * _EVAL_ROWS + 1), pixels(_EVAL_ROWS + 3000)
        net = stack_nets([init_dense_net([40, 32, 10], np.random.default_rng(s)) for s in (1, 2)])
        q_table = smooth_label_rows(10, 0.0)
        assert self.assert_cells_match(net, train_ds, test_ds, q_table).tolist() == ["", ""]


class TestMetricsCsv:
    def test_format_is_pinned(self, tmp_path):
        # The header is MetricsRecord's field names: a renamed field would
        # change every metrics.csv written after it.
        assert METRICS_HEADER == "epoch,train_loss,train_acc,test_acc,gap,mean_logit_norm,lr"
        p = tmp_path / "m.csv"
        write_metrics_csv([MetricsRecord(3, 0.1 + 0.2, 1.0, 0.75, 0.25, 1e300, 0.05)], p)
        row = "3,0.30000000000000004,1.0,0.75,0.25,1e+300,0.05"
        assert p.read_text() == f"{METRICS_HEADER}\n{row}\n"

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
                          rng.integers(0, 4, n), 4)
                  for n in (96, 32)]
        widened = [Dataset(ds.features(slice(None)), ds.labels, 4) for ds in pixels]
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
        assert (len(train_ds), len(test_ds)) == (3, 2)
        assert train_ds.inputs.dtype == test_ds.inputs.dtype == np.uint8

    @pytest.mark.parametrize("test_labels, classes", [([0, 0], 1), ([0, 1], 2)])
    def test_idx_splits_need_two_classes_between_them(self, tmp_path, test_labels, classes):
        # A train split of class 0 alone still trains when the test split
        # holds another class; one class in both splits is rejected.
        paths = {}
        for split, labels in (("train", [0, 0, 0]), ("test", test_labels)):
            paths[f"{split}_images"] = str(tmp_path / f"{split}-images")
            paths[f"{split}_labels"] = str(tmp_path / f"{split}-labels")
            write_idx_images(paths[f"{split}_images"], np.zeros((len(labels), 2, 2), np.uint8))
            write_idx_labels(paths[f"{split}_labels"], np.array(labels, dtype=np.uint8))
        spec = DataSpec(kind="idx", **paths)
        if classes == 2:
            assert [ds.num_classes for ds in load_datasets(spec)] == [2, 2]
            return
        with pytest.raises(ValueError, match="need at least 2 classes, got 1") as error:
            load_datasets(spec)
        assert all(paths[key] in str(error.value) for key in ("train_labels", "test_labels"))

    def test_grid_rows_match_float64_features(self, tmp_path):
        pixels, widened = self.pixel_pair()
        cfg = tiny_config(epochs=2)
        rows_u8 = grid_search(cfg, [0.5, 1.0], [3], tmp_path / "u8.csv", pixels)
        rows_f64 = grid_search(cfg, [0.5, 1.0], [3], tmp_path / "f64.csv", widened)
        assert len(rows_u8) == 2 and rows_u8 == rows_f64
        assert (tmp_path / "u8.csv").read_bytes() == (tmp_path / "f64.csv").read_bytes()


class TestGridCsv:
    def test_header_is_pinned(self):
        # The header is GridRow's field names: a renamed field would change
        # every grid.csv written after it, and stop old ones from resuming.
        assert GRID_HEADER == "alpha,seed,final_train_acc,final_test_acc,gap,mean_logit_norm,status"

    @pytest.mark.parametrize(
        "row, line",
        [
            (GridRow(0.25, 3, 0.875, 0.75, 0.125, 0.1 + 0.2, "ok"),
             "0.25,3,0.875,0.75,0.125,0.30000000000000004,ok"),
            (GridRow(0.1, 7, math.nan, math.nan, math.nan, math.nan, "diverged"),
             "0.1,7,nan,nan,nan,nan,diverged"),
        ],
        ids=["ok", "diverged"],
    )
    def test_rows_round_trip(self, row, line):
        assert _csv_line(row) == line
        assert repr(grid._parse_grid_row(line)) == repr(row)


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
        def transformed_softmax(logits, q, alpha):
            return power_transform_rows(softmax(logits), alpha) - q

        monkeypatch.setattr(harness, "tampered_dlogits", transformed_softmax)
        report = verify_claims(seed=0, trials=20, class_counts=(10, 100))
        failing = [p.name for p in report.properties if not p.passed]
        assert failing == ["wide-logit-gradient"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_single_trial_runs(self, monkeypatch, cpus):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
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
            dict(class_counts=np.array([], dtype=int)),
            dict(seed=1.5),
            dict(seed=-1),
        ):
            with pytest.raises(ValueError):
                verify_claims(**kw)
        # A scalar or a str is refused by name, not iterated.
        for counts in (5, np.int64(5), "23", 2.5):
            with pytest.raises(ValueError, match="class_counts must be a sequence"):
                verify_claims(class_counts=counts)
        assert verify_claims(trials=np.int64(2), class_counts=(np.int64(3),)).passed
        assert verify_claims(trials=2, class_counts=np.array([2, 3])).class_counts == (2, 3)

    # Batching the oracles, reusing temporaries, and checking row blocks on
    # any number of threads must not move a digit.  At C=700 a block holds 46
    # rows, fewer than the 50 oracle rows and the 200 clip rows; 7 trials hold
    # fewer rows than either.
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "fixture, kw",
        [("verify_seed0_trials200.txt", dict(seed=0, trials=200)),
         ("verify_seed2_trials333_classes3_7_700.txt",
          dict(seed=2, trials=333, class_counts=(3, 7, 700))),
         ("verify_seed7_trials7_classes2_700.txt",
          dict(seed=7, trials=7, class_counts=(2, 700)))],
        ids=["defaults", "c700", "trials7"],
    )
    def test_report_pinned_to_fixture(self, monkeypatch, cpus, fixture, kw):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
        text = format_verify_report(verify_claims(**kw))
        assert text + "\n" == (Path(__file__).parent / "fixtures" / fixture).read_text()

    def test_max_relative_error_floor(self):
        assert max_relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        # below the floor the check is absolute, relative to the floor
        tiny = harness._FD_FLOOR / 4
        assert max_relative_error([tiny], [2 * tiny]) == 0.25
        assert max_relative_error([2.0], [1.0]) == 0.5

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
            q = smooth_label_rows(c, 0.1)[rng.integers(0, c, size=n)]
            z_before, q_before = z.copy(), q.copy()
            for scale in (1.0, 0.3):
                rows = _fd_logit_grad(z, q, scale=scale)
                assert rows.shape == (n, c)
                for i in range(n):
                    single = _fd_logit_grad(z[i], q[i], scale=scale)
                    assert_array_equal(rows[i], single)
                    former = _former_fd_logit_grad(z[i], q[i], scale, harness._FD_STEP)
                    assert_array_equal(single, former)
            assert_array_equal(z, z_before)
            assert_array_equal(q, q_before)

    @pytest.mark.parametrize("c, n", [(2, 9), (10, 9), (100, 13)])
    def test_fd_target_stack_equals_per_smoothing_calls(self, c, n):
        # One (2, n, C) stack of smoothings 0 and 0.1 gives (2, n, C), each
        # set bit for bit its own call; a 1-D z takes a (2, C) stack.
        rng = np.random.default_rng(c)
        targets = rng.integers(0, c, size=n)
        q = np.stack([smooth_label_rows(c, eps)[targets] for eps in (0.0, 0.1)])
        for sigma in (3.0, 300.0):
            z = rng.normal(0.0, sigma, size=(n, c))
            for scale in (1.0, 0.3, 0.01):
                for zs, qs in ((z, q), (z[0], q[:, 0])):
                    stacked = _fd_logit_grad(zs, qs, scale=scale)
                    assert stacked.shape == qs.shape
                    for s in range(2):
                        alone = _fd_logit_grad(zs, qs[s], scale=scale)
                        assert_array_equal(stacked[s].view(np.int64), alone.view(np.int64))

    def test_verify_calls_the_fd_oracle_five_times_per_class_count(self, monkeypatch):
        # Three strengths on sigma-3 rows and two on sigma-300 rows, each call
        # taking both smoothings of the first 50 rows as one stack, however
        # many blocks those rows span: at 2^10 elements a block holds 10 rows
        # at C=100.  The calls run on the pool's threads, in no set order.
        shapes = []

        def spy(z, q, *args, **kw):
            shapes.append((np.shape(z), np.shape(q)))
            return _fd_logit_grad(z, q, *args, **kw)

        monkeypatch.setattr(harness, "_fd_logit_grad", spy)
        monkeypatch.setattr(harness, "_VERIFY_BLOCK", 1 << 10)
        assert verify_claims(seed=0, trials=60, class_counts=(2, 10, 100)).passed
        assert Counter(shapes) == Counter({((50, c), (2, 50, c)): 5 for c in (2, 10, 100)})

    def test_verify_takes_one_engine_gradient_per_strength_for_both_smoothings(self, monkeypatch):
        # A gradient job takes the 11 strengths on its block's targets at both
        # smoothings as one stack; the oracle job takes its 5 on the first 50
        # rows.  At 2^10 elements, 60 rows at C=100 are six blocks of 10.
        shapes = []

        def spy(z, q, alpha):
            shapes.append(np.shape(q))
            return tampered_dlogits(z, q, alpha)

        monkeypatch.setattr(harness, "tampered_dlogits", spy)
        monkeypatch.setattr(harness, "_VERIFY_BLOCK", 1 << 10)
        assert verify_claims(seed=0, trials=60, class_counts=(100,)).passed
        assert Counter(shapes) == Counter({(2, 10, 100): 6 * 11, (2, 50, 100): 5})

    def test_fd_oracle_differentiates_the_engine_row_loss(self, monkeypatch):
        # The oracle's loss is lossgrad's own, taken at scale * (z +- h e_k).
        calls = []

        def spy(logits, q):
            calls.append(logits.copy())
            return cross_entropy_rows(logits, q)

        monkeypatch.setattr(harness, "cross_entropy_rows", spy)
        z, q = np.array([0.5, -1.0, 2.0]), smooth_label_rows(3, 0.1)[2]
        _fd_logit_grad(z, q, scale=0.3)
        eye = np.eye(3) * harness._FD_STEP
        assert_array_equal(np.concatenate(calls), [0.3 * (z + eye), 0.3 * (z - eye)])

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


# Values of the wrong type for a numeric setting, by its field's annotation:
# the config dataclasses' fields are read as the CLI reads them.
SETTING_WRONG_TYPES = {
    "float": ("0.5", True, [0.5], None, np.array([0.5])),
    "float | None": ("0.5", True, [0.5], np.array([0.5])),
    "int": (1.5, True, "1"),
}


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
            dict(nesterov="false"),
            dict(nesterov=0),
            dict(seed=1.5),
            dict(seed=-1),
            dict(tamper=0.5),
            dict(schedule=None),
            dict(data="blobs"),
            dict(hidden=64),
        ):
            with pytest.raises(ValueError):
                tiny_config(**kw)

    @pytest.mark.parametrize("kw", [dict(momentum=1.5), dict(weight_decay=math.nan), dict(nesterov=1)])
    def test_optimizer_settings_checked_as_opt_state_checks_them(self, kw):
        settings = dict(momentum=0.9, weight_decay=5e-4, nesterov=True) | kw
        with pytest.raises(ValueError) as opt_err:
            check_opt_settings(**settings)
        with pytest.raises(ValueError, match=re.escape(str(opt_err.value))):
            tiny_config(**kw)

    @pytest.mark.parametrize(
        "kw",
        [dict(classes=1), dict(per_class=2.5), dict(features=True), dict(seed=-1),
         dict(spread=0.0), dict(spread=math.inf), dict(spread=math.nan)],
    )
    def test_blob_settings_checked_as_synth_blobs_checks_them(self, kw):
        names = ("classes", "per_class", "features", "spread", "seed")
        settings = {name: getattr(DataSpec(), name) for name in names} | kw
        with pytest.raises(ValueError) as blob_err:
            synth_blobs(*settings.values())
        with pytest.raises(ValueError, match=re.escape(str(blob_err.value))):
            DataSpec(**kw)

    def test_dataspec_validation(self):
        with pytest.raises(ValueError, match="unknown data kind"):
            DataSpec(kind="csv")
        with pytest.raises(ValueError, match="needs paths"):
            DataSpec(kind="idx", train_images="x")
        # open() would take an int, True as fd 1, for a file descriptor.
        paths = {name: "x" for name in DataSpec.IDX_PATHS}
        for bad in (3, True, b"x"):
            with pytest.raises(ValueError, match="test_labels must be a path"):
                DataSpec(kind="idx", **paths | {"test_labels": bad})
        for kw in (dict(classes=2.5), dict(per_class=True), dict(features=3.0), dict(seed=1.5)):
            with pytest.raises(ValueError, match="integer"):
                DataSpec(**kw)

    def test_numpy_integer_counts_accepted(self):
        cfg = tiny_config(epochs=np.int64(2), batch_size=np.int32(16), seed=np.int64(3))
        assert cfg.epochs == 2 and cfg.seed == 3
        assert DataSpec(classes=np.int64(3), seed=np.int64(1)).classes == 3

    @pytest.mark.parametrize(
        "spec, required, name, value",
        [
            pytest.param(spec, required, f.name, value, id=f"{label}.{f.name}={value!r}")
            for spec, required, label in (
                (DataSpec, {}, "DataSpec"),
                # An IDX source uses no blob setting, but its spec checks them all.
                (DataSpec, {"kind": "idx"} | {name: "x" for name in DataSpec.IDX_PATHS},
                 "DataSpec[idx]"),
                (TrainConfig, {}, "TrainConfig"),
                (ScheduleSpec, {}, "ScheduleSpec"),
                (TamperSpec, {"alpha": 1.0}, "TamperSpec"),
            )
            for f in fields(spec)
            for value in SETTING_WRONG_TYPES.get(f.type, ())
        ],
    )
    def test_every_numeric_setting_rejects_a_wrong_type(self, spec, required, name, value):
        with pytest.raises(ValueError):
            spec(**(required | {name: value}))

    def test_metrics_record_checks(self):
        with pytest.raises(ValueError, match="gap"):
            MetricsRecord(0, 1.0, 0.9, 0.8, 0.2, 1.0, 0.1)
        with pytest.raises(ValueError, match="train_acc"):
            MetricsRecord(0, 1.0, 1.5, 0.8, 0.7, 1.0, 0.1)
