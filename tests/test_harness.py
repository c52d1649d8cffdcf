"""Training loop determinism, grid resume, analysis tables, verify kit."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from gradtamper.harness import (
    GRID_HEADER,
    METRICS_HEADER,
    DataSpec,
    DivergenceError,
    MetricsRecord,
    TrainConfig,
    analyze_transform,
    format_verify_report,
    grid_search,
    load_datasets,
    max_relative_error,
    train,
    verify_claims,
    write_metrics_csv,
    write_transform_csv,
)
from gradtamper.lossgrad import softmax
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
        hot = ScheduleSpec(
            kind="step", base_lr=1e150, peak_lr=1e150, warmup_epochs=0,
            total_epochs=6, cooldown_epochs=0,
        )
        with pytest.raises(DivergenceError, match=r"non-finite logits.*step"):
            train(tiny_config(schedule=hot))

    def test_fitted_desk_run_records_no_negative_zero_loss(self):
        # At alpha=0.05 the desk run fits its training split so tightly that
        # the loss is exactly zero in most epochs; it must read 0.0, not -0.0.
        _, records = train(TrainConfig(tamper=TamperSpec(0.05)))
        losses = [r.train_loss for r in records]
        assert 0.0 in losses
        assert all(math.copysign(1.0, loss) == 1.0 for loss in losses)


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


class TestGrid:
    def test_sweep_then_resume_reproduces_csv(self, tmp_path):
        cfg = tiny_config()
        full = tmp_path / "grid.csv"
        rows = grid_search(cfg, [0.5, 1.0], [0, 1], full)
        assert len(rows) == 4
        complete = full.read_bytes()

        # kill the sweep after one cell and resume
        lines = complete.decode().splitlines()
        partial = tmp_path / "resume.csv"
        partial.write_text("\n".join(lines[:2]) + "\n")
        resumed = grid_search(cfg, [0.5, 1.0], [0, 1], partial)
        assert partial.read_bytes() == complete
        assert resumed == rows

    def test_diverged_cell_recorded_and_sweep_continues(self, tmp_path):
        hot = ScheduleSpec(
            kind="step", base_lr=1e150, peak_lr=1e150, warmup_epochs=0,
            total_epochs=6, cooldown_epochs=0,
        )
        p = tmp_path / "grid.csv"
        rows = grid_search(tiny_config(schedule=hot), [0.5], [0, 1], p)
        assert [r.status for r in rows] == ["diverged", "diverged"]
        assert all(math.isnan(r.final_train_acc) for r in rows)
        assert len(p.read_text().splitlines()) == 3

    def test_foreign_header_rejected(self, tmp_path):
        p = tmp_path / "grid.csv"
        p.write_text("alpha,seed\n")
        with pytest.raises(ValueError, match="grid header"):
            grid_search(tiny_config(), [1.0], [0], p)

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
        assert report.min_threshold_diff >= -1e-10
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
        assert "trend" not in text  # not requested -> not reported

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            verify_claims(trials=0)
        with pytest.raises(ValueError):
            verify_claims(class_counts=(1, 5))

    def test_max_relative_error_floor(self):
        assert max_relative_error([1.0, 2.0], [1.0, 2.0]) == 0.0
        # below the floor the check is absolute at floor * tol
        assert max_relative_error([1e-9], [2e-9], floor=1e-4) == pytest.approx(1e-5)
        assert max_relative_error([2.0], [1.0], floor=1e-4) == 0.5


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
