"""Learning-rate schedule shapes and boundary values."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gradtamper.schedule import ScheduleSpec, lr_at

RECIPE_50 = ScheduleSpec()  # warmup 2 -> peak 0.4, cosine to 4e-4 at 46, cooldown 4


def test_recipe_50_epoch_values():
    assert lr_at(RECIPE_50, 0.0) == 4e-4
    assert_allclose(lr_at(RECIPE_50, 1.0), 0.2002, rtol=1e-12)  # warmup midpoint
    assert lr_at(RECIPE_50, 2.0) == 0.4  # warmup lands exactly on peak
    assert_allclose(lr_at(RECIPE_50, 10.0), 0.3682824558596699975386, rtol=1e-12)
    assert_allclose(lr_at(RECIPE_50, 24.0), 0.2002, rtol=1e-12)  # cosine midpoint
    for t in (46.0, 47.0, 49.0, 49.99):
        assert lr_at(RECIPE_50, t) == 4e-4  # cooldown holds base exactly


def test_cosine_monotone_between_peak_and_cooldown():
    ts = np.linspace(2.0, 46.0, 500)
    lrs = [lr_at(RECIPE_50, t) for t in ts]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))
    assert lrs[0] == 0.4
    assert_allclose(lrs[-1], 4e-4, rtol=0, atol=1e-12)


def test_warmup_is_linear():
    lr0, lr_half, lr1 = (lr_at(RECIPE_50, t) for t in (0.0, 0.5, 1.0))
    assert_allclose(lr_half, (lr0 + lr1) / 2, rtol=1e-12)
    assert_allclose(lr_at(RECIPE_50, 0.5), 4e-4 + (0.4 - 4e-4) * 0.25, rtol=1e-15)


def test_step_schedule_milestones():
    sched = ScheduleSpec(
        kind="step", base_lr=0.1, peak_lr=0.1, warmup_epochs=0,
        total_epochs=100, cooldown_epochs=0, step_milestones=(30, 60, 90),
    )
    assert lr_at(sched, 0.0) == 0.1
    assert lr_at(sched, 29.9) == 0.1
    assert_allclose(lr_at(sched, 30.0), 0.01, rtol=1e-15)
    assert_allclose(lr_at(sched, 59.0), 0.01, rtol=1e-15)
    assert_allclose(lr_at(sched, 60.0), 0.001, rtol=1e-15)
    assert_allclose(lr_at(sched, 95.0), 1e-4, rtol=1e-15)


def test_step_schedule_with_warmup_is_continuous_at_peak():
    sched = ScheduleSpec(
        kind="step", base_lr=0.004, peak_lr=0.4, warmup_epochs=5,
        total_epochs=100, cooldown_epochs=0, step_milestones=(30, 60, 90),
    )
    assert lr_at(sched, 0.0) == 0.004
    assert_allclose(lr_at(sched, 4.999999), 0.4, rtol=1e-5)
    assert lr_at(sched, 5.0) == 0.4


def test_fractional_epoch_evaluation():
    # per-iteration lookups hit fractional epochs; spot a few against the formula
    t = 7.25
    frac = (t - 2.0) / 44.0
    expected = 0.4 - (0.4 - 4e-4) * 0.5 * (1 - np.cos(np.pi * frac))
    assert_allclose(lr_at(RECIPE_50, t), expected, rtol=1e-15)


def test_domain_validation():
    for t in (-0.01, 50.0, 51.0, float("nan")):
        with pytest.raises(ValueError):
            lr_at(RECIPE_50, t)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScheduleSpec(kind="nope")
    with pytest.raises(ValueError):
        ScheduleSpec(base_lr=0.5, peak_lr=0.4)  # base above peak
    with pytest.raises(ValueError):
        ScheduleSpec(warmup_epochs=30, cooldown_epochs=30, total_epochs=50)
    with pytest.raises(ValueError):
        ScheduleSpec(kind="step", step_factor=1.5)
    with pytest.raises(ValueError):
        ScheduleSpec(kind="step", step_milestones=(60, 30))
    with pytest.raises(ValueError):
        ScheduleSpec(kind="step", step_milestones=5)  # not a sequence: no TypeError from tuple()
    with pytest.raises(ValueError):
        ScheduleSpec(base_lr=0.0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(warmup_epochs=1.5, total_epochs=10.5, cooldown_epochs=True),
        dict(warmup_epochs=1.5),
        dict(total_epochs=10.5),
        dict(cooldown_epochs=True),
        dict(kind="step", step_milestones=(1.5, 2.5)),
        dict(kind="step", step_milestones=(True,)),
    ],
)
def test_rejects_epoch_counts_that_are_not_integers(kw):
    with pytest.raises(ValueError):
        ScheduleSpec(**kw)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(warmup_epochs=-1), "warmup_epochs must be an integer >= 0, got -1"),
        (dict(total_epochs=0, warmup_epochs=0, cooldown_epochs=0),
         "total_epochs must be an integer >= 1, got 0"),
        (dict(cooldown_epochs=1.0), "cooldown_epochs must be an integer >= 0, got 1.0"),
    ],
    ids=["warmup", "total", "cooldown"],
)
def test_each_epoch_count_is_checked_by_name(kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ScheduleSpec(**kw)


def test_milestone_the_schedule_never_reaches_rejected():
    # lr_at reads progress in [0, total_epochs): a later milestone never fires.
    steps = dict(kind="step", warmup_epochs=0, total_epochs=10, cooldown_epochs=0)
    for milestones, late in (((10,), 10), ((5, 20), 20), ((3, 10, 15), 15)):
        with pytest.raises(ValueError, match=f"milestone {late} is never reached in 10 total"):
            ScheduleSpec(**steps, step_milestones=milestones)
    last = ScheduleSpec(**steps, step_milestones=(9,))
    assert lr_at(last, 9.5) == last.peak_lr * last.step_factor


def test_numpy_integer_epoch_counts_accepted():
    spec = ScheduleSpec(kind="step", total_epochs=np.int64(10), step_milestones=(np.int32(5),))
    assert lr_at(spec, 6.0) == spec.peak_lr * spec.step_factor


def test_rejects_non_finite_rates():
    # base = peak = inf would otherwise give a nan rate at the first lr_at.
    inf, nan = float("inf"), float("nan")
    for kw in (
        dict(base_lr=inf, peak_lr=inf),
        dict(peak_lr=inf),
        dict(base_lr=nan),
        dict(peak_lr=nan),
        dict(base_lr=-inf),
    ):
        with pytest.raises(ValueError, match="base_lr"):
            ScheduleSpec(**kw)


def test_warmup_plus_cooldown_may_fill_total():
    sched = ScheduleSpec(warmup_epochs=2, total_epochs=6, cooldown_epochs=4)
    assert lr_at(sched, 2.0) == sched.base_lr  # cooldown starts right at warmup end
    assert lr_at(sched, 1.0) > sched.base_lr
