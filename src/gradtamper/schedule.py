"""Learning-rate schedules: linear warmup, cosine decay, cooldown, step decay.

Schedules are evaluated at fractional epoch progress (epoch + batch/batches)
so warmup is smooth at any batch count.  The cosine kind ramps linearly from
``base_lr`` to ``peak_lr`` over the warmup, follows a single cosine half
period down to ``base_lr`` at the start of the cooldown, then holds
``base_lr`` constant; its floor is ``base_lr`` rather than zero so the
cooldown value is hit exactly.  The step kind holds ``peak_lr`` after warmup
and multiplies by ``step_factor`` at each passed milestone, each one below
``total_epochs``; it has no cooldown phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._checks import check_count, check_real, is_count

__all__ = ["ScheduleSpec", "lr_at"]

_KINDS = ("warmup_cosine_cooldown", "step")


@dataclass(frozen=True)
class ScheduleSpec:
    kind: str = "warmup_cosine_cooldown"
    base_lr: float = 4e-4
    peak_lr: float = 0.4
    warmup_epochs: int = 2
    total_epochs: int = 50
    cooldown_epochs: int = 4
    step_milestones: tuple[int, ...] = ()
    step_factor: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}, expected one of {_KINDS}")
        check_real("base_lr", self.base_lr, 0, math.inf, "()")
        check_real("peak_lr (>= base_lr)", self.peak_lr, self.base_lr, math.inf)
        check_count("warmup_epochs", self.warmup_epochs, 0)
        check_count("total_epochs", self.total_epochs, 1)
        check_count("cooldown_epochs", self.cooldown_epochs, 0)
        if self.warmup_epochs + self.cooldown_epochs > self.total_epochs:
            raise ValueError(
                f"warmup ({self.warmup_epochs}) + cooldown ({self.cooldown_epochs}) "
                f"exceed total epochs ({self.total_epochs})"
            )
        check_real("step_factor", self.step_factor, 0, 1, "()")
        ms = self.step_milestones
        ok = isinstance(ms, (tuple, list)) and all(is_count(m) and m > 0 for m in ms)
        if not ok or any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be positive, strictly increasing integers, got {ms!r}")
        if ms and ms[-1] >= self.total_epochs:  # progress stays below total_epochs
            raise ValueError(f"milestone {ms[-1]} is never reached in {self.total_epochs} total epochs")
        object.__setattr__(self, "step_milestones", tuple(ms))


def lr_at(spec: ScheduleSpec, epoch_progress: float) -> float:
    """Learning rate at fractional epoch ``epoch_progress`` in [0, total)."""
    t = float(check_real("epoch progress", epoch_progress, 0, spec.total_epochs))
    if t < spec.warmup_epochs:
        return spec.base_lr + (spec.peak_lr - spec.base_lr) * (t / spec.warmup_epochs)
    if spec.kind == "step":
        passed = sum(1 for m in spec.step_milestones if t >= m)
        return spec.peak_lr * spec.step_factor**passed
    cooldown_start = spec.total_epochs - spec.cooldown_epochs
    if t >= cooldown_start:
        return spec.base_lr
    # Written as peak minus the ramp so lr_at(warmup_epochs) is exactly peak_lr.
    frac = (t - spec.warmup_epochs) / (cooldown_start - spec.warmup_epochs)
    return spec.peak_lr - (spec.peak_lr - spec.base_lr) * 0.5 * (1.0 - math.cos(math.pi * frac))
