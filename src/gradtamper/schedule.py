"""Learning-rate schedules: linear warmup, cosine decay, cooldown, step decay.

Schedules are evaluated at fractional epoch progress (epoch + batch/batches)
so warmup is smooth at any batch count.  The cosine kind ramps linearly from
``base_lr`` to ``peak_lr`` over the warmup, follows a single cosine half
period down to ``base_lr`` at the start of the cooldown, then holds
``base_lr`` constant; its floor is ``base_lr`` rather than zero so the
cooldown value is hit exactly.  The step kind holds ``peak_lr`` after warmup
and multiplies by ``step_factor`` at each passed milestone; it has no
cooldown phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not (math.isfinite(self.peak_lr) and 0.0 < self.base_lr <= self.peak_lr):
            raise ValueError(
                f"need 0 < base_lr <= peak_lr < inf, got {self.base_lr!r} and {self.peak_lr!r}"
            )
        if self.warmup_epochs < 0 or self.cooldown_epochs < 0 or self.total_epochs < 1:
            raise ValueError("epoch counts must be non-negative with total >= 1")
        if self.warmup_epochs + self.cooldown_epochs > self.total_epochs:
            raise ValueError(
                f"warmup ({self.warmup_epochs}) + cooldown ({self.cooldown_epochs}) "
                f"exceed total epochs ({self.total_epochs})"
            )
        if not 0.0 < self.step_factor < 1.0:
            raise ValueError(f"step_factor must lie in (0, 1), got {self.step_factor!r}")
        ms = tuple(self.step_milestones)
        if any(m <= 0 for m in ms) or any(b <= a for a, b in zip(ms, ms[1:])):
            raise ValueError(f"milestones must be positive and strictly increasing, got {ms}")
        object.__setattr__(self, "step_milestones", ms)


def lr_at(spec: ScheduleSpec, epoch_progress: float) -> float:
    """Learning rate at fractional epoch ``epoch_progress`` in [0, total)."""
    t = float(epoch_progress)
    if not (math.isfinite(t) and 0.0 <= t < spec.total_epochs):
        raise ValueError(
            f"epoch progress {epoch_progress!r} outside [0, {spec.total_epochs})"
        )
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
