"""Power transform of probability vectors and its stationary threshold.

The transform rescales a probability vector entrywise to ``p_i**alpha`` and
renormalizes.  ``alpha = 1`` is the identity, ``alpha = 0`` collapses any
distribution to uniform, and intermediate values flatten the distribution
while preserving rank order.  For ``alpha < 1`` there is a single crossover
probability, the stationary threshold: entries below it grow under the
transform, entries above it shrink, and an entry exactly at the threshold is
a fixed point.  The threshold is a non-decreasing function of alpha, which is
what makes the transform a controlled "flattening" knob.

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_real

__all__ = [
    "MONOTONE_TOL",
    "TamperSpec",
    "MonotonicityReport",
    "prob_vec",
    "transform_probabilities",
    "stationary_threshold",
    "threshold_partition",
    "threshold_monotonicity_check",
]

# Construction tolerance on the input simplex; outputs of the transform stay
# within ~C*eps of exact normalization, far inside this.
SIMPLEX_TOL = 1e-9

# Successive threshold differences more negative than this fail monotonicity.
MONOTONE_TOL = -1e-10


@dataclass(frozen=True)
class TamperSpec:
    """Tampering configuration: strength ``alpha`` and activation epoch.

    ``alpha`` must lie in [0, 1]; 1 disables tampering, 0 replaces the
    backward-pass probabilities with the uniform distribution.  Tampering
    activates at ``start_epoch`` (0 = from the first epoch), which lets a run
    warm up untampered before the transform kicks in.
    """

    alpha: float
    start_epoch: int = 0

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        check_count("start_epoch", self.start_epoch, 0)


def prob_vec(values) -> np.ndarray:
    """Validate a probability vector and return it as a fresh float64 array.

    Requires at least two entries, all finite and non-negative, summing to 1
    within ``SIMPLEX_TOL``.  Raises ValueError otherwise.
    """
    p = np.asarray(values, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {p.shape}")
    return _check_simplex(p).copy()


def _check_simplex(p: np.ndarray) -> np.ndarray:
    """Check that every slice of ``p`` along the last axis is a probability
    vector (see :func:`prob_vec`); returns ``p`` itself."""
    if p.shape[-1] < 2:
        raise ValueError(f"probability vector needs at least 2 entries, got {p.shape[-1]}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector contains NaN or Inf")
    if np.any(p < 0.0):
        raise ValueError(f"probability vector has negative entries (min {p.min()!r})")
    totals = np.ravel(p.sum(axis=-1))
    worst = int(np.argmax(np.abs(totals - 1.0)))
    if abs(totals[worst] - 1.0) > SIMPLEX_TOL:
        raise ValueError(
            f"probability vector sums to {float(totals[worst])!r}, expected 1 within {SIMPLEX_TOL}"
        )
    return p


def _check_alpha(alpha: float, *, exclude_one: bool = False) -> float:
    alpha = float(check_real("alpha", alpha, 0, 1, "[]"))
    if exclude_one and alpha == 1.0:
        raise ValueError("alpha = 1 has no stationary threshold: every point is stationary")
    return alpha


def power_transform_rows(p: np.ndarray, alpha: float) -> np.ndarray:
    """Apply the power transform along the last axis, without validation.

    Kernel shared by the public vector operation and ``verify``.  Powers are
    evaluated as exp(alpha * log p) in one fresh array, avoiding pow() edge
    behavior near 0; a zero entry gives log 0 = -inf and so exactly 0.
    """
    if alpha == 0.0:
        return np.full_like(p, 1.0 / p.shape[-1])
    if alpha == 1.0:
        return p.copy()
    with np.errstate(divide="ignore"):
        t = np.log(p)
    np.exp(np.multiply(alpha, t, out=t), out=t)
    return np.divide(t, t.sum(axis=-1, keepdims=True), out=t)


def transform_probabilities(p, alpha: float) -> np.ndarray:
    """Rescale a probability vector to ``p_i**alpha / sum_j p_j**alpha``.

    At ``alpha = 0`` the result is defined as exactly uniform (the limit of
    the transform), regardless of zero entries; at ``alpha = 1`` the input is
    returned unchanged.  Rank order of entries is preserved for alpha > 0,
    ties included.
    """
    p = prob_vec(p)
    alpha = _check_alpha(alpha)
    return power_transform_rows(p, alpha)


def _threshold_rows(p: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Stationary threshold of every row of ``p`` at every alpha, shape (N, A).

    The one kernel behind the public threshold functions; alphas in [0, 1),
    rows already validated.  Its alpha loop reuses one (N, C) scratch, and no
    N x A x C temporary is built.  Zero entries contribute nothing for alpha
    > 0, and alpha = 0 is the uniform limit 1/C.  Both ends of [1/C, 1] are
    clamped to guard against last-ulp rounding, since both are attained.
    """
    c = p.shape[1]
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    buf = np.empty_like(logp)
    taus = np.empty((p.shape[0], alphas.size))
    for j, alpha in enumerate(alphas):
        if alpha == 0.0:
            taus[:, j] = 1.0 / c
        else:
            totals = np.exp(np.multiply(alpha, logp, out=buf), out=buf).sum(axis=1)
            taus[:, j] = np.exp(np.log(totals) / (alpha - 1.0))
    return np.clip(taus, 1.0 / c, 1.0, out=taus)


def stationary_threshold(p, alpha: float) -> float:
    """Crossover probability ``(sum_j p_j**alpha) ** (1 / (alpha - 1))``.

    Entries of ``p`` at most this value do not decrease under the transform;
    entries above it strictly decrease.  Defined for alpha in [0, 1); alpha=1
    is rejected because the exponent is singular there (the transform is the
    identity and every point is stationary).  The result always lies in
    [1/C, 1].
    """
    p = prob_vec(p)
    alpha = _check_alpha(alpha, exclude_one=True)
    return float(_threshold_rows(p[None, :], np.array([alpha]))[0, 0])


def threshold_partition(p, alpha: float) -> tuple[set[int], set[int]]:
    """Split indices of ``p`` into (rising, falling) around the threshold.

    ``rising`` holds indices with ``p_i <= threshold`` (these do not decrease
    under the transform), ``falling`` the rest (these strictly decrease).
    Zero entries always land in ``rising``.
    """
    p = prob_vec(p)
    tau = stationary_threshold(p, alpha)
    rising = set(np.flatnonzero(p <= tau).tolist())
    falling = set(range(p.size)) - rising
    return rising, falling


@dataclass(frozen=True)
class MonotonicityReport:
    """Threshold evaluated over an alpha grid plus the worst successive step."""

    alphas: np.ndarray
    thresholds: np.ndarray
    min_successive_diff: float
    passed: bool


def threshold_monotonicity_check(p, alpha_grid) -> MonotonicityReport:
    """Evaluate the stationary threshold across an increasing alpha grid.

    ``p`` is one probability vector or an (N, C) batch of them; the report's
    ``thresholds`` then has shape (A,) or (N, A), and its minimum successive
    difference is taken over every row.  Passes iff that minimum is at least
    ``MONOTONE_TOL`` (the tolerance absorbs double-precision rounding; the
    threshold is analytically non-decreasing in alpha).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.ndim not in (1, 2) or p.shape[0] == 0:
        raise ValueError(
            f"expected a probability vector or a non-empty (N, C) batch, got shape {p.shape}"
        )
    _check_simplex(p)
    grid = np.asarray(alpha_grid, dtype=np.float64)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("alpha grid must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("alpha grid contains NaN or Inf")
    check_real("alpha grid", np.asarray(alpha_grid), 0, 1)
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("alpha grid must be strictly increasing")

    taus = _threshold_rows(np.atleast_2d(p), grid)
    if p.ndim == 1:
        taus = taus[0]
    min_diff = float(np.diff(taus, axis=-1).min()) if grid.size > 1 else math.inf
    return MonotonicityReport(
        alphas=grid.copy(),
        thresholds=taus,
        min_successive_diff=min_diff,
        passed=min_diff >= MONOTONE_TOL,
    )
