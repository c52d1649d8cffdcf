"""Softmax, cross-entropy, and the gradient of the loss at the logits.

Everything works on logit rows.  The loss is ``-sum_i q_i log softmax(z)_i``
with the log-softmax taken through logsumexp, so it stays exact when
``softmax(z)`` underflows to zero.  The one non-standard piece is
``tampered_dlogits``: the power transform of ``softmax(z)`` with strength
``alpha`` is ``softmax(alpha * z)``, so the tampered gradient
``p' - q`` is computed straight from the scaled logits, which keeps real mass
on entries whose ``softmax(z)`` is an exact zero.  ``softmax`` runs
``transform._softmax_rows``, the one kernel that the power transform runs
too, so ``verify``'s transform lines certify this ``p'``; at ``alpha = 1``
they certify ``softmax(log p)``, the untampered path.  The forward pass
(loss values, probabilities, accuracy) is untouched.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import numpy as np

from ._checks import check_cells, check_count, check_real
from .transform import _softmax_rows

# The benchmark's span tracer wraps this import site (bench/spans.py TARGETS).
from .transform import power_transform_rows  # noqa: F401

__all__ = [
    "softmax",
    "log_softmax",
    "smooth_label_rows",
    "cross_entropy_rows",
    "batch_cross_entropy",
    "tampered_dlogits",
]


def softmax(z) -> np.ndarray:
    """Map logits to probabilities along the last axis; stable and shift-invariant.

    Accepts a single logit vector or a batch of them.  Checks that the logits
    are finite, then runs ``transform._softmax_rows``, exp(z - max(z))
    normalized, the kernel the power transform runs too.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits contain NaN or Inf")
    return _softmax_rows(z)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise ``z - logsumexp(z)`` along the last axis; finite for finite z."""
    shifted = z - z.max(axis=-1, keepdims=True)
    return np.subtract(shifted, np.log(np.exp(shifted).sum(axis=-1, keepdims=True)), out=shifted)


def smooth_label_rows(num_classes: int, epsilon: float) -> np.ndarray:
    """The (C, C) smoothed one-hot table: row y holds 1-eps at y, eps/(C-1) elsewhere.

    Indexed by labels, ``smooth_label_rows(C, eps)[labels]`` gives their target
    rows; ``data.Dataset`` is where labels are checked.
    """
    check_count("num_classes", num_classes, 2)
    check_real("smoothing epsilon", epsilon, 0, 1)
    q = np.full((num_classes, num_classes), epsilon / (num_classes - 1))
    np.fill_diagonal(q, 1.0 - epsilon)
    return q


def _out(a: np.ndarray, q) -> np.ndarray | None:
    """``a`` when broadcasting it against ``q`` keeps its shape, so that an
    elementwise result can overwrite it; else None, a fresh array."""
    return a if np.broadcast(a, q).shape == a.shape else None


def cross_entropy_rows(logits: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Cross-entropy ``-sum(q * log_softmax(logits))`` of each row, one value per row.

    ``q`` may carry extra leading axes, say one set of target rows per label
    smoothing; the log-softmax is then taken once and serves every set.
    """
    ls = log_softmax(logits)
    return -np.multiply(ls, q, out=_out(ls, q)).sum(axis=-1)


def batch_cross_entropy(logits: np.ndarray, q: np.ndarray) -> float | np.ndarray:
    """Mean cross-entropy of ``softmax(logits)`` rows against target rows ``q``.

    A float for one (B, C) batch; an array of S means for a stack (S, B, C).
    """
    rows = cross_entropy_rows(logits, q)
    with np.errstate(over="ignore"):
        loss = rows.mean(axis=-1)
    inf = np.isinf(loss)
    if inf.any():
        over = inf & np.isfinite(rows).all(axis=-1)
        if over.any():  # the sum of finite rows overflowed: divide before summing
            loss = np.where(over, (rows / rows.shape[-1]).sum(axis=-1), loss)
    # "+ 0.0" turns the -0.0 of a perfectly fit batch into 0.0.
    loss = loss + 0.0
    return float(loss) if loss.ndim == 0 else loss


def tampered_dlogits(
    logits: np.ndarray, q: np.ndarray, alpha: float | np.ndarray
) -> np.ndarray:
    """Batched ``softmax(alpha * logits) - q`` rows; no 1/N scaling.

    This is ``p' - q`` with ``p'`` the power transform of ``softmax(logits)``;
    ``alpha = 1`` gives the plain cross-entropy gradient ``softmax(z) - q``.
    A stack (S, B, C) may take one alpha per cell, shaped (S, 1, 1).  As in
    :func:`cross_entropy_rows`, ``q`` may carry extra leading axes, which
    share one softmax.
    """
    p = softmax(check_cells("alpha", alpha, 0, 1, "[]") * logits)
    return np.subtract(p, q, out=_out(p, q))
