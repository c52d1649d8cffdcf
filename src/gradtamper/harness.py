"""Experiment engine: configuration, training loop, verification.

``train`` wires the dense net, the loss/gradient stage, the schedule, and a
dataset into a deterministic run in one process that emits one metrics
record per epoch.  Tampering enters in exactly one place, :func:`_step`: the
logit gradient handed to the backward pass is ``(softmax(alpha * z) - q) /
batch``, with ``alpha = 1`` (the plain ``softmax(z) - q``) until the
configured start epoch is reached.  The forward pass, the reported loss, and
the accuracies never see the transform.

``train`` is the one-cell case of one training loop that trains a stack of
cells, differing only in tampering strength and seed, in lockstep;
``gradtamper.grid`` sweeps tampering strengths and seeds through that loop.
``verify_claims`` samples random distributions and logit vectors and checks
every analytic property the transform is supposed to satisfy, plus the
finite-difference gradient oracles, on the same functions the training loop
calls; its report has one line per property and an overall verdict.
Comparisons between trained runs, such as the logit-norm trend, are grid
sweeps.

CSV conventions: a file's header names its record's fields in order, and
floats are written with ``repr``, which is the shortest string that
round-trips the exact float64 value; identical runs therefore produce
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._checks import check_count, check_real, is_count
from .data import Dataset, check_blob_settings, load_idx, synth_blobs
from .lossgrad import (
    batch_cross_entropy,
    cross_entropy_rows,
    smooth_label_rows,
    softmax,
    tampered_dlogits,
)
from .net import (
    DenseNet,
    OptState,
    backward,
    check_opt_settings,
    clip_grads_global,
    forward,
    init_dense_net,
    init_opt_state,
    row_norms,
    sgd_step,
    stack_nets,
)
from .schedule import ScheduleSpec, lr_at
from .transform import (
    MONOTONE_TOL,
    TamperSpec,
    power_transform_rows,
    threshold_monotonicity_check,
    transform_probabilities,
)

# Rows per ``forward`` call in evaluation: its temporaries stay a few MB.
_EVAL_ROWS = 4096

# A training step computes its loss only when some logit's magnitude passes
# this bound.  Within it, each row's max-shifted logits lie in [-max/2, 0], so
# log_softmax is finite and at most max/2 + log C in magnitude; a row loss is a
# q-weighted sum of those values with q summing to 1, so it is finite too, and
# ``batch_cross_entropy`` keeps the mean of finite rows finite.  So no cell's
# loss can be non-finite while every logit lies within the bound.
_SAFE_LOGIT = np.finfo(np.float64).max / 4


class DivergenceError(RuntimeError):
    """Raised when logits go non-finite or the loss turns NaN; says where."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSpec:
    """Where training data comes from: synthetic blobs or IDX files on disk."""

    IDX_PATHS = ("train_images", "train_labels", "test_images", "test_labels")
    kind: str = "blobs"
    classes: int = 10
    per_class: int = 100
    features: int = 20
    spread: float = 1.0
    seed: int = 7
    train_images: str | None = None
    train_labels: str | None = None
    test_images: str | None = None
    test_labels: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("blobs", "idx"):
            raise ValueError(f"unknown data kind {self.kind!r}; expected 'blobs' or 'idx'")
        check_blob_settings(self.classes, self.per_class, self.features, self.spread, self.seed)
        missing = [name for name in self.IDX_PATHS if getattr(self, name) is None]
        if self.kind == "idx" and missing:
            raise ValueError(f"idx data source needs paths for: {', '.join(missing)}")


def _desk_schedule() -> ScheduleSpec:
    # Warmup/cosine/cooldown recipe scaled down to a 30-epoch desk run.
    return ScheduleSpec(
        kind="warmup_cosine_cooldown",
        base_lr=1e-4,
        peak_lr=0.1,
        warmup_epochs=2,
        total_epochs=30,
        cooldown_epochs=4,
    )


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs; frozen so sweeps can ``replace`` fields."""

    hidden: tuple[int, ...] = (64,)
    activation: str = "relu"
    epochs: int = 30
    batch_size: int = 32
    schedule: ScheduleSpec = field(default_factory=_desk_schedule)
    momentum: float = 0.9
    weight_decay: float = 5e-4
    nesterov: bool = True
    tamper: TamperSpec = field(default_factory=lambda: TamperSpec(1.0))
    label_smoothing: float = 0.0
    clip_lambda: float | None = None
    seed: int = 0
    data: DataSpec = field(default_factory=DataSpec)

    def __post_init__(self) -> None:
        for name, spec in (("schedule", ScheduleSpec), ("tamper", TamperSpec), ("data", DataSpec)):
            if not isinstance(getattr(self, name), spec):
                raise ValueError(f"{name} must be a {spec.__name__}, got {getattr(self, name)!r}")
        if isinstance(self.hidden, list):
            object.__setattr__(self, "hidden", tuple(self.hidden))
        widths = self.hidden
        if not (isinstance(widths, tuple) and all(is_count(h) and h >= 1 for h in widths)):
            raise ValueError("hidden layer widths must be positive integers")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        check_count("epochs", self.epochs, 1)
        if self.epochs > self.schedule.total_epochs:
            raise ValueError(
                f"schedule covers {self.schedule.total_epochs} epochs "
                f"but the run asks for {self.epochs}"
            )
        check_count("batch_size", self.batch_size, 1)
        check_opt_settings(self.momentum, self.weight_decay, self.nesterov)
        check_real("label_smoothing", self.label_smoothing, 0, 1)
        if self.clip_lambda is not None:
            check_real("clip_lambda", self.clip_lambda, 0, math.inf, "()")
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class MetricsRecord:
    """One epoch of bookkeeping. ``gap`` is train_acc - test_acc."""

    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float
    gap: float
    mean_logit_norm: float
    lr: float

    def __post_init__(self) -> None:
        for name in ("train_acc", "test_acc"):
            check_real(name, getattr(self, name), 0, 1, "[]")
        if abs(self.gap - (self.train_acc - self.test_acc)) > 1e-12:
            raise ValueError("gap must equal train_acc - test_acc")


def _csv_header(record_type: type) -> str:
    """The CSV header of a record dataclass: its field names, in order."""
    return ",".join(f.name for f in fields(record_type))


def _csv_line(record) -> str:
    """One CSV row of a record: floats by ``repr``, other values by ``str``."""
    values = (getattr(record, f.name) for f in fields(record))
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


METRICS_HEADER = _csv_header(MetricsRecord)


def load_datasets(spec: DataSpec) -> tuple[Dataset, Dataset]:
    """Materialise the (train, test) pair described by ``spec``."""
    if spec.kind == "blobs":
        return synth_blobs(
            num_classes=spec.classes,
            per_class=spec.per_class,
            num_features=spec.features,
            spread=spec.spread,
            seed=spec.seed,
        )
    train = load_idx(spec.train_images, spec.train_labels, split="train")
    test = load_idx(spec.test_images, spec.test_labels, split="test")
    # Checked on the merged count: a split may lack a class the other holds.
    classes = max(train.num_classes, test.num_classes)
    if classes < 2:
        raise ValueError(
            f"need at least 2 classes, got {classes} in {spec.train_labels} and {spec.test_labels}"
        )
    if train.num_classes != test.num_classes:
        train = replace(train, num_classes=classes)
        test = replace(test, num_classes=classes)
    return train, test


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def datasets_for(config: TrainConfig, datasets: tuple | None = None) -> tuple[Dataset, Dataset]:
    """The (train, test) pair a run of ``config`` trains on: ``datasets``, else
    its data spec's; the one check that a batch fits in the training set."""
    train_ds, test_ds = datasets if datasets is not None else load_datasets(config.data)
    if config.batch_size > len(train_ds):
        raise ValueError(f"batch_size {config.batch_size} exceeds training set size {len(train_ds)}")
    return train_ds, test_ds


def _logits(net: DenseNet, ds: Dataset) -> np.ndarray:
    """Full-set logits; a non-finite one raises :class:`DivergenceError`.

    ``forward`` runs over the fewest near-equal blocks of at most ``_EVAL_ROWS``
    rows.  A short block would take BLAS's small-matrix kernel, whose sums round
    differently; blocks of half ``_EVAL_ROWS`` or more keep the whole-split bits.
    uint8 blocks are widened into one float64 buffer the size of the longest
    block, reused block after block;
    float64 blocks are views of the inputs and need none.
    """
    n = len(ds)
    logits = np.empty((n, net.num_classes))
    blocks = -(-n // _EVAL_ROWS)
    bounds = [n * k // blocks for k in range(blocks + 1)]
    widened = np.empty((-(-n // blocks), ds.num_features)) if ds.pixels else None
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            out = None if widened is None else widened[: hi - lo]
            logits[lo:hi] = forward(net, ds.features(slice(lo, hi), out=out))[0]
    if not np.all(np.isfinite(logits)):
        raise DivergenceError(f"non-finite logits while evaluating the {ds.split} split")
    return logits


def _evaluate(
    net: DenseNet, train_ds: Dataset, test_ds: Dataset, q_table: np.ndarray
) -> tuple[float, float, float, float]:
    """What a record keeps: full-set train loss (against the run's target rows,
    ``q_table[label]``) and top-1 accuracy, then test accuracy and mean L2
    logit norm."""
    logits = _logits(net, train_ds)
    # A NaN loss is reported by the caller as a DivergenceError, as in _step.
    with np.errstate(over="ignore", invalid="ignore"):
        loss = batch_cross_entropy(logits, q_table[train_ds.labels])
    train_acc = float(np.mean(np.argmax(logits, axis=1) == train_ds.labels))
    logits = _logits(net, test_ds)
    test_acc = float(np.mean(np.argmax(logits, axis=1) == test_ds.labels))
    return float(loss), train_acc, test_acc, float(np.mean(row_norms(logits)))


def _step_elements(base: TrainConfig, train_ds: Dataset) -> int:
    """Float64 values one cell's training step holds: the net's parameters,
    plus a batch's worth of rows for every layer width, input included."""
    sizes = [train_ds.num_features, *base.hidden, train_ds.num_classes]
    params = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))
    return params + base.batch_size * sum(sizes)


def _step(
    net: DenseNet,
    opt: OptState,
    xb: np.ndarray,
    q: np.ndarray,
    alpha: float | np.ndarray,
    lr: float,
    clip_lambda: float | None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """One optimizer step of every stacked cell, on its (S, B, in) batch ``xb``
    with target rows ``q``, tampered at ``alpha`` (a scalar, or one per cell).

    Returns ``None`` when every logit lies within ``_SAFE_LOGIT``, else each
    cell's finite-logit mask and its loss, for the caller to tell which cells
    diverged.  Every cell takes the step either way; a cell with a non-finite
    logit takes it on zeroed logits, which softmax accepts.
    """
    # Overflow in a diverging run is expected and reported by the caller as a
    # DivergenceError, so numpy's warnings add nothing here.
    with np.errstate(over="ignore", invalid="ignore"):
        logits, cache = forward(net, xb)
        # Divergence is detected on the logits: the logsumexp loss stays
        # finite right up until they overflow, and a NaN or infinite logit
        # always makes its cell's loss NaN or +inf (NaN after the inf - inf in
        # the max shift).  No loss can be non-finite while every logit lies
        # within _SAFE_LOGIT, so the loss is computed, and the cells looked
        # at, only past it.
        verdict = None
        if not np.abs(logits).max() <= _SAFE_LOGIT:
            finite = np.isfinite(logits).all(axis=(-2, -1))
            verdict = finite, batch_cross_entropy(logits, q)
            if not finite.all():
                logits = np.where(finite[:, None, None], logits, 0.0)
        dlogits = tampered_dlogits(logits, q, alpha)
        dlogits /= xb.shape[1]
        grads = backward(net, cache, dlogits)
        if clip_lambda is not None:
            grads = clip_grads_global(grads, clip_lambda)
        sgd_step(net, grads, opt, lr)
    return verdict


def _train_cells(
    base: TrainConfig,
    cells: list[tuple[float, int]],
    datasets: tuple[Dataset, Dataset] | None = None,
    *,
    final_only: bool = False,
) -> list[tuple[DenseNet, list[MetricsRecord]] | DivergenceError]:
    """Train ``base`` once per ``(alpha, seed)`` cell, all cells in lockstep.

    The cells are one stacked net (``gradtamper.net``'s cell axis) that takes
    every step together, one :func:`_step` per batch; each cell draws its
    init and then one permutation per epoch from its own
    ``default_rng(seed)``, so it ends bit for bit where a run of that cell
    alone would.  A cell that diverges is recorded once and then rides along
    as dead weight: every stacked operation works cell by cell, so its
    non-finite values never reach another cell.  Live cells are evaluated
    after every epoch, or with ``final_only`` after the last one alone.
    Returns, per cell, ``(net, records)`` (with ``final_only``, the last
    epoch's record) or the :class:`DivergenceError` that ended it.
    """
    train_ds, test_ds = datasets_for(base, datasets)
    n = len(train_ds)

    rngs = [np.random.default_rng(seed) for _, seed in cells]
    sizes = [train_ds.num_features, *base.hidden, train_ds.num_classes]
    net = stack_nets([init_dense_net(sizes, rng, hidden_activation=base.activation) for rng in rngs])
    opt = init_opt_state(
        net,
        momentum=base.momentum,
        weight_decay=base.weight_decay,
        nesterov=base.nesterov,
    )
    alphas = np.array([alpha for alpha, _ in cells], dtype=np.float64)[:, None, None]
    records: list[list[MetricsRecord]] = [[] for _ in cells]
    errors: list[DivergenceError | None] = [None] * len(cells)
    dead = np.zeros(len(cells), dtype=bool)  # a dead cell is trained along, never evaluated
    first_evaluated = base.epochs - 1 if final_only else 0
    # A step allocates and frees some MB of temporaries, all of them by the time
    # ``_step`` returns.  glibc's malloc hands the top of its heap back to the
    # system once more than twice its mmap threshold lies free there, and the
    # next step faults those pages in again: 98k page faults in a fresh
    # process's 16-cell desk stack, a fifth of its time, and 1.27M in a fresh
    # process's first one-epoch 784-256-10 ``train``, 2 s of 6.  Freeing an
    # mmapped block raises that threshold to the block's size; four float64
    # values per step element of every cell bound what a step allocates.  Under
    # another malloc it is an idle block.
    np.empty(32 * len(cells) * _step_elements(base, train_ds), np.uint8)

    n_batches = math.ceil(n / base.batch_size)
    # Row y is the smoothed one-hot row of label y, as smooth_label_rows writes it.
    classes = train_ds.num_classes
    q_table = smooth_label_rows(np.arange(classes), classes, base.label_smoothing)
    for epoch in range(base.epochs):
        # Tampering is backward-only and gated on the start epoch; alpha=1 is
        # the untouched baseline.
        alpha = alphas if epoch >= base.tamper.start_epoch else 1.0
        perms = np.stack([rng.permutation(n) for rng in rngs])
        labels = train_ds.labels[perms]
        for b in range(n_batches):
            batch = slice(b * base.batch_size, (b + 1) * base.batch_size)
            lr = lr_at(base.schedule, epoch + b / n_batches)
            verdict = _step(
                net, opt, train_ds.features(perms[:, batch]), q_table[labels[:, batch]],
                alpha, lr, base.clip_lambda,
            )
            if verdict is None:
                continue
            finite, losses = verdict
            for row in np.flatnonzero((~finite | np.isnan(losses)) & ~dead):
                where = f"at step {epoch * n_batches + b} (epoch {epoch}, batch {b})"
                errors[row] = DivergenceError(
                    f"non-finite logits (diverged) {where}" if not finite[row]
                    else f"training loss became NaN {where}"
                )
                dead[row] = True
            if dead.all():
                break

        # An epoch that ran to its end left ``lr`` at its last step's rate.
        for row in np.flatnonzero(~dead) if epoch >= first_evaluated else ():
            try:
                train_loss, train_acc, test_acc, test_norm = _evaluate(
                    net.cell(row), train_ds, test_ds, q_table
                )
                if math.isnan(train_loss):
                    last = (epoch + 1) * n_batches - 1
                    raise DivergenceError(
                        f"training loss became NaN after step {last} (end of epoch {epoch})"
                    )
            except DivergenceError as error:
                errors[row] = error
                dead[row] = True
                continue
            gap = train_acc - test_acc
            records[row].append(
                MetricsRecord(epoch, train_loss, train_acc, test_acc, gap, test_norm, float(lr))
            )
        if dead.all():
            break
    return [
        (net.cell(row), records[row]) if error is None else error
        for row, error in enumerate(errors)
    ]


def train(
    config: TrainConfig,
    datasets: tuple[Dataset, Dataset] | None = None,
) -> tuple[DenseNet, list[MetricsRecord]]:
    """Run one deterministic training job.

    Returns the trained net and one :class:`MetricsRecord` per epoch.  The
    per-iteration learning rate is evaluated at the fractional epoch
    ``epoch + batch_index / batches_per_epoch``.  Raises
    :class:`DivergenceError` once the logits go non-finite or the loss is NaN.
    """
    (outcome,) = _train_cells(config, [(config.tamper.alpha, config.seed)], datasets)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def write_metrics_csv(records: list[MetricsRecord], path: str) -> None:
    """Write per-epoch metrics; floats use repr so reruns are byte-identical."""
    lines = [METRICS_HEADER, *map(_csv_line, records)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class PropertyResult:
    """Aggregated outcome of one checked property.

    ``kind`` says how ``observed`` relates to ``tolerance``: for ``"max"``
    properties the worst (largest) observed value must stay <= tolerance;
    for ``"min"`` properties the worst (smallest) value must stay >=.
    ``observed`` starts at -inf or +inf by kind when not given, so the first
    :meth:`add` sets it.
    """

    name: str
    metric: str
    kind: str
    tolerance: float
    observed: float | None = None
    samples: int = 0
    failures: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min"):
            raise ValueError(f"property kind must be 'max' or 'min', got {self.kind!r}")
        if self.observed is None:
            self.observed = -math.inf if self.kind == "max" else math.inf

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def add(self, values) -> None:
        """Count each value as one check and fold it into ``observed``; a NaN
        value makes ``observed`` NaN, however the values are batched."""
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        self.samples += values.size
        if self.kind == "max":
            self.observed = float(np.maximum(self.observed, values.max()))
            self.failures += int(np.count_nonzero(~(values <= self.tolerance)))
        else:
            self.observed = float(np.minimum(self.observed, values.min()))
            self.failures += int(np.count_nonzero(~(values >= self.tolerance)))


@dataclass
class VerifyReport:
    seed: int
    trials: int
    class_counts: tuple[int, ...]
    properties: list[PropertyResult]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)


def _fd_logit_grad(
    z: np.ndarray, q: np.ndarray, scale: float = 1.0, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of the engine's row loss at scaled logits,
    z -> ``cross_entropy_rows(scale * z, q)``.

    ``z`` and ``q`` are one vector each, or (n, C) rows giving (n, C).  A
    row's C perturbations ``z +- h e_k`` are a (C, C) block; rows go in
    (rows, C, C) blocks of at most 2^16 elements (at least one row), which
    stay in cache: 50 rows at C=100 took 20 ms as one block, 8 ms so split.
    """
    z2, q2 = np.atleast_2d(z, q)
    n, c = z2.shape
    eye = np.eye(c) * h
    grad = np.empty((n, c))
    step = max(1, (1 << 16) // (c * c))
    for lo in range(0, n, step):
        zb, qb = z2[lo : lo + step, None, :], q2[lo : lo + step, None, :]
        # One (rows, C, C) block at a time: zb - eye is zb + (-eye), bit for bit.
        plus, minus = (cross_entropy_rows(scale * (zb + d), qb) for d in (eye, -eye))
        grad[lo : lo + step] = plus - minus
    return np.divide(grad, 2.0 * h, out=grad).reshape(np.shape(z))


def max_relative_error(a, b, floor: float = 1e-4) -> float | np.ndarray:
    """Worst |a-b| / max(floor, |a|, |b|) along the last axis: a scalar for
    two vectors, one value per row for (n, C) rows.

    The floor turns the comparison into an absolute one for entries smaller
    than ``floor``; with a tolerance of 1e-6 that means tiny entries must
    agree to ``floor * 1e-6`` absolutely.  Central differences with step h on
    a function of size F carry about ``F * 1e-16 / (2h)`` of cancellation
    noise, so the floor has to sit comfortably above ``noise / tolerance``
    — 1e-4 covers cross-entropy values up to ~30 at h = 1e-4.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return (np.abs(a - b) / denom).max(axis=-1)


def _stable_order_mismatches(t: np.ndarray, order_ref: np.ndarray) -> np.ndarray:
    """Per row, how many entries of ``argsort(t, kind="stable")`` differ from
    ``order_ref``.  A row has none iff, read in ``order_ref``'s order, it never
    falls and its ties keep their indices rising; only other rows are sorted."""
    steps = np.diff(np.take_along_axis(t, order_ref, axis=1), axis=1)
    ties_ok = np.diff(order_ref, axis=1) > 0
    other = ~((steps > 0) | ((steps == 0) & ties_ok)).all(axis=1)
    mism = np.zeros(t.shape[0])
    mism[other] = (np.argsort(t[other], 1, kind="stable") != order_ref[other]).sum(1)
    return mism


def verify_claims(
    seed: int = 0,
    trials: int = 1000,
    class_counts: tuple[int, ...] = (2, 10, 100),
) -> VerifyReport:
    """Check every analytic property on random inputs; never raises on failure.

    Samples ``trials`` random probability vectors (Dirichlet) and logit
    vectors (normal, sigma 3, plus up to 50 wide ones at sigma 300) per class
    count, sweeps the tampering strength over a coarse grid, and accumulates
    one :class:`PropertyResult` per claim.
    Finite-difference oracles use central differences with step 1e-4 and a
    relative-error floor of 3e-4; see :func:`max_relative_error` for how the
    floor is set by the cancellation-noise budget.
    """
    check_count("seed", seed, 0)
    check_count("trials", trials, 1)
    if not class_counts or not all(is_count(c) and c >= 2 for c in class_counts):
        raise ValueError(f"class_counts must all be integers >= 2, got {class_counts!r}")

    rng = np.random.default_rng(seed)
    coarse = np.round(np.arange(11) * 0.1, 10)  # 0.0, 0.1, ..., 1.0
    # 0.0, 0.01, ..., 0.99: holds every coarse alpha below 1 at a stride of 10.
    mono_grid = np.arange(100) / 100.0

    # One entry per property, in report order.
    props = {p.name: p for p in [
        PropertyResult("normalization", "max |sum(p') - 1|", "max", 1e-12),
        PropertyResult("identity-at-alpha-1", "max |p' - p| at alpha=1", "max", 1e-15),
        PropertyResult("uniform-at-alpha-0", "max |p' - 1/C| at alpha=0", "max", 0.0),
        PropertyResult("order-preservation", "stable argsort mismatches per vector", "max", 0.0),
        PropertyResult("threshold-sign-agreement", "entries moving against the threshold side",
                       "max", 0.0),
        PropertyResult("threshold-bounds", "min margin of tau inside [1/C, 1]", "min", 0.0),
        PropertyResult("threshold-monotonicity", "min successive tau difference over alpha",
                       "min", MONOTONE_TOL),
        PropertyResult("uniform-fixed-point", "max |p' - p| for the uniform vector", "max", 1e-12),
        PropertyResult("temperature-equivalence",
                       "max |transform(softmax(z)) - (tampered_dlogits(z) + q)|", "max", 1e-10),
        PropertyResult("gradient-zero-sum", "max |sum of gradient entries|", "max", 1e-12),
        PropertyResult("gradient-matches-fd", "max relative error vs central differences",
                       "max", 1e-6),
        PropertyResult("tampered-gradient-surrogate",
                       "max relative error vs scaled finite differences", "max", 1e-6),
        PropertyResult("wide-logit-gradient",
                       "max relative error vs finite differences at alpha*z, sigma=300",
                       "max", 1e-6),
        PropertyResult("clip-norm-cap", "max relative norm excess after clipping", "max", 1e-12),
        PropertyResult("clip-direction", "min cosine between g and clipped g", "min", 1.0 - 1e-12),
    ]}

    for c in class_counts:
        probs = rng.dirichlet(np.ones(c), size=trials)
        logits = rng.normal(0.0, 3.0, size=(trials, c))
        targets = rng.integers(0, c, size=trials)
        order_ref = np.argsort(probs, axis=1, kind="stable")

        # Threshold of every row at every grid alpha, in one call; monotone
        # in alpha, one sample per row.
        mono = threshold_monotonicity_check(probs, mono_grid)
        props["threshold-monotonicity"].add(np.diff(mono.thresholds, axis=1).min(axis=1))
        tau_at = dict(zip(mono_grid[::10], mono.thresholds[:, ::10].T))

        for alpha in coarse:
            alpha = float(alpha)
            t = power_transform_rows(probs, alpha)
            props["normalization"].add(np.abs(t.sum(axis=1) - 1.0))
            if alpha == 1.0:
                props["identity-at-alpha-1"].add(np.abs(t - probs).max(axis=1))
            if alpha == 0.0:
                props["uniform-at-alpha-0"].add(np.abs(t - 1.0 / c).max(axis=1))
            if alpha > 0.0:
                props["order-preservation"].add(_stable_order_mismatches(t, order_ref))
            if alpha < 1.0:
                tau = tau_at[alpha]
                props["threshold-bounds"].add(np.minimum(tau - 1.0 / c, 1.0 - tau))
                move = t - probs
                side = probs - tau[:, None]
                # Dead-bands absorb float wobble exactly at the threshold: an
                # entry must sit clearly on one side AND clearly move the
                # wrong way to count as a violation.
                wrong = ((side > 1e-13) & (move > 1e-15)) | (
                    (side < -1e-13) & (move < -1e-15)
                )
                props["threshold-sign-agreement"].add(wrong.sum(axis=1).astype(np.float64))

        # Uniform distribution is a fixed point at every strength.
        u = np.full(c, 1.0 / c)
        for alpha in coarse:
            t = transform_probabilities(u, float(alpha))
            props["uniform-fixed-point"].add(np.abs(t - u).max())

        # Gradient properties of the engine's own logit gradient, with and
        # without label smoothing.
        p_of_z = softmax(logits, axis=-1)
        for eps in (0.0, 0.1):
            q_rows = smooth_label_rows(targets, c, eps)
            for alpha in coarse:
                alpha = float(alpha)
                g = tampered_dlogits(logits, q_rows, alpha)
                props["gradient-zero-sum"].add(np.abs(g.sum(axis=1)))
                if alpha > 0.0 and eps == 0.0:
                    # Temperature equivalence: the transform of softmax(z) is
                    # the engine's softmax(alpha z).
                    lhs = power_transform_rows(p_of_z, alpha)
                    props["temperature-equivalence"].add(np.abs(lhs - (g + q_rows)).max(axis=1))

            # Step 1e-4 balances truncation (~h^2) against cancellation noise
            # (~|CE| * 1e-16 / 2h); the floor is widened to 3e-4 because the
            # logits here are deliberately wild (CE values up to ~30).
            # At alpha = 1 the scaled surrogate is the plain cross-entropy.
            z, q = logits[: min(trials, 50)], q_rows[: min(trials, 50)]
            for alpha in (1.0, 0.3, 0.5):
                fd = _fd_logit_grad(z, q, scale=alpha, h=1e-4) / alpha
                name = "gradient-matches-fd" if alpha == 1.0 else "tampered-gradient-surrogate"
                props[name].add(max_relative_error(tampered_dlogits(z, q, alpha), fd, floor=3e-4))

        # Clipping facts on random gradient vectors, through the engine's
        # global clip on a stack of them, one bound per row.  The reference
        # norms and dot products are taken row by row.
        g_rows = rng.normal(0.0, 1.0, size=(trials, c)) * rng.uniform(0.1, 10.0, size=(trials, 1))
        lams = rng.uniform(0.5, 2.0, size=trials)
        g_rows, lams = g_rows[:200], lams[:200]
        clipped = clip_grads_global(g_rows, lams[:, None])
        gn = np.array([np.linalg.norm(g) for g in g_rows])
        cn = np.array([np.linalg.norm(g) for g in clipped])
        dots = np.array([np.dot(g, h) for g, h in zip(g_rows, clipped)])
        # Norm never grows, and never ends above min(original, cap).
        props["clip-norm-cap"].add(np.maximum((cn - gn) / gn, (cn - np.minimum(gn, lams)) / lams))
        cos = np.divide(dots, gn * cn, out=np.ones_like(dots), where=cn > 0)
        props["clip-direction"].add(cos)

        # Wide logits, the regime strong tampering drives training into:
        # softmax(z) underflows to exact zeros while softmax(alpha z) does
        # not.  The reference is the finite-difference gradient of the
        # cross-entropy taken at the scaled logits alpha*z, where it is well
        # conditioned.
        wide = rng.normal(0.0, 300.0, size=(min(trials, 50), c))
        for eps in (0.0, 0.1):
            q_rows = smooth_label_rows(targets[: wide.shape[0]], c, eps)
            for alpha in (0.01, 0.02):
                g = tampered_dlogits(wide, q_rows, alpha)
                fd = _fd_logit_grad(alpha * wide, q_rows, h=1e-4)
                props["wide-logit-gradient"].add(max_relative_error(g, fd, floor=3e-4))

    return VerifyReport(
        seed=seed,
        trials=trials,
        class_counts=tuple(int(c) for c in class_counts),
        properties=list(props.values()),
    )


def format_verify_report(report: VerifyReport) -> str:
    """Human-readable one-line-per-property rendering of a verify run."""
    lines = [
        "power-transform verification",
        f"  seed={report.seed} trials={report.trials} "
        f"classes={tuple(report.class_counts)}",
    ]
    name_w = max(len(p.name) for p in report.properties)
    for p in report.properties:
        status = "PASS" if p.passed else "FAIL"
        rel = "<=" if p.kind == "max" else ">="
        lines.append(
            f"  {status} {p.name:<{name_w}}  {p.metric}: "
            f"observed {p.observed:.3e} (needs {rel} {p.tolerance:.1e}; "
            f"{p.samples} checks, {p.failures} failures)"
        )
    lines.append(f"  overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
