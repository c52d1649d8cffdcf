"""Experiment engine: training loop, grid search, analysis, verification.

``train`` wires the dense net, the loss/gradient stage, the schedule, and a
dataset into a deterministic single-threaded run that emits one metrics
record per epoch.  Tampering enters in exactly one place: the logit gradient
handed to the backward pass is ``(softmax(alpha * z) - q) / batch``, with
``alpha = 1`` (the plain ``softmax(z) - q``) until the configured start epoch
is reached.  The forward pass, the reported loss, and the accuracies never
see the transform.

``grid_search`` sweeps tampering strengths and seeds with incremental CSV
persistence, so an interrupted sweep resumes by skipping finished cells.
``verify_claims`` samples random distributions and logit vectors and checks
every analytic property the transform is supposed to satisfy, plus the
finite-difference gradient oracles, on the same functions the training loop
calls.

CSV conventions: floats are written with ``repr``, which is the shortest
string that round-trips the exact float64 value; identical runs therefore
produce byte-identical files.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, load_idx, synth_blobs
from .lossgrad import (
    batch_cross_entropy,
    log_softmax,
    smooth_label_rows,
    softmax,
    tampered_dlogits,
)
from .net import (
    DenseNet,
    backward,
    clip_grads_global,
    forward,
    init_dense_net,
    init_opt_state,
    sgd_step,
)
from .schedule import ScheduleSpec, lr_at
from .transform import (
    MONOTONE_TOL,
    TamperSpec,
    power_transform_rows,
    prob_vec,
    stationary_threshold,
    threshold_monotonicity_check,
    transform_probabilities,
)

METRICS_HEADER = "epoch,train_loss,train_acc,test_acc,gap,mean_logit_norm,lr"
GRID_HEADER = "alpha,seed,final_train_acc,final_test_acc,gap,mean_logit_norm,status"


class DivergenceError(RuntimeError):
    """Raised when the training loss turns NaN; the message names the step."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataSpec:
    """Where training data comes from: synthetic blobs or IDX files on disk."""

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
        if self.kind == "blobs":
            if self.classes < 2:
                raise ValueError("blobs need at least 2 classes")
            if self.per_class < 2:
                raise ValueError("blobs need at least 2 points per class")
            if self.features < 1:
                raise ValueError("blobs need at least 1 feature")
            if not (self.spread > 0 and math.isfinite(self.spread)):
                raise ValueError("blob spread must be positive and finite")
        else:
            missing = [
                name
                for name in ("train_images", "train_labels", "test_images", "test_labels")
                if getattr(self, name) is None
            ]
            if missing:
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
        if isinstance(self.hidden, list):
            object.__setattr__(self, "hidden", tuple(self.hidden))
        if not all(
            isinstance(h, (int, np.integer)) and not isinstance(h, bool) and h >= 1
            for h in self.hidden
        ):
            raise ValueError("hidden layer widths must be positive integers")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.epochs > self.schedule.total_epochs:
            raise ValueError(
                f"schedule covers {self.schedule.total_epochs} epochs "
                f"but the run asks for {self.epochs}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError("weight_decay must be finite and >= 0")
        if not (0.0 <= self.label_smoothing < 1.0):
            raise ValueError("label_smoothing must lie in [0, 1)")
        if self.clip_lambda is not None and not (
            self.clip_lambda > 0 and math.isfinite(self.clip_lambda)
        ):
            raise ValueError("clip_lambda must be positive and finite when set")


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
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if abs(self.gap - (self.train_acc - self.test_acc)) > 1e-12:
            raise ValueError("gap must equal train_acc - test_acc")


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
    if train.num_classes != test.num_classes:
        classes = max(train.num_classes, test.num_classes)
        train = Dataset(train.inputs, train.labels, classes, "train")
        test = Dataset(test.inputs, test.labels, classes, "test")
    return train, test


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _evaluate(net: DenseNet, ds: Dataset, epsilon: float) -> tuple[float, float, float]:
    """Full-set loss (with the training-time smoothing), top-1 accuracy,
    and mean L2 logit norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, _ = forward(net, ds.inputs)
    if not np.all(np.isfinite(logits)):
        raise DivergenceError(f"non-finite logits while evaluating the {ds.split} split")
    loss = batch_cross_entropy(logits, smooth_label_rows(ds.labels, logits.shape[1], epsilon))
    acc = float(np.mean(np.argmax(logits, axis=1) == ds.labels))
    norm = float(np.mean(np.linalg.norm(logits, axis=1)))
    return float(loss), acc, norm


def train(
    config: TrainConfig,
    datasets: tuple[Dataset, Dataset] | None = None,
) -> tuple[DenseNet, list[MetricsRecord]]:
    """Run one deterministic training job.

    Returns the trained net and one :class:`MetricsRecord` per epoch.  The
    per-iteration learning rate is evaluated at the fractional epoch
    ``epoch + batch_index / batches_per_epoch``.  Raises
    :class:`DivergenceError` the moment the training loss turns NaN.
    """
    train_ds, test_ds = datasets if datasets is not None else load_datasets(config.data)
    n = len(train_ds)
    if config.batch_size > n:
        raise ValueError(f"batch_size {config.batch_size} exceeds training set size {n}")

    rng = np.random.default_rng(config.seed)
    sizes = [train_ds.inputs.shape[1], *config.hidden, train_ds.num_classes]
    net = init_dense_net(sizes, rng, hidden_activation=config.activation)
    opt = init_opt_state(
        net,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        nesterov=config.nesterov,
    )

    n_batches = math.ceil(n / config.batch_size)
    records: list[MetricsRecord] = []
    step = 0
    for epoch in range(config.epochs):
        # Tampering is backward-only and gated on the start epoch; alpha=1 is
        # the untouched baseline.
        alpha = config.tamper.alpha if epoch >= config.tamper.start_epoch else 1.0
        perm = rng.permutation(n)
        last_lr = math.nan
        for b in range(n_batches):
            idx = perm[b * config.batch_size : (b + 1) * config.batch_size]
            xb = train_ds.inputs[idx]
            yb = train_ds.labels[idx]
            lr = lr_at(config.schedule, epoch + b / n_batches)

            # Overflow in a diverging run is expected and reported as a
            # DivergenceError below, so numpy's warnings add nothing here.
            with np.errstate(over="ignore", invalid="ignore"):
                logits, cache = forward(net, xb)
            # The logsumexp loss stays finite right up until the logits
            # themselves overflow, so divergence is detected on the logits: a
            # non-finite entry means the loss is about to be meaningless (NaN
            # after the inf - inf in the max shift).
            if not np.all(np.isfinite(logits)):
                raise DivergenceError(
                    f"non-finite logits (diverged) at step {step} (epoch {epoch}, batch {b})"
                )
            q = smooth_label_rows(yb, logits.shape[1], config.label_smoothing)
            batch_loss = batch_cross_entropy(logits, q)
            if math.isnan(batch_loss):
                raise DivergenceError(
                    f"training loss became NaN at step {step} (epoch {epoch}, batch {b})"
                )

            dlogits = tampered_dlogits(logits, q, alpha) / idx.size
            with np.errstate(over="ignore", invalid="ignore"):
                grads = backward(net, cache, dlogits)
                if config.clip_lambda is not None:
                    grads = clip_grads_global(grads, config.clip_lambda)
                sgd_step(net, grads, opt, lr)
            last_lr = lr
            step += 1

        train_loss, train_acc, _ = _evaluate(net, train_ds, config.label_smoothing)
        if math.isnan(train_loss):
            raise DivergenceError(
                f"training loss became NaN after step {step - 1} (end of epoch {epoch})"
            )
        _, test_acc, test_norm = _evaluate(net, test_ds, config.label_smoothing)
        records.append(
            MetricsRecord(
                epoch=epoch,
                train_loss=float(train_loss),
                train_acc=float(train_acc),
                test_acc=float(test_acc),
                gap=float(train_acc - test_acc),
                mean_logit_norm=float(test_norm),
                lr=float(last_lr),
            )
        )
    return net, records


def write_metrics_csv(records: list[MetricsRecord], path: str) -> None:
    """Write per-epoch metrics; floats use repr so reruns are byte-identical."""
    lines = [METRICS_HEADER]
    for r in records:
        lines.append(
            f"{r.epoch},{r.train_loss!r},{r.train_acc!r},{r.test_acc!r},"
            f"{r.gap!r},{r.mean_logit_norm!r},{r.lr!r}"
        )
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    """Final metrics of one (alpha, seed) cell; NaNs when the cell diverged."""

    alpha: float
    seed: int
    final_train_acc: float
    final_test_acc: float
    gap: float
    mean_logit_norm: float
    status: str


def _format_grid_row(row: GridRow) -> str:
    return (
        f"{row.alpha!r},{row.seed},{row.final_train_acc!r},{row.final_test_acc!r},"
        f"{row.gap!r},{row.mean_logit_norm!r},{row.status}"
    )


def _parse_grid_row(line: str) -> GridRow:
    parts = line.split(",")
    if len(parts) != 7:
        raise ValueError(f"malformed grid row: {line!r}")
    return GridRow(
        alpha=float(parts[0]),
        seed=int(parts[1]),
        final_train_acc=float(parts[2]),
        final_test_acc=float(parts[3]),
        gap=float(parts[4]),
        mean_logit_norm=float(parts[5]),
        status=parts[6],
    )


def grid_search(
    base: TrainConfig,
    alphas: list[float],
    seeds: list[int],
    csv_path: str,
    datasets: tuple[Dataset, Dataset] | None = None,
) -> list[GridRow]:
    """Sweep ``alphas x seeds``, appending a CSV row as each cell finishes.

    Cells are run sequentially in the given order.  If ``csv_path`` already
    holds rows (same header), those (alpha, seed) cells are skipped and the
    stored rows are returned in their place, so a killed sweep resumes where
    it stopped.  A diverging cell is recorded with status ``diverged`` and
    NaN metrics; it does not stop the sweep.
    """
    if not alphas:
        raise ValueError("grid needs at least one alpha")
    if not seeds:
        raise ValueError("grid needs at least one seed")

    done: dict[tuple[str, int], GridRow] = {}
    fresh = True
    if os.path.exists(csv_path) and os.path.getsize(csv_path) > 0:
        with open(csv_path, "r", newline="") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != GRID_HEADER:
            raise ValueError(
                f"{csv_path} exists but does not start with the grid header {GRID_HEADER!r}"
            )
        for ln in lines[1:]:
            row = _parse_grid_row(ln)
            done[(repr(row.alpha), row.seed)] = row
        fresh = False

    if datasets is None:
        datasets = load_datasets(base.data)

    results: list[GridRow] = []
    with open(csv_path, "a", newline="\n") as fh:
        if fresh:
            fh.write(GRID_HEADER + "\n")
            fh.flush()
        for alpha in alphas:
            alpha = float(alpha)
            for seed in seeds:
                seed = int(seed)
                key = (repr(alpha), seed)
                if key in done:
                    results.append(done[key])
                    continue
                cfg = replace(
                    base,
                    tamper=TamperSpec(alpha, base.tamper.start_epoch),
                    seed=seed,
                )
                try:
                    _, records = train(cfg, datasets)
                    last = records[-1]
                    row = GridRow(
                        alpha=alpha,
                        seed=seed,
                        final_train_acc=last.train_acc,
                        final_test_acc=last.test_acc,
                        gap=last.gap,
                        mean_logit_norm=last.mean_logit_norm,
                        status="ok",
                    )
                except DivergenceError:
                    row = GridRow(alpha, seed, math.nan, math.nan, math.nan, math.nan, "diverged")
                fh.write(_format_grid_row(row) + "\n")
                fh.flush()
                results.append(row)
    return results


# ---------------------------------------------------------------------------
# transform analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformRow:
    """One strength's view of a distribution: p', and the stationary level.

    ``threshold`` is None at alpha=1, where the transform is the identity and
    every probability is stationary.
    """

    alpha: float
    transformed: np.ndarray
    threshold: float | None


def analyze_transform(p, alphas) -> list[TransformRow]:
    """Tabulate the transform and its stationary threshold over ``alphas``."""
    p = prob_vec(np.asarray(p, dtype=np.float64))
    rows = []
    for alpha in alphas:
        alpha = float(alpha)
        transformed = transform_probabilities(p, alpha)
        threshold = stationary_threshold(p, alpha) if alpha < 1.0 else None
        rows.append(TransformRow(alpha, transformed, threshold))
    return rows


def write_transform_csv(rows: list[TransformRow], path: str) -> None:
    """CSV with alpha, threshold (empty at alpha=1), then the p' entries."""
    if not rows:
        raise ValueError("no rows to write")
    c = rows[0].transformed.size
    header = "alpha,threshold," + ",".join(f"p{i}" for i in range(c))
    lines = [header]
    for row in rows:
        tau = "" if row.threshold is None else repr(row.threshold)
        body = ",".join(repr(float(v)) for v in row.transformed)
        lines.append(f"{row.alpha!r},{tau},{body}")
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
    """

    name: str
    metric: str
    kind: str
    tolerance: float
    observed: float
    samples: int = 0
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0


class _Acc:
    def __init__(self, name: str, metric: str, kind: str, tolerance: float) -> None:
        if kind not in ("max", "min"):
            raise ValueError(kind)
        self.result = PropertyResult(
            name=name,
            metric=metric,
            kind=kind,
            tolerance=tolerance,
            observed=-math.inf if kind == "max" else math.inf,
        )

    def add(self, values) -> None:
        values = np.atleast_1d(np.asarray(values, dtype=np.float64))
        r = self.result
        r.samples += values.size
        if r.kind == "max":
            r.observed = max(r.observed, float(values.max()))
            r.failures += int(np.count_nonzero(~(values <= r.tolerance)))
        else:
            r.observed = min(r.observed, float(values.min()))
            r.failures += int(np.count_nonzero(~(values >= r.tolerance)))


@dataclass(frozen=True)
class TrendResult:
    """Informational logit-norm comparison between tampered and baseline runs."""

    tampered_alpha: float
    baseline_alpha: float
    tampered_mean_norm: float
    baseline_mean_norm: float
    seeds: tuple[int, ...]

    @property
    def holds(self) -> bool:
        return self.tampered_mean_norm > self.baseline_mean_norm


@dataclass
class VerifyReport:
    seed: int
    trials: int
    class_counts: tuple[int, ...]
    properties: list[PropertyResult]
    min_threshold_diff: float
    trend: TrendResult | None = None

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)


def _ce_rows(logit_rows: np.ndarray, q: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Cross-entropy of softmax(scale * row) against q, one value per row."""
    return -(q * log_softmax(scale * logit_rows)).sum(axis=-1)


def _fd_logit_grad(z: np.ndarray, q: np.ndarray, scale: float = 1.0, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of z -> CE(softmax(scale*z), q)."""
    eye = np.eye(z.size) * h
    return (_ce_rows(z + eye, q, scale) - _ce_rows(z - eye, q, scale)) / (2.0 * h)


def max_relative_error(a, b, floor: float = 1e-4) -> float:
    """Worst elementwise |a-b| / max(floor, |a|, |b|).

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
    return float((np.abs(a - b) / denom).max())


def _trend_config(alpha: float, seed: int) -> TrainConfig:
    sched = ScheduleSpec(
        kind="warmup_cosine_cooldown",
        base_lr=1e-4,
        peak_lr=0.1,
        warmup_epochs=1,
        total_epochs=12,
        cooldown_epochs=2,
    )
    return TrainConfig(
        hidden=(32,),
        epochs=12,
        batch_size=32,
        schedule=sched,
        tamper=TamperSpec(alpha),
        seed=seed,
        data=DataSpec(kind="blobs", classes=10, per_class=60, features=20, spread=1.0, seed=7),
    )


def _logit_norm_trend(tampered_alpha: float = 0.25, baseline_alpha: float = 1.0) -> TrendResult:
    seeds = (0, 1, 2, 3, 4)
    datasets = load_datasets(_trend_config(baseline_alpha, 0).data)
    norms = {tampered_alpha: [], baseline_alpha: []}
    for alpha in (tampered_alpha, baseline_alpha):
        for seed in seeds:
            _, records = train(_trend_config(alpha, seed), datasets)
            norms[alpha].append(records[-1].mean_logit_norm)
    return TrendResult(
        tampered_alpha=tampered_alpha,
        baseline_alpha=baseline_alpha,
        tampered_mean_norm=float(np.mean(norms[tampered_alpha])),
        baseline_mean_norm=float(np.mean(norms[baseline_alpha])),
        seeds=seeds,
    )


def verify_claims(
    seed: int = 0,
    trials: int = 1000,
    class_counts: tuple[int, ...] = (2, 10, 100),
    include_trend: bool = False,
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
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not class_counts or any(c < 2 for c in class_counts):
        raise ValueError("class_counts must all be >= 2")

    rng = np.random.default_rng(seed)
    coarse = np.round(np.arange(11) * 0.1, 10)  # 0.0, 0.1, ..., 1.0
    # 0.0, 0.01, ..., 0.99: holds every coarse alpha below 1 at a stride of 10.
    mono_grid = np.arange(100) / 100.0

    accs = {
        "normalization": _Acc(
            "normalization", "max |sum(p') - 1|", "max", 1e-12
        ),
        "identity-at-alpha-1": _Acc(
            "identity-at-alpha-1", "max |p' - p| at alpha=1", "max", 1e-15
        ),
        "uniform-at-alpha-0": _Acc(
            "uniform-at-alpha-0", "max |p' - 1/C| at alpha=0", "max", 0.0
        ),
        "order-preservation": _Acc(
            "order-preservation", "stable argsort mismatches per vector", "max", 0.0
        ),
        "threshold-sign-agreement": _Acc(
            "threshold-sign-agreement", "entries moving against the threshold side", "max", 0.0
        ),
        "threshold-bounds": _Acc(
            "threshold-bounds", "min margin of tau inside [1/C, 1]", "min", 0.0
        ),
        "threshold-monotonicity": _Acc(
            "threshold-monotonicity", "min successive tau difference over alpha", "min", MONOTONE_TOL
        ),
        "uniform-fixed-point": _Acc(
            "uniform-fixed-point", "max |p' - p| for the uniform vector", "max", 1e-12
        ),
        "temperature-equivalence": _Acc(
            "temperature-equivalence",
            "max |transform(softmax(z)) - (tampered_dlogits(z) + q)|",
            "max",
            1e-10,
        ),
        "gradient-zero-sum": _Acc(
            "gradient-zero-sum", "max |sum of gradient entries|", "max", 1e-12
        ),
        "gradient-matches-fd": _Acc(
            "gradient-matches-fd", "max relative error vs central differences", "max", 1e-6
        ),
        "tampered-gradient-surrogate": _Acc(
            "tampered-gradient-surrogate",
            "max relative error vs scaled finite differences",
            "max",
            1e-6,
        ),
        "wide-logit-gradient": _Acc(
            "wide-logit-gradient",
            "max relative error vs finite differences at alpha*z, sigma=300",
            "max",
            1e-6,
        ),
        "clip-norm-cap": _Acc(
            "clip-norm-cap", "max relative norm excess after clipping", "max", 1e-12
        ),
        "clip-direction": _Acc(
            "clip-direction", "min cosine between g and clipped g", "min", 1.0 - 1e-12
        ),
    }
    min_threshold_diff = math.inf

    for c in class_counts:
        probs = rng.dirichlet(np.ones(c), size=trials)
        logits = rng.normal(0.0, 3.0, size=(trials, c))
        targets = rng.integers(0, c, size=trials)
        order_ref = np.argsort(probs, axis=1, kind="stable")

        # Threshold of every row at every grid alpha, in one call; monotone
        # in alpha, one sample per row.
        mono = threshold_monotonicity_check(probs, mono_grid)
        accs["threshold-monotonicity"].add(np.diff(mono.thresholds, axis=1).min(axis=1))
        min_threshold_diff = min(min_threshold_diff, mono.min_successive_diff)
        tau_at = dict(zip(mono_grid[::10], mono.thresholds[:, ::10].T))

        for alpha in coarse:
            alpha = float(alpha)
            t = power_transform_rows(probs, alpha)
            accs["normalization"].add(np.abs(t.sum(axis=1) - 1.0))
            if alpha == 1.0:
                accs["identity-at-alpha-1"].add(np.abs(t - probs).max(axis=1))
            if alpha == 0.0:
                accs["uniform-at-alpha-0"].add(np.abs(t - 1.0 / c).max(axis=1))
            if alpha > 0.0:
                mism = (np.argsort(t, axis=1, kind="stable") != order_ref).sum(axis=1)
                accs["order-preservation"].add(mism.astype(np.float64))
            if alpha < 1.0:
                tau = tau_at[alpha]
                accs["threshold-bounds"].add(
                    np.minimum(tau - 1.0 / c, 1.0 - tau)
                )
                move = t - probs
                side = probs - tau[:, None]
                # Dead-bands absorb float wobble exactly at the threshold: an
                # entry must sit clearly on one side AND clearly move the
                # wrong way to count as a violation.
                wrong = ((side > 1e-13) & (move > 1e-15)) | (
                    (side < -1e-13) & (move < -1e-15)
                )
                accs["threshold-sign-agreement"].add(wrong.sum(axis=1).astype(np.float64))

        # Uniform distribution is a fixed point at every strength.
        u = np.full(c, 1.0 / c)
        for alpha in coarse:
            t = transform_probabilities(u, float(alpha))
            accs["uniform-fixed-point"].add(np.abs(t - u).max())

        # Gradient properties of the engine's own logit gradient, with and
        # without label smoothing.
        p_of_z = softmax(logits, axis=-1)
        for eps in (0.0, 0.1):
            q_rows = smooth_label_rows(targets, c, eps)
            for alpha in coarse:
                alpha = float(alpha)
                g = tampered_dlogits(logits, q_rows, alpha)
                accs["gradient-zero-sum"].add(np.abs(g.sum(axis=1)))
                if alpha > 0.0 and eps == 0.0:
                    # Temperature equivalence: the transform of softmax(z) is
                    # the engine's softmax(alpha z).
                    lhs = power_transform_rows(p_of_z, alpha)
                    accs["temperature-equivalence"].add(np.abs(lhs - (g + q_rows)).max(axis=1))

            # Step 1e-4 balances truncation (~h^2) against cancellation noise
            # (~|CE| * 1e-16 / 2h); the floor is widened to 3e-4 because the
            # logits here are deliberately wild (CE values up to ~30).
            fd_trials = min(trials, 50)
            grad_at = {
                alpha: tampered_dlogits(logits[:fd_trials], q_rows[:fd_trials], alpha)
                for alpha in (1.0, 0.3, 0.5)
            }
            for i in range(fd_trials):
                q = q_rows[i]
                fd = _fd_logit_grad(logits[i], q, h=1e-4)
                accs["gradient-matches-fd"].add(
                    max_relative_error(grad_at[1.0][i], fd, floor=3e-4)
                )
                for alpha in (0.3, 0.5):
                    fd_scaled = _fd_logit_grad(logits[i], q, scale=alpha, h=1e-4) / alpha
                    accs["tampered-gradient-surrogate"].add(
                        max_relative_error(grad_at[alpha][i], fd_scaled, floor=3e-4)
                    )

        # Clipping facts on random gradients, through the engine's global
        # clip applied to a one-layer gradient (weights row, then bias).
        g_rows = rng.normal(0.0, 1.0, size=(trials, c)) * rng.uniform(0.1, 10.0, size=(trials, 1))
        lams = rng.uniform(0.5, 2.0, size=trials)
        for i in range(min(trials, 200)):
            g = g_rows[i]
            lam = float(lams[i])
            [(dw, db)] = clip_grads_global([(g[None, :-1], g[-1:])], lam)
            clipped = np.concatenate([dw[0], db])
            gn = float(np.linalg.norm(g))
            cn = float(np.linalg.norm(clipped))
            # Norm never grows, and never ends above min(original, cap).
            accs["clip-norm-cap"].add(max((cn - gn) / gn, (cn - min(gn, lam)) / lam))
            cos = float(np.dot(g, clipped) / (gn * cn)) if cn > 0 else 1.0
            accs["clip-direction"].add(cos)

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
                for i in range(wide.shape[0]):
                    fd = _fd_logit_grad(alpha * wide[i], q_rows[i], h=1e-4)
                    accs["wide-logit-gradient"].add(max_relative_error(g[i], fd, floor=3e-4))

    trend = _logit_norm_trend() if include_trend else None
    return VerifyReport(
        seed=seed,
        trials=trials,
        class_counts=tuple(int(c) for c in class_counts),
        properties=[a.result for a in accs.values()],
        min_threshold_diff=float(min_threshold_diff),
        trend=trend,
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
    lines.append(
        f"  min successive threshold difference over alpha: "
        f"{report.min_threshold_diff:.3e}"
    )
    if report.trend is not None:
        t = report.trend
        lines.append(
            f"  logit-norm trend (informational): mean final norm at "
            f"alpha={t.tampered_alpha} is {t.tampered_mean_norm:.4f} vs "
            f"{t.baseline_mean_norm:.4f} at alpha={t.baseline_alpha} over "
            f"{len(t.seeds)} seeds -> tampered higher: {'yes' if t.holds else 'no'}"
        )
    lines.append(f"  overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)
