"""Dense-net training with a power-law gradient-tampering stage.

The transform ``p -> p**alpha / sum(p**alpha)`` flattens a probability
distribution toward uniform as ``alpha`` drops from 1 to 0.  Applied only in
the backward pass of softmax cross-entropy, it biases the gradient while the
forward pass — and therefore every reported metric — stays untouched.  The
package provides the transform and its stationary-threshold analysis, the
loss/gradient stage, a small dense network with SGD momentum training,
learning-rate schedules, synthetic and IDX data loading, an experiment
harness (training, grid sweeps, claim verification), and a CLI
(``gradtamper train|grid|analyze|verify``).
"""

from .data import (
    Dataset,
    IdxFormatError,
    load_idx,
    read_idx_images,
    read_idx_labels,
    synth_blobs,
    write_idx_images,
    write_idx_labels,
)
from .harness import (
    GRID_HEADER,
    METRICS_HEADER,
    DataSpec,
    DivergenceError,
    GridRow,
    MetricsRecord,
    PropertyResult,
    TrainConfig,
    TransformRow,
    TrendResult,
    VerifyReport,
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
from .lossgrad import (
    batch_cross_entropy,
    smooth_label_rows,
    softmax,
    tampered_dlogits,
)
from .net import (
    DenseLayer,
    DenseNet,
    OptState,
    backward,
    clip_grads_global,
    forward,
    global_grad_norm,
    init_dense_net,
    init_opt_state,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from .schedule import ScheduleSpec, lr_at
from .transform import (
    MonotonicityReport,
    TamperSpec,
    power_transform_rows,
    prob_vec,
    stationary_threshold,
    threshold_monotonicity_check,
    threshold_partition,
    transform_probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # transform
    "TamperSpec",
    "MonotonicityReport",
    "prob_vec",
    "power_transform_rows",
    "transform_probabilities",
    "stationary_threshold",
    "threshold_partition",
    "threshold_monotonicity_check",
    # loss / gradients
    "softmax",
    "smooth_label_rows",
    "batch_cross_entropy",
    "tampered_dlogits",
    # network
    "DenseLayer",
    "DenseNet",
    "OptState",
    "init_dense_net",
    "forward",
    "backward",
    "init_opt_state",
    "sgd_step",
    "global_grad_norm",
    "clip_grads_global",
    "save_checkpoint",
    "load_checkpoint",
    # schedule
    "ScheduleSpec",
    "lr_at",
    # data
    "Dataset",
    "IdxFormatError",
    "synth_blobs",
    "read_idx_images",
    "read_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "load_idx",
    # harness
    "DataSpec",
    "TrainConfig",
    "MetricsRecord",
    "GridRow",
    "TransformRow",
    "PropertyResult",
    "TrendResult",
    "VerifyReport",
    "DivergenceError",
    "METRICS_HEADER",
    "GRID_HEADER",
    "load_datasets",
    "train",
    "write_metrics_csv",
    "grid_search",
    "analyze_transform",
    "write_transform_csv",
    "verify_claims",
    "format_verify_report",
    "max_relative_error",
]
