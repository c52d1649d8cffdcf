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

from .data import load_idx, synth_blobs
from .harness import DataSpec, TrainConfig, grid_search, train, verify_claims
from .lossgrad import softmax, tampered_dlogits
from .net import backward, clip_grads_global, forward, init_dense_net, init_opt_state, sgd_step
from .schedule import ScheduleSpec, lr_at
from .transform import TamperSpec, stationary_threshold, transform_probabilities

__version__ = "0.1.0"

# The README's Library block; everything else is imported from its module.
__all__ = [
    "__version__",
    "transform_probabilities",
    "stationary_threshold",
    "TamperSpec",
    "softmax",
    "tampered_dlogits",
    "init_dense_net",
    "forward",
    "backward",
    "init_opt_state",
    "sgd_step",
    "clip_grads_global",
    "ScheduleSpec",
    "lr_at",
    "synth_blobs",
    "load_idx",
    "DataSpec",
    "TrainConfig",
    "train",
    "grid_search",
    "verify_claims",
]
