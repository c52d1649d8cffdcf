"""Dense-net training with a power-law gradient-tampering stage.

The transform ``p -> p**alpha / sum(p**alpha)`` flattens a probability
distribution toward uniform as ``alpha`` drops from 1 to 0.  Applied only in
the backward pass of softmax cross-entropy, it biases the gradient while the
forward pass — and therefore every reported metric — stays untouched.  The
package provides the transform and its stationary-threshold analysis, the
loss/gradient stage, a small dense network with SGD momentum training,
learning-rate schedules, synthetic and IDX data loading, an experiment
harness (training, claim verification), resumable grid sweeps, and a CLI
(``gradtamper train|grid|analyze|verify``).  Each is imported from its module
(``gradtamper.transform``, ``.lossgrad``, ``.net``, ``.schedule``, ``.data``,
``.harness``, ``.grid``, ``.cli``); the top level holds only the version.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
