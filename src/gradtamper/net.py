"""Dense feedforward network with explicit forward/backward passes.

The network is a list of (weights, biases, activation) layers; the last
layer's outputs are the logits.  Training mutates a network from a single
thread.

Parameter layout: every parameter lives in one contiguous float64 vector,
``DenseNet.params``, layer by layer, each layer's weights row-major and then
its biases (the checkpoint's order).  Each ``DenseLayer.weights``/``.biases``
is a view into that vector, so writing through either name changes both;
rebinding a layer's attribute to a new array unties it.  Gradients
(``backward``) and the momentum velocity (``OptState``) are vectors in the
same layout, so the optimizer and the clip never loop over layers.

Checkpoint layout (all little-endian): magic ``b"DNET"``, uint32 version (1),
uint32 layer count; then per layer a uint8 activation code (0 identity,
1 relu), uint32 output size, uint32 input size, float64 weights row-major,
float64 biases.  Raw float64 bytes make round-trips bit-exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ACTIVATIONS",
    "DenseLayer",
    "DenseNet",
    "OptState",
    "init_dense_net",
    "init_opt_state",
    "forward",
    "backward",
    "sgd_step",
    "clip_grads_global",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("identity", "relu")

_CHECKPOINT_MAGIC = b"DNET"
_CHECKPOINT_VERSION = 1
_ACT_CODES = {"identity": 0, "relu": 1}
_ACT_NAMES = {code: name for name, code in _ACT_CODES.items()}

@dataclass
class DenseLayer:
    weights: np.ndarray  # out x in
    biases: np.ndarray  # out
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2 or self.biases.ndim != 1:
            raise ValueError("weights must be 2-D and biases 1-D")
        if self.weights.shape[0] != self.biases.shape[0]:
            raise ValueError(
                f"bias length {self.biases.shape[0]} does not match "
                f"output size {self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("layer parameters contain NaN or Inf")


@dataclass
class DenseNet:
    """The layers, packed on construction into one parameter vector."""

    layers: list[DenseLayer] = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError(
                    f"layer input size {cur.weights.shape[1]} does not match "
                    f"previous output size {prev.weights.shape[0]}"
                )
        self.params = np.concatenate([np.r_[l.weights.ravel(), l.biases] for l in self.layers])
        for layer, (w, b) in zip(self.layers, _layer_views(self, self.params)):
            layer.weights, layer.biases = w, b

    def __deepcopy__(self, memo) -> DenseNet:
        # Copying field by field would copy each view on its own, untied from
        # the copied params; repacking copies the values and ties them again.
        return DenseNet([DenseLayer(l.weights, l.biases, l.activation) for l in self.layers])

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weights.shape[0]


def _layer_views(net: DenseNet, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, biases) views into a vector in the ``params`` layout."""
    views, pos = [], 0
    for layer in net.layers:
        out_size, in_size = layer.weights.shape
        end = pos + out_size * in_size
        views.append((flat[pos:end].reshape(out_size, in_size), flat[end : end + out_size]))
        pos = end + out_size
    return views


def init_dense_net(sizes, rng: np.random.Generator, hidden_activation: str = "relu") -> DenseNet:
    """Build a network with the given layer sizes, e.g. [20, 64, 10].

    Weights use fan-in scaled uniform init (Kaiming-style, bound sqrt(6/fan_in)),
    biases start at zero.  Hidden layers get ``hidden_activation``; the final
    layer is identity so it emits raw logits.
    """
    sizes = list(sizes)
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output size")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        act = hidden_activation if i < len(sizes) - 2 else "identity"
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return DenseNet(layers)


def forward(net: DenseNet, batch: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a batch (rows are examples) through the net; returns (logits, cache).

    The cache holds each layer's input and pre-activation, exactly what
    ``backward`` needs.
    """
    h = np.asarray(batch, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise ValueError(
            f"batch shape {h.shape} incompatible with input size {net.input_dim}"
        )
    cache = []
    for layer in net.layers:
        s = h @ layer.weights.T + layer.biases
        cache.append((h, s))
        h = np.maximum(s, 0.0) if layer.activation == "relu" else s
    return h, cache


def backward(net: DenseNet, cache: list, dlogits: np.ndarray) -> np.ndarray:
    """Chain-rule the logit gradient back into the parameter gradient.

    ``dlogits`` is the gradient of the scalar loss at the logits (any batch
    scaling included by the caller); this is the only seam through which a
    tampered gradient enters, the rest is plain backprop.  Returns one vector
    in the ``params`` layout.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    n_out = net.layers[-1].weights.shape[0]
    if dlogits.shape != (cache[-1][1].shape[0], n_out):
        raise ValueError(
            f"dlogits shape {dlogits.shape} does not match logits "
            f"{(cache[-1][1].shape[0], n_out)}"
        )
    grads = np.empty_like(net.params)
    views = _layer_views(net, grads)
    d = dlogits
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        inp, s = cache[k]
        ds = d * (s > 0.0) if layer.activation == "relu" else d
        np.matmul(ds.T, inp, out=views[k][0])
        ds.sum(axis=0, out=views[k][1])
        if k:  # nothing consumes the gradient at the network's input
            d = ds @ layer.weights
    return grads


@dataclass
class OptState:
    """SGD state: a velocity vector in the ``params`` layout, plus settings.

    Weight decay is applied as gradient augmentation ``g + wd * w`` (coupled
    L2), uniformly to weights and biases.
    """

    velocity: np.ndarray
    momentum: float = 0.9
    weight_decay: float = 5e-4
    nesterov: bool = True


def init_opt_state(
    net: DenseNet,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    nesterov: bool = True,
) -> OptState:
    return OptState(np.zeros_like(net.params), momentum, weight_decay, nesterov)


def sgd_step(
    net: DenseNet, grads: np.ndarray, state: OptState, lr: float
) -> tuple[DenseNet, OptState]:
    """One SGD update with Nesterov momentum; mutates net and state in place."""
    if not lr > 0.0:
        raise ValueError(f"learning rate must be positive, got {lr!r}")
    if np.shape(grads) != net.params.shape:
        raise ValueError(f"gradient shape {np.shape(grads)} != params {net.params.shape}")
    mu = state.momentum
    wd = state.weight_decay
    g = grads + wd * net.params if wd else grads
    v = state.velocity
    v *= mu
    v += g
    net.params -= lr * (g + mu * v) if state.nesterov else lr * v
    return net, state


def clip_grads_global(grads: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale the gradient vector to norm ``clip_norm`` if it exceeds it.

    Returns ``grads`` itself when it is short enough, a new array otherwise.
    """
    if not clip_norm > 0.0:
        raise ValueError(f"clip norm must be positive, got {clip_norm!r}")
    if np.ndim(grads) != 1:
        raise ValueError(f"gradient must be a vector, got shape {np.shape(grads)}")
    # numpy's own reduction, not a BLAS dot, so the sum does not depend on
    # the BLAS thread count.
    norm = math.sqrt(float((grads * grads).sum()))
    if norm <= clip_norm:
        return grads
    return grads * (clip_norm / norm)


def save_checkpoint(net: DenseNet, path) -> None:
    """Write the network to ``path`` in the documented binary layout."""
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _CHECKPOINT_VERSION, len(net.layers)))
        for layer in net.layers:
            out_size, in_size = layer.weights.shape
            fh.write(struct.pack("<BII", _ACT_CODES[layer.activation], out_size, in_size))
            fh.write(layer.weights.astype("<f8", copy=False).tobytes(order="C"))
            fh.write(layer.biases.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> DenseNet:
    """Read a network written by ``save_checkpoint``; bit-exact round-trip."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint (bad magic {blob[:4]!r})")
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != _CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    offset = 12
    layers = []
    for _ in range(n_layers):
        code, out_size, in_size = struct.unpack_from("<BII", blob, offset)
        offset += 9
        if code not in _ACT_NAMES:
            raise ValueError(f"{path}: unknown activation code {code} at byte {offset - 9}")
        w_bytes = out_size * in_size * 8
        w = np.frombuffer(blob, dtype="<f8", count=out_size * in_size, offset=offset)
        offset += w_bytes
        b = np.frombuffer(blob, dtype="<f8", count=out_size, offset=offset)
        offset += out_size * 8
        # No copy: DenseNet packs the read-only buffer views into its params.
        layers.append(DenseLayer(w.reshape(out_size, in_size), b, _ACT_NAMES[code]))
    if offset != len(blob):
        raise ValueError(f"{path}: {len(blob) - offset} trailing bytes after layer data")
    return DenseNet(layers)
