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
same layout, so the optimizer and the clip never loop over layers.  The
update runs over the flat vectors in blocks of ``_UPDATE_BLOCK`` elements,
through two scratch blocks that ``OptState`` allocates once, so a step
allocates nothing and its working set stays in L2.

Cell axis: a net may hold S independent cells of the same architecture, with
``params`` of shape (S, P), layer views (S, out, in) and (S, out), and
batches (S, B, in).  ``forward``, ``backward``, ``sgd_step`` and
``clip_grads_global`` then work cell by cell in one call, and each cell's
result equals, bit for bit, the same call on that cell alone;
``stack_nets`` builds such a net and ``DenseNet.cell`` views one cell.

Checkpoint layout (all little-endian): magic ``b"DNET"``, uint32 version (1),
uint32 layer count; then per layer a uint8 activation code (0 identity,
1 relu), uint32 output size, uint32 input size, float64 weights row-major,
float64 biases.  Raw float64 bytes make round-trips bit-exact.
"""

from __future__ import annotations

import copy
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_real, is_count

__all__ = [
    "DenseLayer",
    "DenseNet",
    "OptState",
    "check_opt_settings",
    "init_dense_net",
    "init_opt_state",
    "stack_nets",
    "forward",
    "backward",
    "sgd_step",
    "row_norms",
    "clip_grads_global",
    "save_checkpoint",
    "load_checkpoint",
]

ACTIVATIONS = ("identity", "relu")

_CHECKPOINT_MAGIC = b"DNET"
_CHECKPOINT_VERSION = 1
_ACT_CODES = {"identity": 0, "relu": 1}
_ACT_NAMES = {code: name for name, code in _ACT_CODES.items()}

# Elements per ``sgd_step`` block: five 256 KiB slices fit a 2 MiB L2.  On a
# 2-vCPU Xeon a 784-256-10 step took 0.8 ms (1.2 ms unblocked); blocks of 2^14
# were no faster, of 2^16 slower.
_UPDATE_BLOCK = 1 << 15


@dataclass
class DenseLayer:
    weights: np.ndarray  # out x in, or cells x out x in
    biases: np.ndarray  # out, or cells x out
    activation: str = "identity"

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim not in (2, 3) or self.biases.ndim != self.weights.ndim - 1:
            raise ValueError("weights must be 2-D and biases 1-D, or both with a cell axis")
        if self.weights.shape[:-1] != self.biases.shape:
            raise ValueError(
                f"bias shape {self.biases.shape} does not match "
                f"output shape {self.weights.shape[:-1]}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("layer parameters contain NaN or Inf")


@dataclass
class DenseNet:
    """The layers, packed on construction into one parameter vector, or into
    one per cell when the layers carry a cell axis."""

    layers: list[DenseLayer] = field(default_factory=list)
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        cells = self.layers[0].biases.shape[:-1]
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.biases.shape[:-1] != cells:
                raise ValueError("every layer needs the same cell axis")
            if cur.weights.shape[-1] != prev.weights.shape[-2]:
                raise ValueError(
                    f"layer input size {cur.weights.shape[-1]} does not match "
                    f"previous output size {prev.weights.shape[-2]}"
                )
        self._bind(np.concatenate(
            [np.concatenate([l.weights.reshape(*cells, -1), l.biases], axis=-1) for l in self.layers],
            axis=-1,
        ))

    def __deepcopy__(self, memo) -> DenseNet:
        # Copying field by field would copy each view on its own, untied from
        # the copied params; repacking copies the values and ties them again.
        return DenseNet([DenseLayer(l.weights, l.biases, l.activation) for l in self.layers])

    def _bind(self, params: np.ndarray) -> None:
        # params (same layout, any cell axis) become the net's parameters, each
        # layer's weights and biases views into it; nothing is copied or checked.
        self.params = params
        for layer, (w, b) in zip(self.layers, _layer_views(self, params)):
            layer.weights, layer.biases = w, b

    def cell(self, index: int) -> DenseNet:
        """Cell ``index`` of a stacked net, as a net that shares its memory."""
        if self.params.ndim != 2:
            raise ValueError("only a stacked net has cells")
        view = copy.copy(self)  # no __post_init__: a cell is neither repacked nor revalidated
        view.layers = [copy.copy(layer) for layer in self.layers]
        view._bind(self.params[index])
        return view

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[-1]

    @property
    def num_classes(self) -> int:
        return self.layers[-1].weights.shape[-2]


def _layer_views(net: DenseNet, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, biases) views into an array in the ``params`` layout."""
    views, pos, cells = [], 0, flat.shape[:-1]
    for layer in net.layers:
        out_size, in_size = layer.weights.shape[-2:]
        end = pos + out_size * in_size
        views.append((
            flat[..., pos:end].reshape(*cells, out_size, in_size),
            flat[..., end : end + out_size],
        ))
        pos = end + out_size
    return views


def stack_nets(nets: list[DenseNet]) -> DenseNet:
    """One net whose cell ``s`` is a copy of ``nets[s]``; all share one architecture."""
    return DenseNet([
        DenseLayer(
            np.stack([net.layers[k].weights for net in nets]),
            np.stack([net.layers[k].biases for net in nets]),
            layer.activation,
        )
        for k, layer in enumerate(nets[0].layers)
    ])


def init_dense_net(sizes, rng: np.random.Generator, hidden_activation: str = "relu") -> DenseNet:
    """Build a network with the given layer sizes, e.g. [20, 64, 10].

    Weights use fan-in scaled uniform init (Kaiming-style, bound sqrt(6/fan_in)),
    biases start at zero.  Hidden layers get ``hidden_activation``; the final
    layer is identity so it emits raw logits.
    """
    sizes = list(sizes)
    if len(sizes) < 2 or not all(is_count(n) and n >= 1 for n in sizes):
        raise ValueError(f"need an input and an output size, all integers >= 1, got {sizes}")
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        bound = math.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        act = hidden_activation if i < len(sizes) - 2 else "identity"
        layers.append(DenseLayer(w, np.zeros(fan_out), act))
    return DenseNet(layers)


def forward(net: DenseNet, batch: np.ndarray) -> tuple[np.ndarray, list]:
    """Run a batch (rows are examples) through the net; returns (logits, cache).

    A stacked net takes one batch per cell, (S, B, in).  The cache holds each
    layer's input and pre-activation, exactly what ``backward`` needs.
    """
    h = np.asarray(batch, dtype=np.float64)
    cells = net.params.shape[:-1]
    if h.ndim != len(cells) + 2 or h.shape[:-2] != cells or h.shape[-1] != net.input_dim:
        raise ValueError(
            f"batch shape {h.shape} incompatible with input size {net.input_dim}"
            f" and cell axis {cells}"
        )
    cache = []
    for layer in net.layers:
        s = h @ np.swapaxes(layer.weights, -1, -2)
        s += layer.biases[..., None, :]  # into the fresh product: same bits, no second array
        cache.append((h, s))
        h = np.maximum(s, 0.0) if layer.activation == "relu" else s
    return h, cache


def backward(net: DenseNet, cache: list, dlogits: np.ndarray) -> np.ndarray:
    """Chain-rule the logit gradient back into the parameter gradient.

    ``dlogits`` is the gradient of the scalar loss at the logits (any batch
    scaling included by the caller); this is the only seam through which a
    tampered gradient enters, the rest is plain backprop.  Returns one array
    in the ``params`` layout, (P,) or (S, P).
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache[-1][1].shape:
        raise ValueError(
            f"dlogits shape {dlogits.shape} does not match logits {cache[-1][1].shape}"
        )
    grads = np.empty_like(net.params)
    views = _layer_views(net, grads)
    d = dlogits
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        inp, s = cache[k]
        ds = d
        if layer.activation == "relu":
            # d * (s > 0.0) without casting a bool array inside the product:
            # times a float 0/1 mask, d keeps its bits, -0.0 and NaN included.
            ds = np.greater(s, 0.0, out=np.empty_like(s))
            ds *= d
        np.matmul(np.swapaxes(ds, -1, -2), inp, out=views[k][0])
        ds.sum(axis=-2, out=views[k][1])
        if k:  # nothing consumes the gradient at the network's input
            d = ds @ layer.weights
    return grads


def check_opt_settings(momentum: float, weight_decay: float, nesterov: bool) -> None:
    """The one check of the SGD settings; a bad one raises ValueError."""
    check_real("momentum", momentum, 0, 1)
    check_real("weight_decay", weight_decay, 0, math.inf)
    if not isinstance(nesterov, bool):
        raise ValueError(f"nesterov must be a bool, got {nesterov!r}")


@dataclass
class OptState:
    """SGD state: a velocity vector in the ``params`` layout, plus settings.

    Weight decay is applied as gradient augmentation ``g + wd * w`` (coupled
    L2), uniformly to weights and biases.  ``sgd_step`` computes in ``_scratch``.
    """

    velocity: np.ndarray
    momentum: float = 0.9
    weight_decay: float = 5e-4
    nesterov: bool = True
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_opt_settings(self.momentum, self.weight_decay, self.nesterov)
        self.velocity = np.ascontiguousarray(self.velocity, dtype=np.float64)
        self._scratch = np.empty((2, min(self.velocity.size, _UPDATE_BLOCK)))


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
    """One SGD update with Nesterov momentum; mutates net and state in place.

    Each block of the flat vectors (a stack's cells end to end) runs the ufuncs
    of ``g = grads + wd*p; v = mu*v + g; p -= lr*(g + mu*v)`` in that order.
    """
    check_real("learning rate", lr, 0, math.inf, "()")
    if np.shape(grads) != net.params.shape:
        raise ValueError(f"gradient shape {np.shape(grads)} != params {net.params.shape}")
    mu, wd = state.momentum, state.weight_decay
    grads = np.asarray(grads).reshape(-1)
    params, velocity = net.params.reshape(-1), state.velocity.reshape(-1)
    for lo in range(0, params.size, _UPDATE_BLOCK):
        blk = slice(lo, lo + _UPDATE_BLOCK)
        p, v = params[blk], velocity[blk]
        t, step = state._scratch[:, : p.size]
        g = np.add(grads[blk], np.multiply(wd, p, out=t), out=t) if wd else grads[blk]
        v *= mu
        v += g
        if state.nesterov:
            np.multiply(lr, np.add(g, np.multiply(mu, v, out=step), out=step), out=step)
        else:
            np.multiply(lr, v, out=step)
        p -= step
    return net, state


def row_norms(x: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of ``x`` (along its last axis), keeping that axis.

    A row of finite entries whose squares overflow is rescaled by its largest
    magnitude, so its norm is finite wherever it fits in float64, and inf
    otherwise; a row with an inf or NaN entry keeps the plain sum's inf or NaN.
    """
    # numpy's own reduction, not a BLAS dot, so the sum does not depend on
    # the BLAS thread count.
    with np.errstate(over="ignore"):
        norms = np.sqrt((x * x).sum(axis=-1, keepdims=True))
        inf = np.isinf(norms[..., 0])
        if inf.any():  # rows are tested for finiteness only once a norm is infinite
            big = inf & np.isfinite(x).all(axis=-1)
            scale = np.abs(x[big]).max(axis=-1, keepdims=True)
            norms[big] = scale * row_norms(x[big] / scale)  # entries in [-1, 1]: no overflow
    return norms


def clip_grads_global(grads: np.ndarray, clip_norm: float | np.ndarray) -> np.ndarray:
    """Scale each gradient vector (one per cell) to norm ``clip_norm`` if it
    exceeds it; ``clip_norm`` is one bound in (0, inf], or a numpy array of
    one per cell shaped (S, 1).

    Returns ``grads`` itself when every vector is short enough, a new array
    otherwise, in which the short vectors keep their values.
    """
    check_real("clip norm", clip_norm, 0, math.inf, "(]")
    if np.ndim(grads) not in (1, 2):
        raise ValueError(
            f"gradient must be a vector or one per cell, got shape {np.shape(grads)}"
        )
    if np.ndim(clip_norm) and np.shape(clip_norm) != (*np.shape(grads)[:-1], 1):
        raise ValueError(
            f"clip norms of shape {np.shape(clip_norm)} do not match gradients {np.shape(grads)}"
        )
    norms = row_norms(grads)
    fire = ~(norms <= clip_norm)  # a NaN norm fires, as a scalar compare would
    if not fire.any():
        return grads
    return grads * np.divide(clip_norm, norms, out=np.ones_like(norms), where=fire)


def save_checkpoint(net: DenseNet, path) -> None:
    """Write the network to ``path`` in the documented binary layout."""
    if net.params.ndim != 1:
        raise ValueError("a stacked net has no checkpoint; save one cell at a time")
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
