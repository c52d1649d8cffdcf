"""Dense feedforward network with explicit forward/backward passes.

A ``DenseNet`` is a frozen record of three things: ``params``, every
parameter in one contiguous float64 vector; ``sizes``, the layer widths,
input first; and ``activations``, one per layer.  The layout of ``params`` is
the checkpoint's order: layer by layer, each layer's weights row-major, then
its biases.  ``layers`` holds one immutable ``DenseLayer`` of (weights,
biases, activation) per layer, whose arrays are views into ``params`` built
once, at construction; writing through either name changes both.  Gradients
(``backward``) and the momentum velocity (``OptState``) are vectors in the
same layout, so the optimizer and the clip never loop over layers.  The
update runs over the flat vectors in blocks of ``_UPDATE_BLOCK`` elements,
through two scratch blocks that ``OptState`` allocates once, so the update
allocates nothing and its working set stays in L2.  ``forward``,
``backward``, ``row_norms`` and ``clip_grads_global`` take ``out=``, arrays
that a caller keeps from one step to the next (the previous step's cache, a
gradient vector, the clip's vector), so that a training step allocates only
a few KiB; ``out`` changes where a result is written, never its bits.
``backward`` consumes its cache.  Training mutates a network, through its
``params``, from a single thread.

``DenseNet(params, sizes, activations)`` is the one way to build a net.  A
checkpoint's payload is in ``params`` order, so it is read straight into one.

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

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._checks import check_cells, check_path, check_real, is_count

__all__ = [
    "DenseLayer",
    "DenseNet",
    "OptState",
    "check_opt_settings",
    "param_count",
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

# An activation's checkpoint code is its index here, so the order is fixed.
ACTIVATIONS = ("identity", "relu")

_CHECKPOINT_MAGIC = b"DNET"
_CHECKPOINT_VERSION = 1

# Elements per ``sgd_step`` block: five 256 KiB slices fit a 2 MiB L2.  On a
# 2-vCPU Xeon a 784-256-10 step took 0.8 ms (1.2 ms unblocked); blocks of 2^14
# were no faster, of 2^16 slower.
_UPDATE_BLOCK = 1 << 15


class DenseLayer(NamedTuple):
    """One layer of a net: views into its ``params``, and its activation."""

    weights: np.ndarray  # out x in, or cells x out x in
    biases: np.ndarray  # out, or cells x out
    activation: str


def param_count(sizes) -> int:
    """Parameters of a net of layer widths ``sizes``, input first: each layer's
    weights and biases.  ValueError unless there are two or more sizes, all
    integers >= 1."""
    if len(sizes) < 2 or not all(is_count(n) and n >= 1 for n in sizes):
        raise ValueError(f"need an input and an output size, all integers >= 1, got {list(sizes)}")
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


@dataclass(frozen=True, eq=False)
class DenseNet:
    """``params`` ((P,), or (S, P) for S cells) of a net of layer widths
    ``sizes`` and one activation per layer; ``layers`` views them.  What does
    not make such a net, a NaN or Inf parameter included, raises ValueError."""

    params: np.ndarray
    sizes: tuple[int, ...]
    activations: tuple[str, ...]
    layers: tuple[DenseLayer, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes, acts = tuple(self.sizes), tuple(self.activations)
        if len(acts) != len(sizes) - 1:
            raise ValueError(f"{len(sizes) - 1} layers need as many activations, got {acts}")
        for act in acts:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        # Contiguous, so that every layer view is a view and not a copy.
        params = np.ascontiguousarray(self.params, dtype=np.float64)
        if params.ndim not in (1, 2) or params.shape[-1] != param_count(sizes):
            raise ValueError(f"params of shape {params.shape} do not fit sizes {sizes}")
        if not np.all(np.isfinite(params)):
            raise ValueError("layer parameters contain NaN or Inf")
        layers = tuple(DenseLayer(w, b, a) for (w, b), a in zip(_layer_views(sizes, params), acts))
        # Past the frozen __setattr__, once: nothing rebinds them afterwards.
        self.__dict__.update(params=params, sizes=sizes, activations=acts, layers=layers)

    def __reduce__(self):  # deepcopy and pickle rebuild the layer views
        return DenseNet, (self.params, self.sizes, self.activations)

    def cell(self, index: int) -> DenseNet:
        """Cell ``index`` of a stacked net, as a net that shares its memory."""
        if self.params.ndim != 2:
            raise ValueError("only a stacked net has cells")
        return DenseNet(self.params[index], self.sizes, self.activations)


def _layer_views(sizes, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights, biases) views into an array in the ``params`` layout
    of a net of layer widths ``sizes``."""
    views, pos, cells = [], 0, flat.shape[:-1]
    for n_in, n_out in zip(sizes, sizes[1:]):
        end = pos + n_out * n_in
        views.append((flat[..., pos:end].reshape(*cells, n_out, n_in), flat[..., end : end + n_out]))
        pos = end + n_out
    return views


def stack_nets(nets: list[DenseNet]) -> DenseNet:
    """One net whose cell ``s`` is a copy of ``nets[s]``; all share one architecture."""
    if len(nets) == 0:
        raise ValueError("a stack needs at least one net")
    first = nets[0]
    if any((net.sizes, net.activations) != (first.sizes, first.activations) for net in nets):
        raise ValueError("stacked nets need one architecture")
    return DenseNet(np.stack([net.params for net in nets]), first.sizes, first.activations)


def init_dense_net(sizes, rng: np.random.Generator, hidden_activation: str = "relu") -> DenseNet:
    """Build a network with the given layer sizes, e.g. [20, 64, 10].

    Weights use fan-in scaled uniform init (Kaiming-style, bound sqrt(6/fan_in)),
    drawn layer by layer; biases start at zero.  Hidden layers get
    ``hidden_activation``; the final layer is identity so it emits raw logits.
    """
    sizes = tuple(sizes)
    acts = (hidden_activation,) * (len(sizes) - 2) + ("identity",)
    net = DenseNet(np.zeros(param_count(sizes)), sizes, acts)
    for fan_in, layer in zip(sizes, net.layers):
        bound = math.sqrt(6.0 / fan_in)
        layer.weights[...] = rng.uniform(-bound, bound, size=layer.weights.shape)
    return net


def _kept(cache: list, k: int, j: int, like: np.ndarray) -> np.ndarray | None:
    """``cache[k][j]`` when the cache holds it with the leading axes (the
    batch's) of ``like``, else None, for the ufunc to make a new array."""
    return cache[k][j] if k < len(cache) and cache[k][j].shape[:-1] == like.shape[:-1] else None


def forward(net: DenseNet, batch: np.ndarray, out=None) -> tuple[np.ndarray, list]:
    """Run a batch (rows are examples) through the net; returns (logits, cache).

    A stacked net takes one batch per cell, (S, B, in).  The cache holds each
    layer's input and pre-activation, exactly what ``backward`` needs.  Given
    ``out``, the previous step's cache, forward writes each layer's
    pre-activation and activation into that cache's arrays, in place, and
    returns it; an array whose batch axes differ, as for a short last batch,
    is replaced by a new one.  The values are the same bits either way.
    """
    h = np.asarray(batch, dtype=np.float64)
    cells = net.params.shape[:-1]
    if h.ndim != len(cells) + 2 or h.shape[:-2] != cells or h.shape[-1] != net.sizes[0]:
        raise ValueError(
            f"batch shape {h.shape} incompatible with input size {net.sizes[0]}"
            f" and cell axis {cells}"
        )
    cache = [] if out is None else out
    for k, layer in enumerate(net.layers):
        s = np.matmul(h, np.swapaxes(layer.weights, -1, -2), out=_kept(cache, k, 1, h))
        s += layer.biases[..., None, :]  # in place: same bits, no second array
        cache[k : k + 1] = [(h, s)]  # replaces entry k, or appends it to a new cache
        h = np.maximum(s, 0.0, out=_kept(cache, k + 1, 0, s)) if layer.activation == "relu" else s
    return h, cache


def backward(net: DenseNet, cache: list, dlogits: np.ndarray, out=None) -> np.ndarray:
    """Chain-rule the logit gradient back into the parameter gradient.

    ``dlogits`` is the gradient of the scalar loss at the logits (any batch
    scaling included by the caller); this is the only seam through which a
    tampered gradient enters, the rest is plain backprop.  Returns one array
    in the ``params`` layout, (P,) or (S, P): ``out`` when it is given, else a
    new one.  It consumes ``cache``: a ReLU layer's mask overwrites its
    pre-activation, and the gradient at a layer's input overwrites that input
    activation, never the batch.  The logits themselves are left as they are.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    if dlogits.shape != cache[-1][1].shape:
        raise ValueError(
            f"dlogits shape {dlogits.shape} does not match logits {cache[-1][1].shape}"
        )
    grads = np.empty_like(net.params) if out is None else out
    views = _layer_views(net.sizes, grads)
    d = dlogits
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        inp, s = cache[k]
        ds = d
        if layer.activation == "relu":
            # d * (s > 0.0) without casting a bool array inside the product:
            # times a float 0/1 mask, d keeps its bits, -0.0 and NaN included.
            # The mask overwrites the pre-activation.
            ds = np.greater(s, 0.0, out=s)
            ds *= d
        np.matmul(np.swapaxes(ds, -1, -2), inp, out=views[k][0])
        ds.sum(axis=-2, out=views[k][1])
        if k:  # nothing consumes the gradient at the network's input
            d = np.matmul(ds, layer.weights, out=inp)
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


def row_norms(x: np.ndarray, out=None) -> np.ndarray:
    """The L2 norm of each row of ``x`` (along its last axis), keeping that axis;
    the squares go into ``out``, a float64 array of ``x``'s shape, when given.

    A row of finite entries whose squares overflow is rescaled by its largest
    magnitude, so its norm is finite wherever it fits in float64, and inf
    otherwise; a row with an inf or NaN entry keeps the plain sum's inf or NaN.
    """
    # numpy's own reduction, not a BLAS dot, so the sum does not depend on
    # the BLAS thread count.
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.multiply(x, x, out=out).sum(axis=-1, keepdims=True))
        inf = np.isinf(norms[..., 0])
        if inf.any():  # rows are tested for finiteness only once a norm is infinite
            big = inf & np.isfinite(x).all(axis=-1)
            scale = np.abs(x[big]).max(axis=-1, keepdims=True)
            norms[big] = scale * row_norms(x[big] / scale)  # entries in [-1, 1]: no overflow
    return norms


def clip_grads_global(grads: np.ndarray, clip_norm: float | np.ndarray, out=None) -> np.ndarray:
    """Scale each gradient vector (one per cell) to norm ``clip_norm`` if it
    exceeds it; ``clip_norm`` is one bound in (0, inf], or a numpy array of
    one per cell shaped (S, 1).

    Returns ``grads`` itself when it is a float64 array whose every vector
    is short enough; otherwise the scaled vectors, in which the short ones
    keep their values, in ``out`` when it is given (a float64 array of
    ``grads``' shape, not ``grads`` itself, which also takes the squares of
    the norms) and in a new array when not.
    """
    check_cells("clip norm", clip_norm, 0, math.inf, "(]")
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim not in (1, 2):
        raise ValueError(f"gradient must be a vector or one per cell, got shape {grads.shape}")
    if np.ndim(clip_norm) and np.shape(clip_norm) != (*grads.shape[:-1], 1):
        raise ValueError(
            f"clip norms of shape {np.shape(clip_norm)} do not match gradients {grads.shape}"
        )
    norms = row_norms(grads, out)
    fire = ~(norms <= clip_norm)  # a NaN norm fires, as a scalar compare would
    if not fire.any():
        return grads
    scale = np.divide(clip_norm, norms, out=np.ones_like(norms), where=fire)
    return np.multiply(grads, scale, out=out)


def save_checkpoint(net: DenseNet, path) -> None:
    """Write the network to ``path`` in the documented binary layout."""
    check_path("checkpoint", path)
    if net.params.ndim != 1:
        raise ValueError("a stacked net has no checkpoint; save one cell at a time")
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", _CHECKPOINT_VERSION, len(net.layers)))
        for layer in net.layers:
            out_size, in_size = layer.weights.shape
            fh.write(struct.pack("<BII", ACTIVATIONS.index(layer.activation), out_size, in_size))
            fh.write(layer.weights.astype("<f8", copy=False).tobytes(order="C"))
            fh.write(layer.biases.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> DenseNet:
    """Read a network written by ``save_checkpoint``; bit-exact round-trip.

    The layers' weight and bias bytes, in file order, are the net's ``params``,
    copied once into a fresh array.  Every rejection raises ValueError led by
    the path; a file cut short names the byte offset at which the part it cuts
    begins."""
    check_path("checkpoint", path)
    try:
        with open(path, "rb") as fh:
            blob = memoryview(fh.read())
    except OSError as exc:  # a missing or unreadable file is a bad value, like a malformed one
        raise ValueError(f"{path}: cannot read checkpoint: {exc.strerror}") from None
    offset = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal offset
        if len(blob) - offset < size:
            raise ValueError(f"truncated {what} at byte {offset}: "
                             f"needs {size} bytes, {len(blob) - offset} remain")
        offset += size
        return blob[offset - size : offset]

    try:
        if take(4, "magic") != _CHECKPOINT_MAGIC:
            raise ValueError(f"not a checkpoint (bad magic {bytes(blob[:4])!r})")
        version, n_layers = struct.unpack("<II", take(8, "header"))
        if version != _CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        layers, chunks = [], []
        for k in range(n_layers):
            code, out_size, in_size = struct.unpack("<BII", take(9, f"layer {k} header"))
            if code >= len(ACTIVATIONS):
                raise ValueError(f"unknown activation code {code} at byte {offset - 9}")
            chunks.append(take(out_size * in_size * 8, f"layer {k} weights"))
            chunks.append(take(out_size * 8, f"layer {k} biases"))
            layers.append((out_size, in_size, ACTIVATIONS[code]))
        if offset != len(blob):
            raise ValueError(f"{len(blob) - offset} trailing bytes after layer data")
        if not layers:
            raise ValueError("network needs at least one layer")
        for (prev_out, *_), (_, in_size, _) in zip(layers, layers[1:]):
            if in_size != prev_out:
                raise ValueError(f"layer input size {in_size} does not match "
                                 f"previous output size {prev_out}")
        params = np.concatenate([np.frombuffer(chunk, "<f8") for chunk in chunks])
        sizes = (layers[0][1], *(out for out, *_ in layers))
        return DenseNet(params, sizes, tuple(act for *_, act in layers))
    except ValueError as exc:  # the net's own checks' messages too
        raise ValueError(f"{path}: {exc}") from None
