"""Dataset ingestion: seeded synthetic blobs and the IDX binary format.

The blob generator stands in for image datasets at desk scale; it exercises
the identical softmax/gradient path.  IDX files (the MNIST container format)
are parsed bit-exactly: big-endian u32 header words, magic 0x00000803 for
3-D uint8 image tensors and 0x00000801 for 1-D uint8 label vectors.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_path, check_real

__all__ = [
    "IMAGE_MAGIC",
    "LABEL_MAGIC",
    "Dataset",
    "IdxFormatError",
    "check_blob_settings",
    "synth_blobs",
    "read_idx_images",
    "read_idx_labels",
    "write_idx_images",
    "write_idx_labels",
    "load_idx",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX file; messages carry the offending byte offset."""


@dataclass
class Dataset:
    """Immutable N x D inputs with integer labels in [0, C).

    The package's one check of class labels: every label that reaches
    training or evaluation came through here, and is then a safe index into
    ``lossgrad.smooth_label_rows``' table.  ``labels`` is kept as a read-only
    int64 copy, so the labels checked are the labels read; the caller's
    array is left as it was.

    ``uint8`` inputs are 8-bit pixels, kept as a read-only view of the
    caller's array, with no copy; their features are ``inputs / 255``.
    Inputs of any other dtype are kept as a read-only float64 copy, checked
    finite, and are the features themselves, unscaled (torchvision's
    ``ToTensor`` takes the same view of uint8 images).  So no float written
    after the check reaches training, and the caller's arrays stay writable.
    :meth:`features` is the one reader of the values.
    """

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        check_count("num_classes", self.num_classes, 1)
        inputs, labels = np.asarray(self.inputs), np.asarray(self.labels)
        # uint8 holds no value the finiteness check could miss, so pixels need
        # no copy; a float written after the check would skip it.
        self.inputs = inputs.view() if inputs.dtype == np.uint8 else np.array(inputs, np.float64)
        self.inputs.flags.writeable = False
        # Checked, not cast: a cast would truncate 1.7 to 1.
        if labels.dtype.kind not in "iu":
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        # A read-only copy: a label written after this check would skip it, and
        # a negative one would index the smoothing table from its end.
        self.labels = np.array(labels, dtype=np.int64)
        self.labels.flags.writeable = False
        if self.inputs.ndim != 2 or self.inputs.shape[0] < 1:
            raise ValueError(f"inputs must be a non-empty N x D matrix, got {self.inputs.shape}")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ValueError("labels length does not match input rows")
        if self.inputs.dtype == np.float64 and not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs contain NaN or Inf")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def num_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def pixels(self) -> bool:
        """Whether the inputs are uint8 pixels, which :meth:`features` widens."""
        return self.inputs.dtype == np.uint8

    def features(self, index, out: np.ndarray | None = None) -> np.ndarray:
        """float64 features of the rows ``inputs[index]``.

        uint8 rows are widened and divided by 255 (so only the rows read are
        ever float64), into ``out`` when it is given: a float64 array of the
        rows' shape that the caller may reuse from one read to the next.
        float64 rows are returned as they are, a view for a slice, and
        ``out`` is left untouched.
        """
        rows = self.inputs[index]
        if rows.dtype != np.uint8:
            return rows
        # One pass, casting each pixel exactly: the bits of astype(float64) / 255.
        return np.divide(rows, 255.0, out=out, dtype=np.float64)


def check_blob_settings(
    classes: int, per_class: int, features: int, spread: float, seed: int
) -> None:
    """The one check of the blob settings; a bad one raises ValueError."""
    check_count("blob classes", classes, 2)
    check_count("blob per_class", per_class, 2)
    check_count("blob features", features, 1)
    check_count("blob seed", seed, 0)
    check_real("blob spread", spread, 0, math.inf, "()")


def synth_blobs(
    num_classes: int,
    per_class: int,
    num_features: int,
    spread: float,
    seed: int,
) -> tuple[Dataset, Dataset]:
    """Gaussian clusters at seeded random unit-scale centers, split 80/20.

    The split is stratified: each class contributes the same train/test
    counts (at least one test point per class).  Deterministic in ``seed``.
    """
    check_blob_settings(num_classes, per_class, num_features, spread, seed)
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, 1.0, size=(num_classes, num_features))
    n_train = min(per_class - 1, max(1, round(0.8 * per_class)))

    tr_x, tr_y, te_x, te_y = [], [], [], []
    for c in range(num_classes):
        pts = centers[c] + spread * rng.normal(0.0, 1.0, size=(per_class, num_features))
        tr_x.append(pts[:n_train])
        te_x.append(pts[n_train:])
        tr_y.append(np.full(n_train, c))
        te_y.append(np.full(per_class - n_train, c))
    train = Dataset(np.concatenate(tr_x), np.concatenate(tr_y), num_classes)
    test = Dataset(np.concatenate(te_x), np.concatenate(te_y), num_classes)
    return train, test


def _read_idx(path, magic: int, words: int, what: str) -> np.ndarray:
    """The uint8 payload of an IDX file, shaped by its header: ``words`` big-endian
    u32 words, ``magic`` and then the dimensions; ``what`` names the header."""
    check_path("IDX file", path)
    try:
        fh = open(path, "rb")
    except OSError as exc:  # a missing or unreadable input is a bad value, like a malformed one
        raise ValueError(f"cannot read IDX file {path}: {exc}") from None
    with fh:
        need = 4 * words
        head = fh.read(need)
        if len(head) < need:
            raise IdxFormatError(
                f"{path}: truncated {what}: need {need} header bytes, file has {len(head)}"
            )
        found, *dims = struct.unpack(f">{words}I", head)
        if found != magic:
            raise IdxFormatError(
                f"{path}: bad magic 0x{found:08x} at byte 0, expected 0x{magic:08x}"
            )
        payload, expected = os.fstat(fh.fileno()).st_size - need, math.prod(dims)
        if payload != expected:
            shape = " x ".join(map(str, dims)) + (f" = {expected}" if len(dims) > 1 else "")
            raise IdxFormatError(
                f"{path}: payload from byte {need} holds {payload} bytes, header promises {shape}"
            )
        out = np.empty(expected, dtype=np.uint8)  # read straight into the array
        got = fh.readinto(out)
        if got != expected:  # the file shrank after its size was taken
            raise IdxFormatError(f"{path}: payload ended after {got} of {expected} bytes")
        return out.reshape(dims)


def read_idx_images(path) -> np.ndarray:
    """Raw N x rows x cols uint8 pixel tensor from an IDX image file."""
    return _read_idx(path, IMAGE_MAGIC, 4, "image header")


def read_idx_labels(path) -> np.ndarray:
    """Raw length-N uint8 label vector from an IDX label file."""
    return _read_idx(path, LABEL_MAGIC, 2, "label header")


def _write_idx(path, magic: int, values, what: str, ndim: int) -> None:
    """Write ``values``, ``ndim``-D integers in [0, 255], as an IDX file."""
    check_path("IDX file", path)
    values = np.asarray(values)
    if values.ndim != ndim:
        raise ValueError(f"expected {what}, got shape {values.shape}")
    # Checked, not cast: uint8 would wrap 300 to 44 and truncate 2.7 to 2.
    if values.dtype.kind not in "iu" or values.size and not 0 <= values.min() <= values.max() <= 255:
        raise ValueError(f"{what} must hold integers in [0, 255], got dtype {values.dtype}")
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{1 + ndim}I", magic, *values.shape))
        fh.write(values.astype(np.uint8, copy=False).tobytes())


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of ``read_idx_images``; byte-exact for uint8 input."""
    _write_idx(path, IMAGE_MAGIC, images, "an N x rows x cols array of pixels", 3)


def write_idx_labels(path, labels: np.ndarray) -> None:
    """Inverse of ``read_idx_labels``."""
    _write_idx(path, LABEL_MAGIC, labels, "a 1-D label vector", 1)


def load_idx(images_path, labels_path) -> Dataset:
    """Parse an IDX image/label pair into a Dataset.

    Each image is flattened to rows * cols uint8 pixels, kept as uint8: the
    Dataset's features are those pixels / 255, in [0, 1], widened only for the
    rows read.  The class count is taken from the largest label present, and
    the Dataset checks the labels.
    """
    images = read_idx_images(images_path)
    if not images.size:  # no images, or images of no pixels
        raise IdxFormatError(f"{images_path}: holds no pixels, shape {images.shape}")
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images_path} has {images.shape[0]} images, "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    flat = images.reshape(images.shape[0], -1)
    return Dataset(flat, labels, int(labels.max()) + 1)
