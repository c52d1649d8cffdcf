"""The benchmark's workloads: inputs from a seed, and checks on outputs.

A workload is a list of CLI invocations (``ops``) that together make one
repetition; ``OUT`` in an op's argv stands for its fresh output directory.
``prepare`` runs in the parent process: it derives every input from the
workload seed, writes input files into the work directory and returns a
JSON-ready spec.  ``check`` runs in the worker after each op and
returns the problems it found, the sha256 of the op's output files and the
op's quality figure (test accuracy, or the share of verify checks passed).

Only the standard library and numpy are used here, and ``check`` imports
nothing from gradtamper except ``load_checkpoint``.
"""

from __future__ import annotations

import hashlib
import os
import random
import re
import struct
from dataclasses import dataclass, field

DESK_ALPHAS = ("0.1", "0.3", "0.6", "1.0")
DESK_SEEDS_PER_REP = 4
DESK_DATA_SEED = 7  # the README desk config's blobs; the workload seed picks training seeds
DESK_STEPS_PER_CELL = 750  # 800 training blobs / batch 32 = 25 steps, x 30 epochs
DESK_EPOCHS_PER_CELL = 30

MNIST_TRAIN, MNIST_TEST, MNIST_SIDE, MNIST_CLASSES = 48_000, 12_000, 28, 10
MNIST_BATCH = 32

VERIFY_SEEDS_PER_REP = 4
VERIFY_TRIALS, VERIFY_CLASSES = 1000, (2, 10, 100)  # the CLI defaults


# Stands for the op's fresh output directory in an op's argv.
OUT = "{out}"


def derived_seeds(workload: str, seed: int, count: int) -> list[int]:
    """``count`` seeds for the program, fixed by the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class OpCheck:
    """What the checks found for one op."""

    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    quality: float = float("nan")


def _run_dir(out: str) -> str:
    entries = os.listdir(out)
    if len(entries) != 1:
        raise ValueError(f"expected one run directory under {out}, found {entries}")
    return os.path.join(out, entries[0])


# ---------------------------------------------------------------------------
# desk_grid
# ---------------------------------------------------------------------------


def prepare_desk_grid(seed: int, work: str) -> dict:
    train_seeds = derived_seeds("desk_grid", seed, DESK_SEEDS_PER_REP)
    argv = [
        "grid",
        "--grid-alphas", ",".join(DESK_ALPHAS),
        "--grid-seeds", ",".join(map(str, train_seeds)),
        "--data-seed", str(DESK_DATA_SEED),
        "--out", OUT,
    ]
    cells = len(DESK_ALPHAS) * len(train_seeds)
    return {
        "ops": [argv],
        "cells_per_rep": cells,
        "steps_per_rep": cells * DESK_STEPS_PER_CELL,
        "epochs_per_rep": cells * DESK_EPOCHS_PER_CELL,
        "expected_cells": [[a, s] for a in DESK_ALPHAS for s in train_seeds],
    }


def check_desk_grid(spec: dict, rc: int, stdout: str, out: str) -> OpCheck:
    res = OpCheck()
    if rc != 0:
        res.errors.append(f"grid exited {rc}")
        return res
    path = os.path.join(_run_dir(out), "grid.csv")
    res.digests["grid.csv"] = sha256_file(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    expected = {(float(a), int(s)) for a, s in spec["expected_cells"]}
    rows = [ln.split(",") for ln in lines[1:]]
    if not lines or not lines[0].startswith("alpha,seed,"):
        res.errors.append("grid.csv has no header")
    if len(rows) != len(expected):
        res.errors.append(f"grid.csv holds {len(rows)} rows for {len(expected)} cells")
    if {(float(r[0]), int(r[1])) for r in rows} != expected:
        res.errors.append("grid.csv cells differ from the requested alphas x seeds")
    bad = [r for r in rows if len(r) != 7 or r[6] != "ok"]
    if bad:
        res.errors.append(f"{len(bad)} grid cells not ok")
    else:
        res.quality = sum(float(r[3]) for r in rows) / len(rows)
    return res


# ---------------------------------------------------------------------------
# mnist_idx
# ---------------------------------------------------------------------------


def _write_idx(path: str, array, header: tuple[int, ...]) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{len(header)}I", *header))
        fh.write(array.tobytes())


def prepare_mnist_idx(seed: int, work: str) -> dict:
    """MNIST-shaped IDX files: Gaussian blobs around ten random centres.

    Pixels are ``128 + 20 x`` rounded and clipped to uint8, with ``x`` a
    centre plus spread-8 noise, so the classes overlap.
    """
    import numpy as np

    data_seed, train_seed = derived_seeds("mnist_idx", seed, 2)
    rng = np.random.default_rng(data_seed)
    dim = MNIST_SIDE * MNIST_SIDE
    centres = rng.standard_normal((MNIST_CLASSES, dim))
    paths = {}
    for split, count in (("train", MNIST_TRAIN), ("test", MNIST_TEST)):
        labels = (np.arange(count) % MNIST_CLASSES).astype(np.uint8)
        rng.shuffle(labels)
        images = np.empty((count, dim), dtype=np.uint8)
        for lo in range(0, count, 4000):
            lab = labels[lo:lo + 4000]
            x = centres[lab] + 8.0 * rng.standard_normal((lab.size, dim))
            images[lo:lo + 4000] = np.clip(np.rint(128.0 + 20.0 * x), 0, 255)
        paths[f"{split}_images"] = os.path.join(work, f"{split}-images.idx")
        paths[f"{split}_labels"] = os.path.join(work, f"{split}-labels.idx")
        _write_idx(paths[f"{split}_images"], images, (0x803, count, MNIST_SIDE, MNIST_SIDE))
        _write_idx(paths[f"{split}_labels"], labels, (0x801, count))
    argv = [
        "train", "--data", "idx",
        "--train-images", paths["train_images"], "--train-labels", paths["train_labels"],
        "--test-images", paths["test_images"], "--test-labels", paths["test_labels"],
        "--hidden", "256", "--epochs", "1", "--batch-size", str(MNIST_BATCH),
        "--alpha", "0.3", "--clip-lambda", "1.0",
        "--peak-lr", "0.01", "--warmup-epochs", "0", "--cooldown-epochs", "0",
        "--seed", str(train_seed),
        "--out", OUT,
    ]
    return {
        "ops": [argv],
        "cells_per_rep": 1,
        "steps_per_rep": -(-MNIST_TRAIN // MNIST_BATCH),
        "epochs_per_rep": 1,
        "test_images": paths["test_images"],
        "test_labels": paths["test_labels"],
    }


def check_mnist_idx(spec: dict, rc: int, stdout: str, out: str) -> OpCheck:
    import numpy as np
    from gradtamper.net import load_checkpoint

    res = OpCheck()
    if rc != 0:
        res.errors.append(f"train exited {rc}")
        return res
    run = _run_dir(out)
    for name in ("metrics.csv", "net.ckpt"):
        res.digests[name] = sha256_file(os.path.join(run, name))
    with open(os.path.join(run, "metrics.csv")) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    last = dict(zip(header, lines[-1].split(",")))
    reported = float(last["test_acc"])

    net = load_checkpoint(os.path.join(run, "net.ckpt"))
    # Read afresh each time, so no benchmark array stays resident to inflate
    # the next repetition's peak RSS.
    with open(spec["test_images"], "rb") as fh:
        pixels = np.frombuffer(fh.read(), dtype=np.uint8, offset=16)
    with open(spec["test_labels"], "rb") as fh:
        labels = np.frombuffer(fh.read(), dtype=np.uint8, offset=8).astype(np.int64)
    h = pixels.reshape(labels.size, -1).astype(np.float64) / 255.0
    for layer in net.layers:
        s = h @ layer.weights.T + layer.biases
        h = np.maximum(s, 0.0) if layer.activation == "relu" else s
    recomputed = float(np.mean(np.argmax(h, axis=1) == labels))
    if recomputed != reported:
        res.errors.append(
            f"checkpoint scores {recomputed!r} on the test split, metrics.csv says {reported!r}"
        )
    res.quality = reported
    return res


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_PROPERTY_LINE = re.compile(r"^\s+(PASS|FAIL) (\S+) .*; (\d+) checks, (\d+) failures\)$")


def prepare_verify(seed: int, work: str) -> dict:
    seeds = derived_seeds("verify", seed, VERIFY_SEEDS_PER_REP)
    return {
        "ops": [["verify", "--seed", str(s)] for s in seeds],
        "cells_per_rep": len(seeds),
        "steps_per_rep": len(seeds) * VERIFY_TRIALS * len(VERIFY_CLASSES),
        "epochs_per_rep": 0,
    }


def check_verify(spec: dict, rc: int, stdout: str, out: str) -> OpCheck:
    res = OpCheck()
    res.digests["report"] = hashlib.sha256(stdout.encode()).hexdigest()
    if rc != 0:
        res.errors.append(f"verify exited {rc}")
    props = [m.groups() for m in map(_PROPERTY_LINE.match, stdout.splitlines()) if m]
    if not props:
        res.errors.append("verify printed no property lines")
        return res
    for status, name, checks, failures in props:
        if status != "PASS":
            res.errors.append(f"property {name} failed {failures} of {checks} checks")
        if int(checks) == 0:
            res.errors.append(f"property {name} has no samples")
    total = sum(int(p[2]) for p in props)
    if total:
        res.quality = 1.0 - sum(int(p[3]) for p in props) / total
    return res


WORKLOADS = {
    "desk_grid": (prepare_desk_grid, check_desk_grid),
    "mnist_idx": (prepare_mnist_idx, check_mnist_idx),
    "verify": (prepare_verify, check_verify),
}
