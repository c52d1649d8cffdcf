"""Command-line front end: ``train``, ``grid``, ``analyze``, ``verify``.

Configuration is plain ``key = value`` text (``#`` comments allowed).  Each
``train``/``grid`` key is a field of ``TrainConfig`` or of its ``DataSpec``,
``ScheduleSpec`` or ``TamperSpec``, read as the field's annotation says, with
the default of ``TrainConfig()``.  The exceptions: the keys ``data``,
``data_seed`` and ``schedule`` name the fields ``data.kind``, ``data.seed``
and ``schedule.kind``, and ``total_epochs = none`` (its default) follows
``epochs``; ``grid_alphas`` and ``grid_seeds`` are the sweep's own keys.  A
``--config FILE`` overrides defaults, and an explicit command-line flag
overrides both, key by key.  ``train`` and
``grid`` create a fresh run directory ``<out>/<subcommand>-NNN`` and write a
``manifest.cfg`` holding the fully resolved configuration; feeding that file
back via ``--config`` reproduces the run exactly.  ``grid --resume CSV``
instead reads the manifest next to the CSV as the sweep's configuration and
rejects any explicit key that would change it.  The output root is taken
from ``--out``, else the ``GRADTAMPER_OUT`` environment variable, else
``./runs``.

List-valued options accept either comma lists (``0.1,0.3,1.0``) or inclusive
ranges ``start:stop:step`` (``0:1:0.25`` -> 0, 0.25, 0.5, 0.75, 1.0).

Exit codes:
    0  success
    2  command-line usage error (from argparse)
    3  invalid configuration or input values, or an input file that cannot be read
    4  output directory or file could not be created/written
    5  training diverged (non-finite logits or NaN loss)
    6  verification found at least one failing property
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import glob
import os
import sys
from dataclasses import Field, fields

import numpy as np

from . import __version__
from .grid import check_grid, grid_search
from .harness import (
    DataSpec,
    DivergenceError,
    TrainConfig,
    datasets_for,
    format_verify_report,
    train,
    verify_claims,
    write_metrics_csv,
)
from .net import save_checkpoint
from .schedule import ScheduleSpec
from .transform import TamperSpec, prob_vec, stationary_threshold, transform_probabilities


# ---------------------------------------------------------------------------
# value parsing
# ---------------------------------------------------------------------------


def _float_of(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{key}: expected a number, got {raw!r}") from None


def _int_of(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{key}: expected an integer, got {raw!r}") from None


def _bool_of(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"{key}: expected true/false, got {raw!r}")


def _is_none(raw: str) -> bool:
    return raw.strip().lower() in ("", "none", "null")


def _int_tuple_of(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_int_of(key, tok.strip()) for tok in raw.split(",") if tok.strip())


def parse_value_list(text: str, what: str, integral: bool = False) -> list[float]:
    """Comma list or inclusive ``start:stop:step`` range."""
    text = text.strip()
    if not text:
        raise ValueError(f"{what}: empty list")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{what}: range syntax is start:stop:step, got {text!r}")
        start, stop, step = (_float_of(what, p) for p in parts)
        if step <= 0:
            raise ValueError(f"{what}: range step must be positive")
        if stop < start:
            raise ValueError(f"{what}: range stop must be >= start")
        values = []
        i = 0
        while True:
            value = round(start + i * step, 10)
            if value > stop + 1e-9:
                break
            values.append(value)
            i += 1
    else:
        values = [_float_of(what, tok.strip()) for tok in text.split(",") if tok.strip()]
        if not values:
            raise ValueError(f"{what}: empty list")
    if integral:
        bad = [v for v in values if v != int(v)]
        if bad:
            raise ValueError(f"{what}: expected integers, got {bad}")
    return values


def parse_config_file(path: str) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks are ignored."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def _read_config(path: str, keys: dict[str, str]) -> dict[str, str]:
    """A config file's entries; a key not in ``keys`` raises ValueError."""
    file_kv = parse_config_file(path)
    unknown = sorted(set(file_kv) - set(keys))
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)}")
    return file_kv


def _explicit_config(args: argparse.Namespace, keys: dict[str, str]) -> dict[str, str]:
    """The keys set on the command line: config-file entries, then flags."""
    kv = _read_config(args.config, keys) if getattr(args, "config", None) else {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            kv[key] = str(flag_value)
    return kv


def resolve_config(args: argparse.Namespace, defaults: dict[str, str]) -> dict[str, str]:
    """Defaults, then config-file entries, then explicit flags — per key."""
    return {**defaults, **_explicit_config(args, defaults)}


# ---------------------------------------------------------------------------
# config keys: the fields of TrainConfig and of its specs
# ---------------------------------------------------------------------------

# The groups of keys, in flag order: a spec's fields, or (None) TrainConfig's other fields.
_SPECS = {"data": DataSpec, None: TrainConfig, "schedule": ScheduleSpec, "tamper": TamperSpec}
_RENAMED = {("data", "kind"): "data", ("data", "seed"): "data_seed",
            ("schedule", "kind"): "schedule"}
_READERS = {"str": lambda key, raw: raw, "int": _int_of, "float": _float_of, "bool": _bool_of,
            "tuple[int, ...]": _int_tuple_of}
_GROUPS: dict[str | None, dict[str, Field]] = {
    spec: {_RENAMED.get((spec, f.name), f.name): f for f in fields(cls) if f.name not in _SPECS}
    for spec, cls in _SPECS.items()
}


def _read(key: str, f: Field, raw: str):
    """``raw`` read as the field's annotation says; an ``X | None`` field also takes none."""
    if f.type.endswith(" | None") and _is_none(raw):
        return None
    return _READERS[f.type.removesuffix(" | None")](key, raw)


def _text_of(value) -> str:
    """A default written the way ``_read`` reads it back."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value).lower() if value is None or isinstance(value, bool) else str(value)


_DEFAULT = TrainConfig()
_TRAIN_DEFAULTS = {
    key: _text_of(getattr(getattr(_DEFAULT, spec) if spec else _DEFAULT, f.name))
    for spec, keys in _GROUPS.items()
    for key, f in keys.items()
} | {"total_epochs": "none"}  # none -> same as epochs
_GRID_DEFAULTS = {**_TRAIN_DEFAULTS, "grid_alphas": "0.25,0.5,0.75,1.0", "grid_seeds": "0,1,2"}


def build_train_config(kv: dict[str, str]) -> TrainConfig:
    """Turn resolved key=value strings into a validated TrainConfig.

    Each spec is built as soon as its keys are read, every key whatever the
    data source; ``total_epochs = none`` follows ``epochs``.
    """
    built = {}
    for spec, keys in _GROUPS.items():
        values = {}
        for key, f in keys.items():
            raw = kv["epochs"] if key == "total_epochs" and _is_none(kv[key]) else kv[key]
            values[f.name] = _read(key, f, raw)
        built[spec] = values if spec is None else _SPECS[spec](**values)
    return TrainConfig(**built.pop(None), **built)


# ---------------------------------------------------------------------------
# run directories and manifests
# ---------------------------------------------------------------------------


def _output_root(args: argparse.Namespace) -> str:
    return args.out or os.environ.get("GRADTAMPER_OUT", "runs")


def _make_run_dir(root: str, subcommand: str) -> str:
    os.makedirs(root, exist_ok=True)
    for i in range(1000):
        candidate = os.path.join(root, f"{subcommand}-{i:03d}")
        try:
            os.mkdir(candidate)
        except FileExistsError:
            continue
        return candidate
    raise OSError(f"no free {subcommand}-NNN directory under {root}")


def write_manifest(path: str, subcommand: str, kv: dict[str, str]) -> None:
    lines = [
        f"# gradtamper {__version__} run manifest",
        f"# subcommand: {subcommand}",
        f"# reproduce with: gradtamper {subcommand} --config {os.path.basename(path)}",
    ]
    lines += [f"{key} = {kv[key]}" for key in sorted(kv)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_atomically(path: str, write) -> None:
    """Let ``write`` fill a temporary file beside ``path``, then rename it to
    ``path``, so a kill or a failed write leaves no partial file there."""
    tmp = path + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_train(args: argparse.Namespace) -> int:
    kv = resolve_config(args, _TRAIN_DEFAULTS)
    config = build_train_config(kv)
    datasets = datasets_for(config)  # a bad input or batch size leaves no run directory
    run_dir = _make_run_dir(_output_root(args), "train")
    write_manifest(os.path.join(run_dir, "manifest.cfg"), "train", kv)

    net, records = train(config, datasets)

    metrics_path = os.path.join(run_dir, "metrics.csv")
    _write_atomically(metrics_path, lambda tmp: write_metrics_csv(records, tmp))
    _write_atomically(os.path.join(run_dir, "net.ckpt"), lambda tmp: save_checkpoint(net, tmp))
    last = records[-1]
    print(f"run directory: {run_dir}")
    print(
        f"epoch {last.epoch}: train_loss={last.train_loss:.4f} "
        f"train_acc={last.train_acc:.4f} test_acc={last.test_acc:.4f} "
        f"gap={last.gap:+.4f} mean_logit_norm={last.mean_logit_norm:.4f}"
    )
    print(f"metrics: {metrics_path}")
    return 0


def _build_grid(kv: dict[str, str]) -> tuple[TrainConfig, list[float], list[int]]:
    alphas = parse_value_list(kv["grid_alphas"], "grid_alphas")
    seeds = [int(s) for s in parse_value_list(kv["grid_seeds"], "grid_seeds", integral=True)]
    config = build_train_config(kv)
    check_grid(alphas, seeds)
    return config, alphas, seeds


def _resume_grid(
    args: argparse.Namespace, manifest: str
) -> tuple[TrainConfig, list[float], list[int]]:
    """The resumed run's manifest, checked against every key set explicitly.

    A key conflicts when putting its value into the manifest changes the
    built sweep (the TrainConfig, alphas or seeds); a value that builds the
    same sweep, such as ``0.10`` for ``0.1``, is accepted.
    """
    if not os.path.exists(manifest):
        raise ValueError(f"--resume: no manifest.cfg in {os.path.dirname(manifest)}")
    kv = {**_GRID_DEFAULTS, **_read_config(manifest, _GRID_DEFAULTS)}
    built = _build_grid(kv)
    for key, value in _explicit_config(args, _GRID_DEFAULTS).items():
        if _build_grid({**kv, key: value}) != built:
            raise ValueError(
                f"--resume: {key} = {value} conflicts with {kv[key]!r} in {manifest}"
            )
    return built


def _cmd_grid(args: argparse.Namespace) -> int:
    datasets = None  # a resumed sweep loads its data only if a cell is left to train
    if args.resume:
        # The run's manifest is its configuration; it is read, never rewritten.
        csv_path = args.resume
        if not os.path.exists(csv_path):
            raise ValueError(f"--resume: {csv_path} does not exist")
        run_dir = os.path.dirname(os.path.abspath(csv_path))
        base, alphas, seeds = _resume_grid(args, os.path.join(run_dir, "manifest.cfg"))
    else:
        kv = resolve_config(args, _GRID_DEFAULTS)
        base, alphas, seeds = _build_grid(kv)
        datasets = datasets_for(base)  # a bad input or batch size leaves no run directory
        run_dir = _make_run_dir(_output_root(args), "grid")
        csv_path = os.path.join(run_dir, "grid.csv")
        write_manifest(os.path.join(run_dir, "manifest.cfg"), "grid", kv)

    rows = grid_search(base, alphas, seeds, csv_path, datasets)

    print(f"run directory: {run_dir}")
    ok = [r for r in rows if r.status == "ok"]
    for alpha in alphas:
        cell = [r for r in ok if r.alpha == alpha]
        if cell:
            print(
                f"alpha={alpha}: mean final train_acc "
                f"{np.mean([r.final_train_acc for r in cell]):.4f}, "
                f"test_acc {np.mean([r.final_test_acc for r in cell]):.4f}, "
                f"gap {np.mean([r.gap for r in cell]):+.4f} "
                f"({len(cell)} seeds)"
            )
        else:
            print(f"alpha={alpha}: no completed cells")
    diverged = len(rows) - len(ok)
    if diverged:
        print(f"{diverged} cell(s) diverged")
    print(f"grid csv: {csv_path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    alphas = parse_value_list(args.alphas, "--alphas")
    try:
        values = [float(tok) for tok in args.p.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--p: expected comma-separated numbers, got {args.p!r}") from None
    p = prob_vec(values)
    # Every row is computed before anything is printed or written: a bad
    # alpha anywhere in the list leaves no partial table.  At alpha = 1 the
    # transform is the identity and there is no threshold.
    rows = [
        (a, transform_probabilities(p, a), stationary_threshold(p, a) if a < 1.0 else None)
        for a in alphas
    ]

    print("alpha      threshold    transformed")
    for alpha, transformed, tau in rows:
        cell = "-" if tau is None else f"{tau:.9f}"
        print(f"{alpha:<10.4g} {cell:<12} " + " ".join(f"{v:.9f}" for v in transformed))
    if args.csv:
        lines = ["alpha,threshold," + ",".join(f"p{i}" for i in range(p.size))]
        for alpha, transformed, tau in rows:
            body = ",".join(repr(float(v)) for v in transformed)
            lines.append(f"{alpha!r},{'' if tau is None else repr(tau)},{body}")
        with open(args.csv, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    classes = [int(c) for c in parse_value_list(args.classes, "--classes", integral=True)]
    report = verify_claims(seed=args.seed, trials=args.trials, class_counts=tuple(classes))
    print(format_verify_report(report))
    return 0 if report.passed else 6


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------


def _add_config_flags(sub: argparse.ArgumentParser, keys: dict[str, str]) -> None:
    sub.add_argument("--config", metavar="FILE", help="key = value file overriding defaults")
    for key, default in keys.items():
        flag = "--" + key.replace("_", "-")
        sub.add_argument(flag, dest=key, metavar="V", default=None,
                         help=f"override config key {key} (default {default or repr('')})")


_OUT_HELP = "output root (default $GRADTAMPER_OUT or ./runs)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradtamper",
        description="Dense-net training with power-law gradient tampering, "
        "plus sweep, analysis, and verification tools.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_train = subs.add_parser("train", help="run one training job")
    _add_config_flags(p_train, _TRAIN_DEFAULTS)
    p_train.add_argument("--out", metavar="DIR", help=_OUT_HELP)

    p_grid = subs.add_parser("grid", help="sweep tampering strengths x seeds")
    _add_config_flags(p_grid, _GRID_DEFAULTS)
    p_grid.add_argument("--out", metavar="DIR", help=_OUT_HELP)
    p_grid.add_argument("--resume", metavar="CSV",
                        help="finish the sweep of an existing grid CSV, configured by the "
                        "manifest.cfg next to it; skips finished cells")

    p_an = subs.add_parser("analyze", help="tabulate the transform on one distribution")
    p_an.add_argument("--p", required=True, metavar="P0,P1,...", help="probability vector")
    p_an.add_argument("--alphas", default="0:1:0.1", metavar="LIST",
                      help="strengths: comma list or start:stop:step (default 0:1:0.1)")
    p_an.add_argument("--csv", metavar="FILE", help="also write rows to this CSV")

    p_ver = subs.add_parser("verify", help="check the analytic claims on random inputs")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=int, default=1000, help="random vectors per class count")
    p_ver.add_argument("--classes", default="2,10,100", metavar="LIST",
                       help="class counts to sample")

    return parser


_HANDLERS = {
    "train": _cmd_train,
    "grid": _cmd_grid,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
}


@functools.cache
def _pin_blas_threads() -> bool:
    """Run numpy's bundled OpenBLAS on one thread, once per process.

    A GEMM with 784 inputs rounds differently on two threads than on one, so
    the thread count is part of a run's bytes; grid workers forked later keep
    the one thread.  Returns False, leaving BLAS as it is, where numpy bundles
    no scipy-openblas library with a thread setter.
    """
    bundled = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(bundled, "libscipy_openblas64_*"))):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return True
    return False


def main(argv: list[str] | None = None) -> int:
    _pin_blas_threads()
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except ValueError as exc:
        # Bad keys or values, and the validation raised by the dataclasses themselves.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
