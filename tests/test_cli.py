"""End-to-end command-line behaviour: precedence, manifests, exit codes."""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gradtamper
import gradtamper.cli as cli
from gradtamper import __version__
from gradtamper.cli import main, parse_config_file, parse_value_list
from gradtamper.data import write_idx_images, write_idx_labels
from gradtamper.grid import GRID_HEADER
from gradtamper.harness import DataSpec, PropertyResult, TrainConfig, VerifyReport
from gradtamper.transform import stationary_threshold, transform_probabilities

TINY = [
    "--classes", "4", "--per-class", "20", "--features", "6",
    "--hidden", "16", "--epochs", "4", "--batch-size", "16",
    "--peak-lr", "0.05", "--warmup-epochs", "1", "--cooldown-epochs", "1",
]


# The README's logit-norm grid.
README_GRID = [
    "--hidden", "32", "--epochs", "12", "--warmup-epochs", "1", "--cooldown-epochs", "2",
    "--per-class", "60", "--grid-alphas", "0.25,1.0", "--grid-seeds", "0:4:1",
]


def manifest_text(subcommand, body):
    return (
        f"# gradtamper {__version__} run manifest\n# subcommand: {subcommand}\n"
        f"# reproduce with: gradtamper {subcommand} --config manifest.cfg\n{body}"
    )


# The key = value lines of the manifests written by a default ``train`` and by
# ``grid`` with README_GRID, byte for byte.
DEFAULT_TRAIN_KEYS = """\
activation = relu
alpha = 1.0
base_lr = 0.0001
batch_size = 32
classes = 10
clip_lambda = none
cooldown_epochs = 4
data = blobs
data_seed = 7
epochs = 30
features = 20
hidden = 64
label_smoothing = 0.0
momentum = 0.9
nesterov = true
peak_lr = 0.1
per_class = 100
schedule = warmup_cosine_cooldown
seed = 0
spread = 1.0
start_epoch = 0
step_factor = 0.1
step_milestones =\x20
test_images = none
test_labels = none
total_epochs = none
train_images = none
train_labels = none
warmup_epochs = 2
weight_decay = 0.0005
"""
README_GRID_KEYS = """\
activation = relu
alpha = 1.0
base_lr = 0.0001
batch_size = 32
classes = 10
clip_lambda = none
cooldown_epochs = 2
data = blobs
data_seed = 7
epochs = 12
features = 20
grid_alphas = 0.25,1.0
grid_seeds = 0:4:1
hidden = 32
label_smoothing = 0.0
momentum = 0.9
nesterov = true
peak_lr = 0.1
per_class = 60
schedule = warmup_cosine_cooldown
seed = 0
spread = 1.0
start_epoch = 0
step_factor = 0.1
step_milestones =\x20
test_images = none
test_labels = none
total_epochs = none
train_images = none
train_labels = none
warmup_epochs = 1
weight_decay = 0.0005
"""


def run_train(tmp_path, *extra):
    return main(["train", "--out", str(tmp_path), *TINY, *extra])


def cli_process(argv, prelude="", **env):
    """The CLI on ``argv`` in a fresh interpreter that first runs ``prelude``,
    with ``env`` added to the environment."""
    code = f"import os, sys\n{prelude}\nfrom gradtamper.cli import main\nsys.exit(main(sys.argv[1:]))"
    src = os.path.dirname(os.path.dirname(os.path.abspath(gradtamper.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": src, **env},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def alive(pid):
    """Whether process ``pid`` exists and is not a zombie (Linux /proc)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def idx_flags_with_one_unreadable(tmp_path, key, absent):
    """Flags naming four tiny IDX files, ``key``'s replaced by a path that is
    missing or a directory; returns the flags and that path."""
    rng = np.random.default_rng(0)
    paths = {}
    for split in ("train", "test"):
        paths[f"{split}_images"] = tmp_path / f"{split}-images.idx"
        paths[f"{split}_labels"] = tmp_path / f"{split}-labels.idx"
        write_idx_images(paths[f"{split}_images"], rng.integers(0, 256, (6, 2, 2)))
        write_idx_labels(paths[f"{split}_labels"], np.arange(6) % 2)
    paths[key] = tmp_path / "absent"
    if absent == "dir":
        paths[key].mkdir()
    flags = [arg for k, v in paths.items() for arg in ("--" + k.replace("_", "-"), str(v))]
    return flags, str(paths[key])


def one_class_idx_flags(tmp_path):
    """Flags naming four tiny IDX files whose labels are all 0, and the two
    label files' paths."""
    flags, label_paths = [], []
    for split in ("train", "test"):
        images, labels = tmp_path / f"{split}-images.idx", tmp_path / f"{split}-labels.idx"
        write_idx_images(images, np.zeros((20, 2, 2), dtype=np.uint8))
        write_idx_labels(labels, np.zeros(20, dtype=np.uint8))
        flags += [f"--{split}-images", str(images), f"--{split}-labels", str(labels)]
        label_paths.append(str(labels))
    return flags, label_paths


def assert_one_class_rejected(err, label_paths, out):
    """A one-class dataset is named, with both label files, before any run directory."""
    assert err.startswith("error: need at least 2 classes, got 1")
    assert all(path in err for path in label_paths)
    assert list(out.glob("*-[0-9][0-9][0-9]")) == []


class TestValueLists:
    def test_range_is_inclusive(self):
        assert parse_value_list("0:1:0.25", "x") == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert parse_value_list("0:1:0.1", "x")[-1] == 1.0  # no float drift at the stop

    def test_comma_list(self):
        assert parse_value_list("0.3, 1.0", "x") == [0.3, 1.0]
        assert parse_value_list("0,1,2", "x", integral=True) == [0, 1, 2]

    def test_rejections(self):
        for bad, integral in [
            ("", False), ("1:0:0.1", False), ("0:1:0", False),
            ("1:2", False), ("a,b", False), ("0.5,1", True),
        ]:
            with pytest.raises(ValueError):
                parse_value_list(bad, "x", integral=integral)


class TestConfigFiles:
    def test_parse_key_value_with_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\nseed = 3\n\nepochs=7 \n")
        assert parse_config_file(p) == {"seed": "3", "epochs": "7"}

    def test_malformed_line_names_lineno(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 3\nnot a pair\n")
        with pytest.raises(ValueError, match=r"c\.cfg:2"):
            parse_config_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            parse_config_file(tmp_path / "absent.cfg")


class TestBuildConfig:
    def test_train_defaults_build_the_library_defaults(self):
        # The CLI's default table and TrainConfig's defaults must not drift apart.
        assert cli.build_train_config(dict(cli._TRAIN_DEFAULTS)) == TrainConfig()

    def test_grid_defaults_hold_every_train_key(self):
        assert cli._TRAIN_DEFAULTS.items() <= cli._GRID_DEFAULTS.items()

    def test_default_train_manifest_is_pinned(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path)]) == 0
        written = (tmp_path / "train-000" / "manifest.cfg").read_text()
        assert written == manifest_text("train", DEFAULT_TRAIN_KEYS)
        capsys.readouterr()

    def test_readme_grid_manifest_is_pinned(self, tmp_path, capsys):
        assert main(["grid", "--out", str(tmp_path), *README_GRID]) == 0
        written = (tmp_path / "grid-000" / "manifest.cfg").read_text()
        assert written == manifest_text("grid", README_GRID_KEYS)
        capsys.readouterr()


class TestTrainCommand:
    def test_writes_manifest_metrics_checkpoint(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        run = tmp_path / "train-000"
        for name in ("manifest.cfg", "metrics.csv", "net.ckpt"):
            assert (run / name).is_file()
        out = capsys.readouterr().out
        assert f"run directory: {run}" in out
        assert "train_acc=" in out

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys):
        def half_write(net, path):
            with open(path, "wb") as fh:
                fh.write(b"DNET")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "save_checkpoint", half_write)
        assert run_train(tmp_path) == 4
        run = tmp_path / "train-000"
        assert sorted(p.name for p in run.iterdir()) == ["manifest.cfg", "metrics.csv"]
        assert "disk full" in capsys.readouterr().err

    def test_manifest_reproduces_run_exactly(self, tmp_path, capsys):
        assert run_train(tmp_path) == 0
        manifest = tmp_path / "train-000" / "manifest.cfg"
        assert main(["train", "--out", str(tmp_path), "--config", str(manifest)]) == 0
        first = (tmp_path / "train-000" / "metrics.csv").read_bytes()
        second = (tmp_path / "train-001" / "metrics.csv").read_bytes()
        assert first == second
        capsys.readouterr()  # swallow the run summaries

    def test_flag_beats_file_beats_default(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3\nmomentum = 0.5\n")
        assert run_train(tmp_path, "--config", str(cfg), "--seed", "5") == 0
        kv = parse_config_file(tmp_path / "train-000" / "manifest.cfg")
        assert kv["seed"] == "5"  # flag wins
        assert kv["momentum"] == "0.5"  # file beats default
        assert kv["weight_decay"] == "0.0005"  # untouched default
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("learning_rate = 0.1\n")
        assert run_train(tmp_path, "--config", str(cfg)) == 3
        assert "unknown config keys: learning_rate" in capsys.readouterr().err

    def test_invalid_values_exit_3(self, tmp_path, capsys):
        assert run_train(tmp_path, "--momentum", "2.0") == 3
        assert run_train(tmp_path, "--epochs", "abc") == 3
        err = capsys.readouterr().err
        assert "momentum" in err and "epochs" in err

    def test_idx_without_paths_names_every_key(self, tmp_path, capsys):
        assert run_train(tmp_path, "--data", "idx") == 3
        err = capsys.readouterr().err
        for key in ("train_images", "train_labels", "test_images", "test_labels"):
            assert key in err
        assert not (tmp_path / "train-000").exists()

    @pytest.mark.parametrize(
        "key, absent", [(k, "missing") for k in DataSpec.IDX_PATHS] + [("test_labels", "dir")]
    )
    def test_unreadable_idx_input_exits_3(self, tmp_path, capsys, key, absent):
        # Exit 4 means an output could not be written; a bad input is a bad value.
        flags, bad = idx_flags_with_one_unreadable(tmp_path, key, absent)
        assert run_train(tmp_path / "out", "--data", "idx", *flags) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read IDX file") and bad in err
        # The data is read before the run directory is made.
        assert list((tmp_path / "out").glob("*-[0-9][0-9][0-9]")) == []

    def test_one_class_idx_labels_exit_3(self, tmp_path, capsys):
        flags, label_paths = one_class_idx_flags(tmp_path)
        assert run_train(tmp_path / "out", "--data", "idx", *flags) == 3
        assert_one_class_rejected(capsys.readouterr().err, label_paths, tmp_path / "out")

    def test_divergence_exit_5(self, tmp_path, capsys):
        code = run_train(
            tmp_path, "--schedule", "step", "--warmup-epochs", "0",
            "--cooldown-epochs", "0", "--base-lr", "1e150", "--peak-lr", "1e150",
        )
        assert code == 5
        assert "non-finite logits" in capsys.readouterr().err

    def test_unwritable_out_exit_4(self, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("")
        assert run_train(tmp_path / "afile") == 4
        assert "error:" in capsys.readouterr().err

    def test_run_dirs_increment(self, tmp_path, capsys):
        run_train(tmp_path)
        run_train(tmp_path)
        assert (tmp_path / "train-000").is_dir() and (tmp_path / "train-001").is_dir()
        capsys.readouterr()

    def test_out_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GRADTAMPER_OUT", str(tmp_path / "envroot"))
        assert main(["train", *TINY]) == 0
        assert (tmp_path / "envroot" / "train-000" / "metrics.csv").is_file()
        # explicit --out still wins over the environment
        assert run_train(tmp_path / "flagroot") == 0
        assert (tmp_path / "flagroot" / "train-000").is_dir()
        capsys.readouterr()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-subcommand"])
        assert exc.value.code == 2


class TestGridCommand:
    GRID_ARGS = ["--grid-alphas", "0.5,1.0", "--grid-seeds", "0"]

    def test_grid_writes_csv_and_summary(self, tmp_path, capsys):
        code = main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS])
        assert code == 0
        csv = tmp_path / "grid-000" / "grid.csv"
        lines = csv.read_text().splitlines()
        assert lines[0] == GRID_HEADER
        assert len(lines) == 3
        out = capsys.readouterr().out
        assert "alpha=0.5: mean final train_acc" in out
        assert "alpha=1.0:" in out
        assert multiprocessing.active_children() == []

    def test_resume_skips_finished_cells(self, tmp_path, capsys):
        assert main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS]) == 0
        csv = tmp_path / "grid-000" / "grid.csv"
        complete = csv.read_bytes()
        lines = complete.decode().splitlines()
        csv.write_text("\n".join(lines[:2]) + "\n")
        code = main(["grid", "--resume", str(csv), *TINY, *self.GRID_ARGS])
        assert code == 0
        assert csv.read_bytes() == complete
        capsys.readouterr()

    @pytest.mark.parametrize("cut", [7, 2], ids=["mid-row", "in-status"])
    def test_resume_after_a_cut_row(self, tmp_path, capsys, cut):
        # A sweep killed while writing its last row leaves it without a
        # newline: cut inside the numbers or inside the "ok" status.
        assert main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS]) == 0
        csv = tmp_path / "grid-000" / "grid.csv"
        complete = csv.read_bytes()
        csv.write_bytes(complete[:-cut])
        code = main(["grid", "--resume", str(csv), *TINY, *self.GRID_ARGS])
        assert code == 0, capsys.readouterr().err
        assert csv.read_bytes() == complete
        capsys.readouterr()

    def test_bare_resume_takes_the_manifest(self, tmp_path, capsys):
        # No flags at all: the sweep is the one the manifest records, not
        # the built-in defaults.
        assert main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS]) == 0
        run = tmp_path / "grid-000"
        csv, manifest = run / "grid.csv", run / "manifest.cfg"
        complete, recorded = csv.read_bytes(), manifest.read_bytes()
        csv.write_text("\n".join(complete.decode().splitlines()[:2]) + "\n")
        assert main(["grid", "--resume", str(csv)]) == 0, capsys.readouterr().err
        assert csv.read_bytes() == complete
        assert manifest.read_bytes() == recorded
        capsys.readouterr()

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_resume_rejects_a_conflicting_key(self, tmp_path, capsys, how):
        assert main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS]) == 0
        run = tmp_path / "grid-000"
        csv, manifest = run / "grid.csv", run / "manifest.cfg"
        csv.write_text("\n".join(csv.read_text().splitlines()[:2]) + "\n")
        before = csv.read_bytes(), manifest.read_bytes()
        cfg = tmp_path / "c.cfg"
        cfg.write_text("momentum = 0.5\n")
        key, extra = {
            "flag": ("hidden", ["--hidden", "8"]),
            "config": ("momentum", ["--config", str(cfg)]),
        }[how]
        capsys.readouterr()
        # The TINY flags match the manifest, and --peak-lr 0.050 builds its
        # 0.05: those are accepted; only the conflicting key is named.
        code = main(["grid", "--resume", str(csv), *TINY, "--peak-lr", "0.050", *extra])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{key} = " in err and "peak_lr" not in err
        assert (csv.read_bytes(), manifest.read_bytes()) == before

    def test_resume_accepts_a_pinned_grid_manifest(self, tmp_path, capsys):
        # A manifest as written before the keys were derived from TrainConfig
        # still configures the resumed sweep; the result is the fresh run's.
        assert main(["grid", "--out", str(tmp_path), *README_GRID]) == 0
        run = tmp_path / "grid-000"
        csv = run / "grid.csv"
        complete = csv.read_bytes()
        csv.write_text("\n".join(complete.decode().splitlines()[:4]) + "\n")
        (run / "manifest.cfg").write_text(manifest_text("grid", README_GRID_KEYS))
        assert main(["grid", "--resume", str(csv)]) == 0, capsys.readouterr().err
        assert csv.read_bytes() == complete
        capsys.readouterr()

    @pytest.mark.parametrize(
        "axes",
        [["--grid-alphas", "2"], ["--grid-seeds", "-1"], ["--grid-alphas", "1,1.0"],
         ["--grid-seeds", "0,1,0"]],
        ids=["alpha-out-of-range", "negative-seed", "repeated-alpha", "repeated-seed"],
    )
    def test_rejected_sweep_exits_3_before_the_run_dir(self, tmp_path, capsys, axes):
        assert main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS, *axes]) == 3
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.glob("grid-*")) == []

    @pytest.mark.parametrize("key, absent", [("train_images", "missing"), ("test_labels", "dir")])
    def test_unreadable_idx_input_exits_3(self, tmp_path, capsys, key, absent):
        flags, bad = idx_flags_with_one_unreadable(tmp_path, key, absent)
        out = tmp_path / "out"
        argv = ["grid", "--out", str(out), *TINY, *self.GRID_ARGS, "--data", "idx", *flags]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read IDX file") and bad in err
        assert list(out.glob("*-[0-9][0-9][0-9]")) == []

    def test_one_class_idx_labels_exit_3(self, tmp_path, capsys):
        flags, label_paths = one_class_idx_flags(tmp_path)
        out = tmp_path / "out"
        argv = ["grid", "--out", str(out), *TINY, *self.GRID_ARGS, "--data", "idx", *flags]
        assert main(argv) == 3
        assert_one_class_rejected(capsys.readouterr().err, label_paths, out)

    def test_resume_needs_the_manifest(self, tmp_path, capsys):
        assert main(["grid", "--out", str(tmp_path), *TINY, *self.GRID_ARGS]) == 0
        run = tmp_path / "grid-000"
        (run / "manifest.cfg").unlink()
        before = (run / "grid.csv").read_bytes()
        capsys.readouterr()
        assert main(["grid", "--resume", str(run / "grid.csv"), *TINY, *self.GRID_ARGS]) == 3
        assert "manifest.cfg" in capsys.readouterr().err
        assert (run / "grid.csv").read_bytes() == before
        assert not (run / "manifest.cfg").exists()

    def test_resume_missing_csv(self, tmp_path, capsys):
        code = main(["grid", "--resume", str(tmp_path / "nope.csv"), *TINY])
        assert code == 3
        assert "--resume" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_table_marks_identity_threshold(self, capsys):
        assert main(["analyze", "--p", "0.7,0.2,0.1", "--alphas", "0.5,1.0"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["alpha", "threshold", "transformed"]
        tau = stationary_threshold([0.7, 0.2, 0.1], 0.5)
        assert f"{tau:.9f}" in lines[1]
        assert lines[2].split()[1] == "-"

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code = main(["analyze", "--p", "0.5,0.5", "--alphas", "0:1:0.5", "--csv", str(target)])
        assert code == 0
        assert target.read_text().splitlines()[0] == "alpha,threshold,p0,p1"
        assert f"wrote {target}" in capsys.readouterr().out

    def test_csv_values_match_transform_and_threshold(self, tmp_path, capsys):
        p = np.array([0.7, 0.2, 0.1])
        target = tmp_path / "rows.csv"
        args = ["analyze", "--p", "0.7,0.2,0.1", "--alphas", "0,0.25,0.5", "--csv", str(target)]
        assert main(args) == 0
        capsys.readouterr()
        lines = target.read_text().splitlines()
        assert lines[0] == "alpha,threshold,p0,p1,p2"
        for alpha, line in zip([0.0, 0.25, 0.5], lines[1:], strict=True):
            fields = [float(f) for f in line.split(",")]
            assert fields[0] == alpha
            assert fields[1] == stationary_threshold(p, alpha)  # bit for bit: repr round-trips
            assert fields[2:] == transform_probabilities(p, alpha).tolist()

    def test_identity_row_leaves_threshold_blank(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        args = ["analyze", "--p", "0.7,0.2,0.1", "--alphas", "0.5,1", "--csv", str(target)]
        assert main(args) == 0
        capsys.readouterr()
        assert target.read_text().splitlines()[2] == "1.0,,0.7,0.2,0.1"

    def test_bad_inputs_exit_3(self, capsys):
        assert main(["analyze", "--p", "a,b"]) == 3
        assert main(["analyze", "--p", "0.7,0.4"]) == 3  # not a distribution
        assert main(["analyze", "--p", "0.5,0.5", "--alphas", "0:1:0"]) == 3
        assert capsys.readouterr().err.count("error:") == 3

    @pytest.mark.parametrize("alphas", ["0.5,1.5", "1.5,0.5", "0.2,0.4,nan"])
    def test_bad_alpha_anywhere_prints_nothing(self, tmp_path, capsys, alphas):
        target = tmp_path / "rows.csv"
        assert main(["analyze", "--p", "0.7,0.3", "--alphas", alphas, "--csv", str(target)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: alpha must")
        assert not target.exists()


class TestVerifyCommand:
    def test_small_verify_passes(self, capsys):
        assert main(["verify", "--trials", "5", "--classes", "3"]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_failing_report_exits_6(self, monkeypatch, capsys):
        failing = VerifyReport(
            seed=0,
            trials=1,
            class_counts=(2,),
            properties=[
                PropertyResult(
                    name="normalization", metric="max |sum - 1|", kind="max",
                    tolerance=1e-12, observed=0.5, samples=1, failures=1,
                )
            ],
        )
        monkeypatch.setattr(cli, "verify_claims", lambda **kw: failing)
        assert main(["verify"]) == 6
        out = capsys.readouterr().out
        assert "FAIL normalization" in out
        assert "overall: FAIL" in out

    def test_bad_classes_exit_3(self, capsys):
        assert main(["verify", "--classes", "1,5"]) == 3
        assert "class_counts" in capsys.readouterr().err


class TestProcessIndependence:
    """A run's bytes depend neither on BLAS threads nor on the CPUs it may use."""

    def test_blas_thread_count_leaves_the_bytes(self, tmp_path):
        # Unpinned, the 784-input layer's GEMM rounds differently on two threads.
        argv = ["train", "--features", "784", "--hidden", "256", "--per-class", "10",
                "--epochs", "1", "--warmup-epochs", "0", "--cooldown-epochs", "0",
                "--clip-lambda", "1.0"]
        for threads in ("1", "2"):
            out = str(tmp_path / threads)
            proc = cli_process([*argv, "--out", out], OPENBLAS_NUM_THREADS=threads)
            assert proc.wait(timeout=120) == 0
        for name in ("net.ckpt", "metrics.csv"):
            one, two = (tmp_path / t / "train-000" / name for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), name

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_grid_on_one_cpu_writes_the_bytes_of_every_cpu(self, tmp_path):
        argv = ["grid", *TINY, "--grid-alphas", "0.5,1.0", "--grid-seeds", "0,1"]
        one_cpu = "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"
        assert cli_process([*argv, "--out", str(tmp_path / "one")], one_cpu).wait(timeout=120) == 0
        assert cli_process([*argv, "--out", str(tmp_path / "all")]).wait(timeout=120) == 0
        one, every = (tmp_path / d / "grid-000" / "grid.csv" for d in ("one", "all"))
        assert one.read_bytes() == every.read_bytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="workers die with their parent on Linux")
    def test_killed_grid_leaves_no_worker(self, tmp_path):
        # Two workers whatever the CPUs, on a grid that runs for seconds.
        two = "import gradtamper.grid as g\ng._grid_workers = lambda: 2"
        argv = ["grid", "--per-class", "400", "--grid-seeds", "0:7:1", "--out", str(tmp_path)]
        proc = cli_process(argv, two)
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and time.monotonic() < deadline and proc.poll() is None:
                workers = children.read_text().split()
                time.sleep(0.01)
        finally:
            proc.kill()
            proc.wait(timeout=10)
        assert len(workers) == 2
        deadline = time.monotonic() + 10
        while any(alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(alive(pid) for pid in workers)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("gradtamper ")
