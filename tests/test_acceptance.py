"""Shipping checklist: every release criterion, one verdict line apiece.

Each test measures everything first and asserts once at the end, so a run
always prints one ``criterion N (...): PASS/FAIL`` line per item (visible
with ``pytest -s`` or in the failure output).  Tolerances and runtime
budgets are pinned in the asserts; the two qualitative items (logit-norm
trend, smoothing/gap direction) are reported in the line but do not fail
the run — they are observations, not guarantees, at this scale.
"""

import time

import numpy as np
import pytest

from gradtamper.data import IdxFormatError, read_idx_images, read_idx_labels, write_idx_images
from gradtamper.grid import grid_search
from gradtamper.harness import (
    DataSpec,
    TrainConfig,
    load_datasets,
    train,
    verify_claims,
    write_metrics_csv,
    METRICS_HEADER,
)
from gradtamper.schedule import ScheduleSpec
from gradtamper.transform import TamperSpec, power_transform_rows, threshold_monotonicity_check
from helpers import analytic_param_grad, fd_param_grad, kink_free_case, max_rel_err

CLASS_COUNTS = (2, 10, 100)
N_VECTORS = 1000


def _verdict(num, label, ok, detail):
    line = f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def verified():
    """One ``verify_claims`` report's properties by name, and the call's wall time."""
    t0 = time.perf_counter()
    report = verify_claims(seed=2024, trials=N_VECTORS, class_counts=CLASS_COUNTS)
    return {p.name: p for p in report.properties}, time.perf_counter() - t0


@pytest.fixture(scope="module")
def simplex_bank():
    rng = np.random.default_rng(2024)
    return {c: rng.dirichlet(np.ones(c), size=N_VECTORS) for c in CLASS_COUNTS}


@pytest.fixture(scope="module")
def desk_data():
    return load_datasets(DataSpec())  # 10 classes x 100 points, seeded


def test_c01_transform_correctness(verified):
    props, dt = verified
    norm, ident, uniform = (props[name].observed for name in (
        "normalization", "identity-at-alpha-1", "uniform-at-alpha-0"))
    order = props["order-preservation"]
    ok = norm < 1e-12 and ident < 1e-15 and uniform == 0.0 and order.observed == 0.0 and dt < 5.0
    _verdict(
        1, "transform correctness", ok,
        f"max |sum-1| {norm:.2e} (<1e-12), max alpha=1 drift {ident:.2e} (<1e-15), alpha=0 "
        f"exactly uniform: {uniform == 0.0}, order flips {order.failures}/{order.samples}, "
        f"verify {dt:.2f}s (<5s)",
    )


def test_c02_threshold_bisection(simplex_bank):
    # Exact signs with no dead-band, stricter than verify's threshold-sign-agreement.
    t0 = time.perf_counter()
    alphas = np.round(np.arange(0.0, 0.95, 0.1), 10)  # [0, 1) grid
    disagreements = entries = 0
    for bank in simplex_bank.values():
        taus = threshold_monotonicity_check(bank, alphas).thresholds.T[:, :, None]
        moved = np.stack([power_transform_rows(bank, alpha) for alpha in alphas]) - bank
        disagreements += int(np.count_nonzero(np.sign(moved) != np.sign(taus - bank)))
        entries += moved.size
    dt = time.perf_counter() - t0
    ok = disagreements == 0 and dt < 5.0
    _verdict(
        2, "threshold bisection", ok,
        f"sign(p'-p) == sign(tau-p) on {entries} entries, {disagreements} disagreements, "
        f"{dt:.2f}s (<5s)",
    )


def test_c03_threshold_monotone_in_alpha(verified):
    mono, dt = verified[0]["threshold-monotonicity"], verified[1]
    ok = mono.failures == 0 and mono.observed >= -1e-10 and dt < 10.0
    _verdict(
        3, "threshold monotonicity", ok,
        f"{mono.samples} distributions x alpha grid 0, 0.01, ..., 0.99, min successive diff "
        f"{mono.observed:.3e} (>=-1e-10), {mono.failures} failures, verify {dt:.2f}s (<10s)",
    )


def test_c04_temperature_equivalence(verified):
    equiv = verified[0]["temperature-equivalence"]
    _verdict(
        4, "temperature equivalence", equiv.observed < 1e-10,
        f"max |transform(softmax(z)) - softmax(alpha z)| = {equiv.observed:.2e} (<1e-10) "
        f"over {equiv.samples} (logit vector, alpha) pairs, {len(CLASS_COUNTS)} widths",
    )


def test_c05_gradient_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_plain = 0.0
    worst_tampered = 0.0
    n_params = 0
    # relative error on parameter gradients is floored at 1e-3: central
    # differences with step 1e-5 carry ~1e-11 of cancellation noise, so below
    # the floor the comparison is absolute at 1e-9 (well above the noise,
    # well below any gradient that matters)
    for sizes in ([7, 9, 5], [7, 9, 8, 5], [7, 10, 8, 6, 5]):
        net, x, y = kink_free_case(rng, sizes, "relu", batch=5)
        fd = fd_param_grad(net, x, y, h=1e-5)
        n_params += fd.size
        worst_plain = max(worst_plain, max_rel_err(analytic_param_grad(net, x, y), fd, floor=1e-3))
        for alpha in (0.3, 0.5):
            fd_s = fd_param_grad(net, x, y, alpha=alpha, h=1e-5)
            an_s = analytic_param_grad(net, x, y, alpha=alpha)
            worst_tampered = max(worst_tampered, max_rel_err(an_s, fd_s, floor=1e-3))
    dt = time.perf_counter() - t0
    ok = worst_plain < 1e-6 and worst_tampered < 1e-6 and dt < 30.0
    _verdict(
        5, "gradient oracles", ok,
        f"backprop vs central differences (step 1e-5) over depths 1-3, {n_params} params: "
        f"plain {worst_plain:.2e}, tampered-surrogate {worst_tampered:.2e} (<1e-6), "
        f"{dt:.2f}s (<30s)",
    )


def test_c06_desk_training_sanity(desk_data):
    t0 = time.perf_counter()
    _, base = train(TrainConfig(tamper=TamperSpec(1.0)), desk_data)
    _, tampered = train(TrainConfig(tamper=TamperSpec(0.3)), desk_data)
    dt = time.perf_counter() - t0
    acc1, acc03 = base[-1].train_acc, tampered[-1].train_acc
    ok = acc1 >= 0.95 and acc03 >= 0.90 and dt < 60.0
    _verdict(
        6, "desk training sanity", ok,
        f"30-epoch runs on 1000-point blobs: train_acc {acc1:.3f} at alpha=1 (>=0.95), "
        f"{acc03:.3f} at alpha=0.3 (>=0.90), {dt:.1f}s (<60s)",
    )


def test_c07_logit_norm_trend(tmp_path):
    # The sweep of `gradtamper grid --hidden 32 --epochs 12 --warmup-epochs 1
    # --cooldown-epochs 2 --per-class 60 --grid-alphas 0.25,1.0 --grid-seeds 0:4:1`.
    schedule = ScheduleSpec(
        kind="warmup_cosine_cooldown", base_lr=1e-4, peak_lr=0.1,
        warmup_epochs=1, total_epochs=12, cooldown_epochs=2,
    )
    base = TrainConfig(hidden=(32,), epochs=12, schedule=schedule, data=DataSpec(per_class=60))
    alphas, seeds = (0.25, 1.0), range(5)
    rows = grid_search(base, list(alphas), list(seeds), str(tmp_path / "grid.csv"))
    norm = {a: float(np.mean([r.mean_logit_norm for r in rows if r.alpha == a])) for a in alphas}
    ok = len(rows) == len(alphas) * len(seeds) and all(r.status == "ok" for r in rows)
    note = "holds" if norm[0.25] > norm[1.0] else "DOES NOT HOLD (flagged, non-blocking)"
    _verdict(
        7, "logit-norm trend", ok,
        f"mean final norm {norm[0.25]:.1f} at alpha=0.25 vs {norm[1.0]:.1f} at alpha=1.0 "
        f"over {len(seeds)} seeds -> {note}; from grid_search",
    )


def test_c08_smoothing_ablation(desk_data, tmp_path):
    gaps = {}
    header_ok = True
    for alpha, eps in [(0.3, 0.1), (1.0, 0.1), (0.3, 0.0)]:
        _, recs = train(
            TrainConfig(tamper=TamperSpec(alpha), label_smoothing=eps), desk_data
        )
        path = tmp_path / f"a{alpha}_e{eps}.csv"
        write_metrics_csv(recs, path)
        header_ok &= path.read_text().splitlines()[0] == METRICS_HEADER and "gap" in METRICS_HEADER
        gaps[(alpha, eps)] = recs[-1].gap
    moved = gaps[(0.3, 0.1)] - gaps[(0.3, 0.0)]
    ok = header_ok and len(gaps) == 3
    _verdict(
        8, "smoothing ablation", ok,
        f"(alpha,eps) runs completed with gap column; at alpha=0.3 smoothing moves the "
        f"gap {gaps[(0.3, 0.0)]:+.3f} -> {gaps[(0.3, 0.1)]:+.3f} "
        f"({'reduced' if moved < 0 else 'not reduced'}; directional only, not asserted)",
    )


def test_c09_determinism_and_resume(tmp_path):
    sched = ScheduleSpec(
        kind="warmup_cosine_cooldown", base_lr=1e-4, peak_lr=0.1,
        warmup_epochs=1, total_epochs=8, cooldown_epochs=2,
    )
    cfg = TrainConfig(
        hidden=(24,), epochs=8, batch_size=16, schedule=sched,
        tamper=TamperSpec(0.5), data=DataSpec(per_class=30),
    )
    blobs = load_datasets(cfg.data)
    pair = []
    for name in ("one.csv", "two.csv"):
        _, recs = train(cfg, blobs)
        write_metrics_csv(recs, tmp_path / name)
        pair.append((tmp_path / name).read_bytes())
    rerun_identical = pair[0] == pair[1]

    full = tmp_path / "grid.csv"
    grid_search(cfg, [0.4, 1.0], [0], full, blobs)
    complete = full.read_bytes()
    lines = complete.decode().splitlines()
    full.write_text("\n".join(lines[:2]) + "\n")  # keep header + first cell
    grid_search(cfg, [0.4, 1.0], [0], full, blobs)
    resume_identical = full.read_bytes() == complete

    ok = rerun_identical and resume_identical
    _verdict(
        9, "determinism and resume", ok,
        f"rerun metrics CSV bit-identical: {rerun_identical}; interrupted grid resumes "
        f"to identical CSV: {resume_identical}",
    )


def test_c10_idx_round_trip(tmp_path):
    images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
    golden = (
        b"\x00\x00\x08\x03"
        b"\x00\x00\x00\x02\x00\x00\x00\x02\x00\x00\x00\x02"
        b"\x00\x01\x02\x03\x04\x05\x06\x07"
    )
    p = tmp_path / "img.idx"
    write_idx_images(p, images)
    bytes_ok = p.read_bytes() == golden
    read_ok = np.array_equal(read_idx_images(p), images)

    bad_magic = tmp_path / "bad.idx"
    bad_magic.write_bytes(b"\x00\x00\x08\x01" + golden[4:])
    try:
        read_idx_images(bad_magic)
        magic_ok = False
    except IdxFormatError as exc:
        magic_ok = "bad magic 0x00000801 at byte 0" in str(exc)

    short = tmp_path / "short.idx"
    short.write_bytes(golden[:10])
    try:
        read_idx_images(short)
        trunc_ok = False
    except IdxFormatError as exc:
        trunc_ok = "need 16 header bytes, file has 10" in str(exc)

    labels = tmp_path / "lab.idx"
    labels.write_bytes(b"\x00\x00\x08\x01\x00\x00\x00\x03" + b"\x00\x01")
    try:
        read_idx_labels(labels)
        payload_ok = False
    except IdxFormatError as exc:
        payload_ok = "holds 2 bytes, header promises 3" in str(exc)

    ok = bytes_ok and read_ok and magic_ok and trunc_ok and payload_ok
    _verdict(
        10, "idx round trip", ok,
        f"byte-exact round trip: {bytes_ok and read_ok}; bad-magic, truncation and "
        f"payload-size errors carry byte offsets: {magic_ok and trunc_ok and payload_ok}",
    )
