"""
Grid sweeps that survive being killed
=====================================

The sweep writes one CSV row per (alpha, seed) cell.  The cells not yet in
the CSV train together in lockstep, in stacks of small nets, and each
stack's rows are appended and flushed when it finishes, so a crashed or
killed job loses at most the unfinished stack.  Re-running with the same
CSV path skips every finished cell and trains the rest.  This script
demonstrates the whole protocol in a scratch directory: run a small sweep,
throw away all but the first finished cell (as if the machine died),
resume, and verify the resumed file is byte-for-byte the file the
uninterrupted sweep produced.

Run:  python3 demos/grid_protocol.py
"""

import tempfile
from pathlib import Path

from gradtamper.harness import DataSpec, TrainConfig, grid_search, load_datasets
from gradtamper.schedule import ScheduleSpec

sched = ScheduleSpec(
    kind="warmup_cosine_cooldown",
    base_lr=1e-4, peak_lr=0.1,
    warmup_epochs=1, total_epochs=10, cooldown_epochs=2,
)
base = TrainConfig(
    hidden=(32,), epochs=10, batch_size=32, schedule=sched,
    data=DataSpec(per_class=50),
)
alphas = [0.25, 0.5, 1.0]
seeds = [0, 1]
datasets = load_datasets(base.data)

with tempfile.TemporaryDirectory() as scratch:
    csv = Path(scratch) / "grid.csv"

    print(f"sweeping {len(alphas)} alphas x {len(seeds)} seeds ...")
    rows = grid_search(base, alphas, seeds, csv, datasets)
    complete = csv.read_bytes()
    print(f"finished {len(rows)} cells; CSV is {len(complete)} bytes\n")

    print("alpha  seed  train_acc  test_acc  gap      |logits|  status")
    for r in rows:
        print(
            f"{r.alpha:5.2f}  {r.seed:4d}  {r.final_train_acc:9.3f}  "
            f"{r.final_test_acc:8.3f}  {r.gap:+.3f}  {r.mean_logit_norm:8.2f}  {r.status}"
        )

    # simulate a crash that left only the header and the first cell behind
    survivors = complete.decode().splitlines()[:2]
    csv.write_text("\n".join(survivors) + "\n")
    print(f"\n'crash': truncated the CSV to {len(survivors) - 1} finished cell")

    resumed = grid_search(base, alphas, seeds, csv, datasets)
    identical = csv.read_bytes() == complete
    print(f"resumed: {len(resumed)} rows; final CSV identical to the uninterrupted run: {identical}")
    assert identical
