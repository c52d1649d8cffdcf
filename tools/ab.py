"""Paired A/B runs of the benchmark: the working tree against a git revision.

Usage, from the root of the working tree: ``python3 tools/ab.py REV
[--workload W ...] [--pairs K] [--seed S] [--seconds T]``.  REV is unpacked
with ``git archive REV | tar -x`` into a fresh directory outside the working
tree, at a path exactly as long as the working tree's, since a checkout's
path length can move its heap layout.  For each workload (default: every one
that the working tree's ``BENCHMARK.json`` declares) it runs K pairs of each
tree's own ``bench/run.py --workload W --seed S --seconds T``, the first
side of a pair alternating between the two trees.

Per pair it prints each side's fastest repetition (the minimum of the
``walls`` that ``result.json`` records; the minimum of N repeats is steadier
than their median), their ratio (the working tree's over REV's, so below 1
is faster) and each side's minor page faults, counted over the run and its
workers (``RUSAGE_CHILDREN``).  Per workload it then prints the pairs the
working tree won, the median ratio and the ratios' quartiles, whether the
two sides' output digests (``result.json``) agree, and each side's median of
every end-to-end metric.
Exit status: 0, 1 when some workload's digests differ, 2 when a run fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import secrets
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def unpack(tree: Path, rev: str) -> Path:
    """REV of ``tree``'s repository, unpacked into a new directory whose
    absolute path is as long as ``tree``'s."""
    base = Path(tempfile.gettempdir()).resolve()
    room = len(str(tree)) - len(str(base)) - 1
    if room < 4:
        raise ValueError(f"{tree} is too short a path to mirror under {base}")
    while True:  # a random name of the length that is left, made atomically
        path = base / ("ab" + secrets.token_hex(room)[: room - 2])
        try:
            path.mkdir()
            break
        except FileExistsError:
            continue
    archive = subprocess.Popen(["git", "-C", str(tree), "archive", rev], stdout=subprocess.PIPE)
    extract = subprocess.run(["tar", "-x", "-C", str(path)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or extract.returncode:
        shutil.rmtree(path)
        raise ValueError(f"cannot unpack {rev!r} of {tree}")
    return path


def run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, float, int, list]:
    """One ``bench/run.py`` run in ``tree``: its end-to-end metrics by name,
    its fastest repetition's wall time, the minor faults of the run and its
    workers, and its output digests."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise RuntimeError(f"{workload} in {tree} failed (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    detail = tree / ".bench_work" / f"{workload}-seed{seed}-trace0" / "result.json"
    detail = json.loads(detail.read_text())
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, min(detail["walls"]), faults, detail["digests"]


def compare(tree: Path, other: Path, rev: str, workload: str, args) -> bool:
    """Print K pairs of one workload and their summary; True when the two
    trees' digests agree in every pair."""
    ratios, agree, runs = [], True, {tree: [], other: []}
    for pair in range(args.pairs):
        first = (other, tree) if pair % 2 else (tree, other)
        got = {path: run(path, workload, args.seed, args.seconds) for path in first}
        (metrics, wall, faults, digests), (rev_metrics, rev_wall, rev_faults, rev_digests) = (
            got[tree], got[other])
        runs[tree].append(metrics)
        runs[other].append(rev_metrics)
        ratios.append(wall / rev_wall)
        agree &= digests == rev_digests
        print(f"{workload} pair {pair + 1} ({'this tree' if first[0] == tree else rev} first): "
              f"min wall_s {wall:.4f} vs {rev_wall:.4f}, "
              f"ratio {ratios[-1]:.4f}; minor faults {faults} vs {rev_faults}", flush=True)
    won = sum(ratio < 1.0 for ratio in ratios)
    # Quartiles within the pairs' range; one pair is its own quartiles.
    q1, _, q3 = (statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1
                 else ratios * 3)
    print(f"{workload}: this tree won {won}/{len(ratios)} pairs against {rev}, median ratio "
          f"{statistics.median(ratios):.4f} (quartiles {q1:.4f} to {q3:.4f}), "
          f"digests {'agree' if agree else 'DIFFER'}")
    for name in runs[tree][0]:
        this, theirs = (statistics.median(m[name] for m in runs[path]) for path in (tree, other))
        print(f"{workload}: median {name} {this:.6g} vs {theirs:.6g}", flush=True)
    return agree


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--workload", action="append", help="a workload; may repeat")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    tree = Path.cwd().resolve()
    workloads = args.workload or [
        w["name"] for w in json.loads((tree / "BENCHMARK.json").read_text())["workloads"]
    ]
    try:
        other = unpack(tree, args.rev)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"this tree {tree}, {args.rev} unpacked at {other}", flush=True)
    # A kill by SIGTERM unwinds like Ctrl-C: the running side is stopped and
    # the unpacked tree removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        agree = [compare(tree, other, args.rev, w, args) for w in workloads]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(other, ignore_errors=True)
    return 0 if all(agree) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
