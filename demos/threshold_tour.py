"""
The stationary threshold as a function of alpha
===============================================

tau(alpha) = (sum_j p_j**alpha) ** (1/(alpha-1)) marks the crossover
probability: entries above it shrink under the power transform, entries
below it grow.  This script tabulates tau over a fine alpha grid for a few
distributions and confirms the two structural facts the analysis kit
checks at scale:

  * tau never decreases as alpha grows (it sweeps from 1/C up toward
    the largest entry), and
  * the entries at or below it rise under the transform and the others
    fall, entry by entry.

Run:  python3 demos/threshold_tour.py
"""

import numpy as np

from gradtamper.transform import (
    stationary_threshold,
    threshold_monotonicity_check,
    transform_probabilities,
)

rng = np.random.default_rng(12)

distributions = {
    "three-class": np.array([0.7, 0.2, 0.1]),
    "ten-class random": rng.dirichlet(np.ones(10)),
    "almost one-hot": np.array([0.94, 0.02, 0.02, 0.02]),
}

grid = np.round(np.arange(0.05, 0.99, 0.05), 10)

for name, p in distributions.items():
    rep = threshold_monotonicity_check(p, grid)
    print(f"\n=== {name} (C = {p.size}) ===")
    print("alpha   tau")
    for a, t in zip(rep.alphas[::4], rep.thresholds[::4]):  # every 4th row
        print(f"{a:5.2f}   {t:.6f}")
    print(
        f"monotone over the full {grid.size}-point grid: {rep.passed} "
        f"(min successive diff {rep.min_successive_diff:.2e})"
    )
    print(f"range: 1/C = {1 / p.size:.4f}  ->  max entry = {p.max():.4f}")

    alpha = 0.4
    rising = p <= stationary_threshold(p, alpha)
    moved = transform_probabilities(p, alpha) - p
    print(f"at alpha = {alpha}: rising {np.flatnonzero(rising).tolist()}, "
          f"falling {np.flatnonzero(~rising).tolist()}")
    assert np.all(moved[rising] >= 0.0) and np.all(moved[~rising] < 0.0)
    print("every entry moves to its side of the threshold")
