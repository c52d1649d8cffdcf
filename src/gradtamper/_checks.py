"""The package's one rule for counts (epochs, sizes, seeds, trials)."""

import numpy as np


def is_count(value) -> bool:
    """A Python or numpy integer, and never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
