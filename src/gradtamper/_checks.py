"""The package's one rule for numeric settings: counts (epochs, sizes, seeds,
trials) and reals (rates, strengths, bounds).  A setting that breaks it raises
ValueError naming the setting and what it must be."""

import numpy as np

_REALS = (int, float, np.integer, np.floating)


def is_count(value) -> bool:
    """A Python or numpy integer, and never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is a count of at least ``least``."""
    if not (is_count(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value, low, high, ends: str = "[)"):
    """``value``, a Python or numpy int or float (never a bool) inside the
    interval from ``low`` to ``high``, whose ends ``ends`` writes as brackets:
    ``[`` or ``]`` includes an end, ``(`` or ``)`` leaves it out.  A non-empty
    numpy array of ints or floats (one setting per cell) must have its min and
    max inside.  Else ValueError; NaN lies in no interval."""
    cells = isinstance(value, np.ndarray) and value.size > 0 and value.dtype.kind in "iuf"
    least, most = (value.min(), value.max()) if cells else (value, value)
    real = cells or isinstance(value, _REALS) and not isinstance(value, bool)
    above = real and (low <= least if ends[0] == "[" else low < least)
    if not (above and (most <= high if ends[1] == "]" else most < high)):
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return value
