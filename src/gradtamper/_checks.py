"""The package's input rules: for numeric settings, counts (epochs, sizes,
seeds, trials), reals (rates, strengths, bounds) and the sequences that hold
them; and for the paths of the files it opens.  A value that breaks one
raises ValueError naming the setting and what it must be."""

import os

import numpy as np

_REALS = (int, float, np.integer, np.floating)


def is_count(value) -> bool:
    """A Python or numpy integer, and never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is a count of at least ``least``."""
    if not (is_count(value) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_sequence(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a flat sequence of settings (a
    list, tuple or 1-D array): a scalar is refused, and so is a str, rather
    than walked character by character."""
    if np.ndim(value) != 1:  # 0 for a scalar or a str
        raise ValueError(f"{name} must be a sequence, got {value!r}")


def _inside(least, most, low, high, ends: str) -> bool:
    above = low <= least if ends[0] == "[" else low < least
    return above and (most <= high if ends[1] == "]" else most < high)


def check_real(name: str, value, low, high, ends: str = "[)"):
    """``value``, a Python or numpy int or float (never a bool, never an
    array) inside the interval from ``low`` to ``high``, whose ends ``ends``
    writes as brackets: ``[`` or ``]`` includes an end, ``(`` or ``)`` leaves
    it out.  Else ValueError; NaN lies in no interval."""
    real = isinstance(value, _REALS) and not isinstance(value, bool)
    if not (real and _inside(value, value, low, high, ends)):
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return value


def check_cells(name: str, value, low, high, ends: str = "[)"):
    """``value`` under :func:`check_real`'s rule, or a non-empty numpy array of
    ints or floats (one setting per cell) whose min and max both keep it."""
    if not isinstance(value, np.ndarray):
        return check_real(name, value, low, high, ends)
    if not (value.size and value.dtype.kind in "iuf" and _inside(value.min(), value.max(), low, high, ends)):
        raise ValueError(f"{name} must lie in {ends[0]}{low}, {high}{ends[1]}, got {value!r}")
    return value


def check_path(name: str, path) -> None:
    """ValueError unless ``path`` is a str or an os.PathLike: ``open`` would
    take an int, or a bool, as a file descriptor, and close it."""
    if not isinstance(path, (str, os.PathLike)):
        raise ValueError(f"{name} must be a path (str or os.PathLike), got {path!r}")
