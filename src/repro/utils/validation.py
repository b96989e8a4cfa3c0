"""Argument validation helpers.

These keep the public API strict and the error messages uniform.  Every check
raises early with the offending name and value, following the
"return/raise as early as the incorrect context has been detected" idiom.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Any, Tuple, Type, Union

import numpy as np


def check_type(value: Any, types: Union[Type, Tuple[Type, ...]], name: str) -> Any:
    """Raise :class:`TypeError` unless ``value`` is an instance of ``types``."""
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = " or ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


def check_positive(value: Real, name: str) -> Real:
    """Raise :class:`ValueError` unless ``value`` > 0."""
    check_type(value, Real, name)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: Real, name: str) -> Real:
    """Raise :class:`ValueError` unless ``value`` >= 0."""
    check_type(value, Real, name)
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_probability(value: Real, name: str) -> Real:
    """Raise :class:`ValueError` unless ``value`` is in [0, 1]."""
    check_type(value, Real, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return value


def check_fraction(value: Real, name: str) -> Real:
    """Raise :class:`ValueError` unless ``value`` is in (0, 1).

    Used for the fake-user fraction ``beta`` and target fraction ``gamma``;
    a fraction of exactly 0 or 1 makes the threat model degenerate.
    """
    check_type(value, Real, name)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_positive_int(value: Any, name: str) -> int:
    """Raise unless ``value`` is a bona-fide positive integer.

    Rejects floats (even integral ones like ``3.0``) and booleans: a config
    knob like ``trials`` or ``jobs`` silently truncated from a float is
    almost always a caller bug, and ``True`` counting as 1 trial is worse.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def check_scale(value: Any, name: str) -> Real:
    """Raise unless ``value`` is a scale factor in (0, 1]."""
    check_type(value, Real, name)
    if isinstance(value, bool) or not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    return value


def check_epsilon(value: Any, name: str = "epsilon", *, allow_zero: bool = False) -> Real:
    """Raise unless ``value`` is a finite privacy budget: > 0, or >= 0 with ``allow_zero``.

    Booleans, NaN and infinities raise :class:`ValueError` naming ``name``:
    ``True`` is not a budget, and an infinite one has no keep probability.
    """
    check_type(value, Real, name)
    in_range = value >= 0 if allow_zero else value > 0
    if isinstance(value, bool) or not (in_range and math.isfinite(value)):
        bound = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be a finite {bound} number, got {value!r}")
    return value


def check_labels(labels, num_nodes: int) -> np.ndarray:
    """``labels`` as int64 community ids, one non-negative integer per node.

    Raises :class:`ValueError` naming ``labels`` on a wrong shape, a
    non-integer dtype or a negative id.
    """
    array = np.asarray(labels)
    if array.shape != (num_nodes,):
        raise ValueError(
            f"labels must have one entry per node: expected shape ({num_nodes},), "
            f"got {array.shape}"
        )
    if array.size and not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"labels must be integer community ids, got dtype {array.dtype}")
    if array.size and array.min() < 0:
        raise ValueError(f"labels must be non-negative community ids, got {array.min()}")
    return array.astype(np.int64, copy=False)


def node_ids(nodes, num_nodes: int, name: str = "nodes") -> np.ndarray:
    """``nodes`` as flat int64 ids in the given order, repeats kept — the one
    validator of node-id arguments; an id outside ``0..n-1`` raises
    :class:`ValueError` naming ``name``."""
    nodes = np.asarray(nodes, dtype=np.int64).reshape(-1)
    out = (nodes < 0) | (nodes >= num_nodes)
    if out.any():
        raise ValueError(f"{name} must be node ids in 0..{num_nodes - 1}; got {int(nodes[out][0])}")
    return nodes
