"""Shared utilities: seeded randomness, argument validation, sparse helpers."""

from repro.utils.rng import RngLike, child_rng, ensure_rng
from repro.utils.validation import (
    check_fraction,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
)

__all__ = [
    "RngLike",
    "child_rng",
    "ensure_rng",
    "check_fraction",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "check_type",
]
