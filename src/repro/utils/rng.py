"""Seeded random-number-generation helpers.

Every stochastic component in this library accepts either an integer seed, a
:class:`numpy.random.Generator`, or ``None``.  Centralising the coercion here
keeps experiments reproducible: the experiment runner seeds one root generator
and derives independent child streams for the protocol noise, the attack
randomness, and each trial.

The *common random numbers* evaluation used to measure attack gain (see
``repro.core.gain``) relies on being able to derive the *same* child stream
twice, which :func:`child_rng` supports through a stable string key.
"""

from __future__ import annotations

import hashlib
from typing import Union

import numpy as np

#: Anything accepted by :func:`ensure_rng`.
RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    ``None`` yields a fresh non-deterministic generator; an ``int`` or a
    :class:`~numpy.random.SeedSequence` seeds a new generator; an existing
    generator is returned unchanged.

    >>> gen = ensure_rng(7)
    >>> gen2 = ensure_rng(7)
    >>> gen.integers(100) == gen2.integers(100)
    True
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer, np.random.SeedSequence)):
        return np.random.default_rng(rng)
    raise TypeError(
        f"expected None, int, SeedSequence or numpy Generator, got {type(rng).__name__}"
    )


def _key_to_int(key: str) -> int:
    """Hash a string key into a stable 64-bit integer."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def child_rng(seed: RngLike, key: str) -> np.random.Generator:
    """Derive a named, reproducible child generator from ``seed``.

    The same ``(seed, key)`` pair always yields an identical stream, while
    different keys yield (statistically) independent streams.  This is the
    mechanism behind paired before/after protocol runs: both runs ask for the
    child keyed ``"protocol-noise"`` and therefore see identical perturbation
    randomness for genuine users.

    ``seed`` must be an ``int`` or ``SeedSequence`` for determinism; passing a
    ``Generator`` derives the child from a draw of that generator (still
    usable, but not replayable).
    """
    key_int = _key_to_int(key)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(np.random.SeedSequence(entropy=[int(seed), key_int]))
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy if seed.entropy is not None else 0
        if isinstance(entropy, (int, np.integer)):
            entropy = [int(entropy)]
        return np.random.default_rng(np.random.SeedSequence(entropy=[*entropy, key_int]))
    generator = ensure_rng(seed)
    drawn = int(generator.integers(0, 2**63 - 1))
    return np.random.default_rng(np.random.SeedSequence(entropy=[drawn, key_int]))
