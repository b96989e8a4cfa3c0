"""Result-cache constants: the version stamp, the cache root and the null cache.

Results live in :class:`~repro.engine.result_store.ShardedResultStore`; this
module holds what the store, the integrity tooling and the drivers share
without importing one another.  The cache root resolves, in order: an
explicit ``root`` argument, the ``REPRO_CACHE_DIR`` environment variable,
``.repro_cache/`` under the current working directory.  Bump
:data:`CACHE_VERSION` whenever a change anywhere in the library alters what a
task computes.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.engine.tasks import TrialTask

#: Invalidation stamp: entries written under another version are ignored.
CACHE_VERSION = 2

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """The cache root used when none is given explicitly."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.cwd() / ".repro_cache"


class NullCache:
    """Cache stand-in that stores nothing (``--no-cache``)."""

    hits = 0
    misses = 0

    def get(self, task: TrialTask) -> Optional[float]:
        """Always a miss."""
        return None

    def put(self, task: TrialTask, gain: float) -> None:
        """Discard."""

    def stats(self) -> dict:
        """Always-zero counters (nothing is ever stored)."""
        return {"hits": 0, "misses": 0}

    def clear(self) -> int:
        """Nothing to delete."""
        return 0
