"""Shared test configuration.

The execution engine's result cache defaults to a persistent directory
(``REPRO_CACHE_DIR`` or ``.repro_cache/`` under the cwd).  Tests must never
read results a previous — possibly different — version of the code wrote,
nor litter the working tree, so the whole session is pointed at a throwaway
cache directory.  Tests that exercise caching explicitly pass their own
``ShardedResultStore(tmp_path)`` and are unaffected.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.cache import CACHE_DIR_ENV


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Route the default engine cache into a per-session temp directory."""
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous
