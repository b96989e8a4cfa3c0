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
from collections import Counter

import pytest

from repro.engine.cache import CACHE_DIR_ENV
from repro.engine.executors import SerialExecutor, run_batch
from repro.engine.graph_store import GraphStore


class CountingExecutor(SerialExecutor):
    """Serial executor that records how many tasks it actually computed."""

    def __init__(self):
        self.executed = 0

    def execute_batch(self, tasks, store):
        self.executed += len(tasks)
        return super().execute_batch(tasks, store)


def run_on_graph(tasks, graph, labels=None, executor=None, cache=None):
    """:func:`run_batch` over a store holding just ``graph`` (and ``labels``)."""
    with GraphStore() as store:
        store.add(graph, labels)
        return run_batch(tasks, store, executor=executor, cache=cache)


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


@pytest.fixture
def call_counts(monkeypatch):
    """``(counts, spy)``: ``spy(owner, attr, key)`` wraps ``owner.attr`` so
    that every call adds one to the :class:`Counter` ``counts[key]``."""
    counts = Counter()

    def spy(owner, attr, key):
        real = getattr(owner, attr)

        def counted(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)

    return counts, spy


@pytest.fixture
def force_backend(monkeypatch, call_counts):
    """``force(name)`` pins :func:`repro.graph.bitmatrix.triangle_backend` to
    ``name`` at every dispatch site and returns a :class:`Counter` of the
    triangle backends that then actually ran (``"packed"``, ``"sparse"``,
    ``"stream"``), so a test can assert the forced path was taken."""
    from repro.graph import bitmatrix, metrics

    ran, spy = call_counts
    spy(metrics, "_triangles_packed", "packed")
    spy(metrics, "_triangles_sparse", "sparse")
    spy(metrics, "streaming_triangles_per_node", "stream")
    spy(bitmatrix.BitMatrix, "triangles_touching", "packed")
    spy(metrics, "_triangles_touching_sparse", "sparse")

    def force(name):
        for module in (bitmatrix, metrics):
            monkeypatch.setattr(module, "triangle_backend", lambda graph: name)
        return ran

    return force
