"""The persistent execution session: one pool, one graph store, one cache.

:class:`EngineSession` holds, at session scope, everything a batch needs
beyond its tasks:

* a :class:`~repro.engine.graph_store.GraphStore` of every registered
  graph/labelling, exported **once** into shared memory, attached zero-copy
  by workers;
* one :class:`~concurrent.futures.ProcessPoolExecutor`, owned by a
  :class:`~repro.engine.executors.PoolManager`, persists across :meth:`run`
  calls (created lazily on the first batch big enough to fan out);
* one cache — the sharded result store by default — fronts every batch.

A multi-panel scenario therefore pays pool startup and graph export once,
not once per panel, and its panels run in one fan-out even at ``--jobs N``.
Batches are heterogeneous: tasks from different figures, panels and
datasets execute together, resolved to their graphs by the
``graph_key``/``labels_key`` they carry.  Because tasks are self-seeded,
results stay bit-identical to per-panel serial execution — the session only
changes wall-clock time.

Usage::

    with EngineSession(jobs=8) as session:
        session.add_graph(facebook_graph)
        session.add_graph(enron_graph, labels=enron_labels)
        gains = session.run(tasks)            # any mix of graphs
        more = session.run(other_tasks)       # same pool, same segments
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.cache import NullCache
from repro.engine.executors import (
    CacheLike,
    ParallelExecutor,
    PoolManager,
    SerialExecutor,
    cache_for,
    run_batch,
)
from repro.engine.graph_store import GraphStore
from repro.engine.tasks import TrialTask
from repro.graph.adjacency import Graph
from repro.telemetry.core import TracerLike, current_tracer, set_tracer


class EngineSession:
    """Shared execution state for any number of task batches.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` executes in-process (no pool is ever
        created).  The pool, once created, persists until :meth:`close`.
    cache:
        Result cache fronting every batch; defaults to no caching.  Pass
        :class:`~repro.engine.result_store.ShardedResultStore` (or use
        :meth:`from_config` with ``config.cache=True``) for persistence.
    telemetry:
        A :class:`~repro.telemetry.core.Tracer` to install as the
        process-local tracer for the session's lifetime (restored on
        :meth:`close`).  None leaves the current tracer — usually the
        no-op :data:`~repro.telemetry.core.NULL_TRACER` — in place;
        ``REPRO_TRACE=1`` activates one without code changes either way.
    max_retries / task_timeout:
        Crash-retry rounds and stall deadline (seconds) handed to the
        parallel executor: a worker that dies (``BrokenProcessPool``) or a
        round that stops progressing gets the persistent pool replaced and
        only the undelivered chunks re-dispatched — the session stays
        usable for subsequent :meth:`run` calls either way.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[CacheLike] = None,
        telemetry: Optional[TracerLike] = None,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ):
        if jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache: CacheLike = cache if cache is not None else NullCache()
        self.graphs = GraphStore()
        self.max_retries = max_retries
        self.task_timeout = task_timeout
        self._pools = PoolManager(self.jobs)
        self._closed = False
        self._previous_tracer: Optional[TracerLike] = None
        if telemetry is not None:
            self._previous_tracer = set_tracer(telemetry)
        current_tracer().counter("session.create")

    @classmethod
    def from_config(cls, config, cache: Optional[CacheLike] = None) -> "EngineSession":
        """A session sized by ``config.jobs`` with ``config.cache`` semantics."""
        return cls(
            jobs=getattr(config, "jobs", 1),
            cache=cache if cache is not None else cache_for(config),
            max_retries=getattr(config, "max_retries", None),
            task_timeout=getattr(config, "task_timeout", None),
        )

    # ------------------------------------------------------------------
    # Graph registration
    # ------------------------------------------------------------------
    def add_graph(
        self, graph: Graph, labels: Optional[np.ndarray] = None
    ) -> Tuple[str, str]:
        """Register a graph (and optional labels); returns their task keys.

        Idempotent by content: re-registering a graph another scenario
        already added reuses its entry and shared-memory segment.
        """
        return self.graphs.add(graph, labels)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self, tasks: Sequence[TrialTask], cache: Optional[CacheLike] = None
    ) -> List[float]:
        """Gains of a (possibly multi-graph) batch, in input order.

        Cache hits short-circuit; misses fan out over the persistent pool
        (or run in-process for ``jobs=1`` / sub-threshold batches).  Every
        graph a task references must have been registered via
        :meth:`add_graph`.  ``cache`` overrides the session cache for this
        batch only (the golden harness replays with caching forced off).
        """
        self._check_open()
        cache = cache if cache is not None else self.cache
        with current_tracer().span("session.run", tasks=len(tasks), jobs=self.jobs):
            return run_batch(tasks, self.graphs, executor=self._executor(), cache=cache)

    def _executor(self):
        if self.jobs == 1:
            return SerialExecutor()
        # The pool manager creates the pool only when a batch actually fans
        # out — empty, cache-warm and sub-threshold runs never fork a worker
        # — and replaces a pool whose workers died mid-batch, so one crash
        # never poisons later run() calls.
        return ParallelExecutor(
            jobs=self.jobs,
            pools=self._pools,
            max_retries=self.max_retries,
            task_timeout=self.task_timeout,
        )

    @property
    def _pool(self) -> Optional[_ProcessPool]:
        """The live persistent pool, if one was ever created (tests peek)."""
        return self._pools._pool

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down, then unlink every shared segment.  Idempotent.

        The session cache's lifetime statistics (``ShardedResultStore.stats``:
        hits, misses, appends, migrations, shards loaded) are logged through
        telemetry as the ``session.close`` span's attributes instead of
        being dropped with the store.  A tracer installed via
        ``telemetry=...`` is restored to the previous one afterwards.
        """
        if self._closed:
            return
        self._closed = True
        try:
            stats_of = getattr(self.cache, "stats", None)
            attrs = dict(stats_of()) if callable(stats_of) else {}
            with current_tracer().span("session.close", **attrs):
                self._pools.shutdown()
                self.graphs.close()
        finally:
            if self._previous_tracer is not None:
                set_tracer(self._previous_tracer)
                self._previous_tracer = None

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("EngineSession is closed")

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

