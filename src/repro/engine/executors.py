"""Task executors: serial, process-pool parallel, and the cache-aware driver.

Both executors compute through one function,
:func:`~repro.engine.kernels.execute_tasks_grouped`, whose gains equal a
one-task-at-a-time ``collect_paired`` reference bit for bit (the test
suite's ``tests/engine/test_kernels.py`` holds it); the only difference
between backends is *where* tasks run.  Because every task carries its own
derived seed, results are bit-identical across executors, worker counts and
scheduling orders.

Every batch is store-keyed: tasks may reference different graphs (several
panels, figures or datasets in one fan-out) and resolve them by the
``graph_key``/``labels_key`` they carry through a
:class:`~repro.engine.graph_store.GraphStore`.  :meth:`Executor.execute_batch`
and :func:`run_batch` are that one surface;
:class:`~repro.engine.session.EngineSession` and the distributed drive both
go through it.

Parallel fan-out ships graphs through POSIX shared memory: the store
publishes each graph once, chunks are grouped by ``graph_key`` so a worker
chunk maps exactly one graph, and a per-worker attach cache makes repeated
chunks on the same graph free.  Workers therefore never unpickle an
edge-array copy — they zero-copy map the exporter's segment (create →
attach → unlink; the exporter unlinks).

Telemetry: everything reports through :func:`repro.telemetry.core
.current_tracer` — per-task ``task.execute`` spans (recorded worker-side for
parallel chunks, shipped back with the chunk results and re-parented under
the ``executor.fan_out`` span), ``cache.hit``/``cache.miss`` counters and
batch callbacks in the drivers, and an ``executor.serial_fallback`` counter
wherever a would-be fan-out ran in-process instead.  With the default null
tracer all of it is no-op method calls — no span is allocated and RNG state
is never touched, so traced and untraced runs are bit-identical.
"""

from __future__ import annotations

import abc
import os
import time
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

# Unused here: perfbench/layers.py patches ``executors.evaluate_attack`` and
# ``executors.evaluate_defended_attack`` by name.
from repro.core.gain import evaluate_attack  # noqa: F401
from repro.defenses.evaluation import evaluate_defended_attack  # noqa: F401
from repro.engine.cache import NullCache
from repro.engine.graph_store import (
    GraphStore,
    SharedLabelsHandle,
    attach_labels,
)
from repro.engine.integrity import ensure_finite_gain
from repro.engine.kernels import execute_tasks_grouped, point_key
from repro.engine.result_store import ShardedResultStore
from repro.engine.tasks import TrialTask
from repro.graph.adjacency import Graph, SharedGraphHandle
from repro.telemetry.core import Tracer, current_tracer, set_tracer

#: Any cache flavour the drivers accept.
CacheLike = Union[ShardedResultStore, NullCache]

#: Smallest batch worth a process-pool fan-out: a singleton runs in-process
#: (pool startup would dominate), everything larger fans out.
MIN_PARALLEL_TASKS = 2

#: Re-dispatch rounds a fan-out survives before giving up: a crashed worker
#: (``BrokenProcessPool``) or a stalled chunk (``ChunkTimeoutError``) costs
#: one round; only the chunks that never delivered results are resubmitted.
DEFAULT_MAX_RETRIES = 2

#: Base of the linear backoff between re-dispatch rounds.
RETRY_BACKOFF_SECONDS = 0.05


class ChunkTimeoutError(RuntimeError):
    """No worker chunk made progress within the configured deadline."""


def _terminate_pool(pool: _ProcessPool) -> None:
    """Best-effort hard stop of a (possibly hung or broken) process pool.

    Workers are killed first so ``shutdown`` never blocks on a process that
    stopped draining its call queue; a pool whose workers already died (the
    ``BrokenProcessPool`` case) reduces to a plain shutdown.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.kill()
        except Exception:  # pragma: no cover - already reaped
            pass
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    except Exception:  # pragma: no cover - interpreter teardown races
        pass


class PoolManager:
    """Owner of a lazily created process pool that survives worker crashes.

    The manager is the single pool-lifecycle authority shared by
    :class:`~repro.engine.session.EngineSession` (one pool per session) and
    :class:`~repro.engine.distributed.DistributedExecutor` (one pool per
    drive).  :meth:`acquire` creates the pool on first use, reuses it after
    — and transparently replaces a pool whose workers died, so one crashed
    batch can never poison later ones.
    """

    def __init__(self, jobs: int):
        self.jobs = int(jobs)
        self._pool: Optional[_ProcessPool] = None

    def acquire(self) -> _ProcessPool:
        """The live pool, created on first use and replaced after breakage."""
        tracer = current_tracer()
        if self._pool is not None and getattr(self._pool, "_broken", False):
            self.discard()
            tracer.counter("executor.pool_recreate")
        if self._pool is None:
            with tracer.span("pool.create", jobs=self.jobs):
                self._pool = _ProcessPool(max_workers=self.jobs)
            tracer.counter("pool.create")
        else:
            tracer.counter("pool.reuse")
        return self._pool

    def discard(self) -> None:
        """Hard-stop the current pool (if any); the next acquire recreates."""
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None

    def shutdown(self) -> None:
        """Orderly shutdown at end of life (no kill; workers finish)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


class Executor(abc.ABC):
    """Strategy for running a batch of tasks."""

    @abc.abstractmethod
    def execute_batch(
        self, tasks: Sequence[TrialTask], store: GraphStore
    ) -> List[float]:
        """Gains of ``tasks`` resolved through ``store``, in input order."""


def _execute_by_graph(
    tasks: Sequence[TrialTask],
    graph_of: Callable[[str], Graph],
    labels_of: Callable[[str], Optional[np.ndarray]],
) -> List[float]:
    """Gains of a multi-graph task list, in input order.

    Tasks group by ``(graph_key, labels_key)`` and each group runs through
    :func:`~repro.engine.kernels.execute_tasks_grouped` on the graph and
    labels its keys resolve to: ``graph_of``/``labels_of`` are the store's
    lookups in process and the shared-memory attach caches in a worker.
    """
    groups: "OrderedDict[Tuple[str, str], List[int]]" = OrderedDict()
    for index, task in enumerate(tasks):
        groups.setdefault((task.graph_key, task.labels_key), []).append(index)
    gains: List[float] = [0.0] * len(tasks)
    for (graph_key, labels_key), indices in groups.items():
        computed = execute_tasks_grouped(
            [tasks[index] for index in indices],
            graph_of(graph_key),
            labels_of(labels_key),
        )
        for index, gain in zip(indices, computed):
            gains[index] = gain
    return gains


class SerialExecutor(Executor):
    """Run tasks in the calling process, one kernel pass per figure point."""

    def execute_batch(
        self, tasks: Sequence[TrialTask], store: GraphStore
    ) -> List[float]:
        """Gains of ``tasks`` resolved through ``store``, in input order."""
        tracer = current_tracer()
        gains = _execute_by_graph(tasks, store.graph, store.labels)
        for task, gain in zip(tasks, gains):
            tracer.task_done(task, gain)
        return gains


# ---------------------------------------------------------------------------
# Worker-side shared-memory attach cache
# ---------------------------------------------------------------------------
#: Most graphs/labelings a worker keeps mapped; beyond it the oldest entry's
#: references are dropped (its segment closes when the arrays die).
_ATTACH_CACHE_LIMIT = 64

#: shm name -> (graph, segment): segments must stay referenced while any
#: attached array is live, so the cache holds both.
_ATTACHED_GRAPHS: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACHED_LABELS: "OrderedDict[str, tuple]" = OrderedDict()


def _attached_graph(handle: SharedGraphHandle) -> Graph:
    cached = _ATTACHED_GRAPHS.get(handle.shm_name)
    if cached is None:
        cached = Graph.attach_shared(handle)
        current_tracer().counter("shm.graph_attach")
        _ATTACHED_GRAPHS[handle.shm_name] = cached
        while len(_ATTACHED_GRAPHS) > _ATTACH_CACHE_LIMIT:
            _ATTACHED_GRAPHS.popitem(last=False)
    return cached[0]


def _attached_labels(handle: SharedLabelsHandle) -> np.ndarray:
    cached = _ATTACHED_LABELS.get(handle.shm_name)
    if cached is None:
        cached = attach_labels(handle)
        current_tracer().counter("shm.labels_attach")
        _ATTACHED_LABELS[handle.shm_name] = cached
        while len(_ATTACHED_LABELS) > _ATTACH_CACHE_LIMIT:
            _ATTACHED_LABELS.popitem(last=False)
    return cached[0]


def _run_chunk_tasks(
    graph_handles: Dict[str, SharedGraphHandle],
    labels_handles: Dict[str, SharedLabelsHandle],
    indexed_tasks: List[Tuple[int, TrialTask]],
) -> List[Tuple[int, float]]:
    """One chunk's ``(index, gain)`` pairs, computed on attached graphs.

    Chunks are built to keep each point's trials co-located
    (:func:`_chunk_indices_by_graph`), so grouping inside the chunk sees
    whole points.
    """
    def labels_of(labels_key: str) -> Optional[np.ndarray]:
        handle = labels_handles.get(labels_key)
        return _attached_labels(handle) if handle is not None else None

    gains = _execute_by_graph(
        [task for _, task in indexed_tasks],
        lambda graph_key: _attached_graph(graph_handles[graph_key]),
        labels_of,
    )
    return [(index, gain) for (index, _), gain in zip(indexed_tasks, gains)]


def _run_shared_chunk(
    graph_handles: Dict[str, SharedGraphHandle],
    labels_handles: Dict[str, SharedLabelsHandle],
    indexed_tasks: List[Tuple[int, TrialTask]],
    trace: bool = False,
) -> Tuple[List[Tuple[int, float]], Optional[dict]]:
    """Worker entry point: run one chunk against shared-memory graphs.

    Returns ``(results, payload)``.  With ``trace`` the chunk runs under a
    fresh worker-local tracer whose spans (one ``executor.chunk`` root, one
    ``task.execute`` per task) and counters travel back as ``payload``; the
    parent re-parents them under its fan-out span via
    :meth:`~repro.telemetry.core.Tracer.adopt`.  Untraced, ``payload`` is
    None.
    """
    if not trace:
        return _run_chunk_tasks(graph_handles, labels_handles, indexed_tasks), None
    chunk_tracer = Tracer()
    previous = set_tracer(chunk_tracer)
    try:
        with chunk_tracer.span("executor.chunk", tasks=len(indexed_tasks)):
            results = _run_chunk_tasks(graph_handles, labels_handles, indexed_tasks)
    finally:
        set_tracer(previous)
    return results, {
        "spans": chunk_tracer.spans_payload(),
        "counters": dict(chunk_tracer.counters),
    }


def _chunk_indices_by_graph(
    tasks: Sequence[TrialTask], chunk_count: int
) -> List[List[int]]:
    """Contiguous task-index chunks that never straddle a graph boundary.

    Tasks are grouped by ``graph_key`` (stable within a group, so cache
    replay order is deterministic) and each group split into chunks of
    roughly ``ceil(len(tasks) / chunk_count)`` tasks.  A chunk therefore
    maps exactly one shared-memory graph, whatever mix of panels or
    datasets the batch carries.  Chunk boundaries additionally align to
    figure-point boundaries (:func:`~repro.engine.kernels.point_key`), so
    all trials of one point land in one worker chunk and stay eligible for
    the cross-trial batched kernels; a point larger than the target chunk
    size becomes its own chunk.
    """
    target = max(1, -(-len(tasks) // max(1, chunk_count)))
    groups: "OrderedDict[str, List[int]]" = OrderedDict()
    for index, task in enumerate(tasks):
        groups.setdefault(task.graph_key, []).append(index)
    chunks: List[List[int]] = []
    for indices in groups.values():
        points: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for index in indices:
            points.setdefault(point_key(tasks[index]), []).append(index)
        current: List[int] = []
        for point_indices in points.values():
            if current and len(current) + len(point_indices) > target:
                chunks.append(current)
                current = []
            current.extend(point_indices)
        if current:
            chunks.append(current)
    return chunks


class ParallelExecutor(Executor):
    """Fan tasks out over a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Bit-identical to :class:`SerialExecutor` because tasks are self-seeded;
    the pool only changes wall-clock time.  Batches smaller than
    :data:`MIN_PARALLEL_TASKS` run in-process instead of paying pool
    startup.

    Fan-outs are fault-tolerant: a crashed worker (OOM kill, segfault —
    surfacing as :class:`BrokenProcessPool`) or a stalled chunk (no chunk
    finished within ``task_timeout`` seconds) triggers pool replacement and
    a bounded re-dispatch of **only** the chunks that never delivered
    results; chunks already collected are kept, and because tasks are
    self-seeded the retried results are bit-identical to what the dead
    worker would have produced.

    Parameters
    ----------
    jobs:
        Worker processes; defaults to the machine's CPU count.
    pools:
        A *borrowed* :class:`PoolManager` (an
        :class:`~repro.engine.session.EngineSession`'s, or a distributed
        drive's) whose pool is reused across calls instead of spinning one
        up per batch.  Acquired only when a batch actually fans out —
        cache-warm and sub-threshold batches never touch it — and discarded
        after a crash or stall so the retry round gets a fresh pool.  The
        owner shuts it down; this executor never does.  ``None`` (default)
        creates a pool per fan-out and shuts it down afterwards.
    max_retries:
        Re-dispatch rounds to attempt after worker failures before raising
        (default :data:`DEFAULT_MAX_RETRIES`); ``0`` fails fast.
    task_timeout:
        Stall deadline in seconds: if **no** outstanding chunk completes
        within it, the round is declared hung, the pool is killed and the
        unfinished chunks are re-dispatched.  ``None`` (default) waits
        forever.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        pools: Optional[PoolManager] = None,
        max_retries: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ):
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {jobs}")
        self.jobs = int(jobs) if jobs is not None else (os.cpu_count() or 1)
        self.max_retries = (
            DEFAULT_MAX_RETRIES if max_retries is None else int(max_retries)
        )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.task_timeout = float(task_timeout) if task_timeout is not None else None
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        self._pools = pools

    def execute_batch(
        self, tasks: Sequence[TrialTask], store: GraphStore
    ) -> List[float]:
        """Gains of ``tasks`` resolved through ``store``, in input order."""
        if self.jobs == 1 or len(tasks) < MIN_PARALLEL_TASKS:
            current_tracer().counter("executor.serial_fallback")
            return SerialExecutor().execute_batch(tasks, store)
        tracer = current_tracer()
        graph_handles, labels_handles = store.handles_for(tasks)
        chunks = _chunk_indices_by_graph(tasks, self.jobs * 4)
        pools = self._pools
        if pools is None:
            pools = PoolManager(min(self.jobs, len(chunks)))
        try:
            with tracer.span(
                "executor.fan_out",
                tasks=len(tasks), chunks=len(chunks), jobs=self.jobs,
            ) as fan_span:
                tracer.counter("executor.fan_out")
                gains: List[Optional[float]] = [None] * len(tasks)
                unfinished: "OrderedDict[int, List[int]]" = OrderedDict(
                    enumerate(chunks)
                )
                attempt = 0
                while unfinished:
                    try:
                        self._dispatch_round(
                            pools.acquire(), tasks, unfinished,
                            graph_handles, labels_handles, gains,
                            fan_span, tracer,
                        )
                    except (BrokenProcessPool, ChunkTimeoutError) as exc:
                        attempt += 1
                        if attempt > self.max_retries:
                            raise
                        # Everything a worker managed to append/return is
                        # kept; only the chunks still in ``unfinished`` are
                        # re-dispatched, onto a freshly created pool.
                        tracer.counter("executor.retry")
                        tracer.counter("executor.pool_recreate")
                        tracer.event(
                            "executor.retry",
                            attempt=attempt,
                            chunks=len(unfinished),
                            cause=type(exc).__name__,
                        )
                        pools.discard()
                        time.sleep(RETRY_BACKOFF_SECONDS * attempt)
            if any(gain is None for gain in gains):
                raise RuntimeError("worker chunks did not cover every task")
            return gains
        finally:
            if self._pools is None:
                pools.shutdown()

    def _dispatch_round(
        self,
        pool: _ProcessPool,
        tasks: Sequence[TrialTask],
        unfinished: "OrderedDict[int, List[int]]",
        graph_handles: Mapping[str, SharedGraphHandle],
        labels_handles: Mapping[str, SharedLabelsHandle],
        gains: List[Optional[float]],
        fan_span,
        tracer,
    ) -> None:
        """Submit every unfinished chunk and collect until done or dead.

        Completed chunks are removed from ``unfinished`` as their results
        land, so a ``BrokenProcessPool``/timeout abort leaves exactly the
        undelivered chunks behind for the caller's retry round.
        """
        futures = {}
        for chunk_id, chunk in unfinished.items():
            chunk_graphs = {
                tasks[index].graph_key: graph_handles[tasks[index].graph_key]
                for index in chunk
            }
            chunk_labels = {
                tasks[index].labels_key: labels_handles[tasks[index].labels_key]
                for index in chunk
                if tasks[index].labels_key in labels_handles
            }
            future = pool.submit(
                _run_shared_chunk,
                chunk_graphs,
                chunk_labels,
                [(index, tasks[index]) for index in chunk],
                tracer.enabled,
            )
            futures[future] = chunk_id
        # FIRST_COMPLETED waves: progress callbacks fire per finished chunk
        # instead of in submission order; result placement is by index, so
        # the output stays deterministic either way.  The deadline is a
        # *stall* detector — it re-arms on every completion, so slow-but-
        # progressing batches never trip it.
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=self.task_timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                tracer.counter("executor.chunk_timeout")
                for future in pending:
                    future.cancel()
                raise ChunkTimeoutError(
                    f"no worker chunk completed within {self.task_timeout}s "
                    f"({len(pending)} chunks outstanding)"
                )
            for future in done:
                pairs, payload = future.result()
                if payload is not None:
                    tracer.adopt(
                        payload["spans"],
                        parent_id=fan_span.span_id,
                        counters=payload["counters"],
                    )
                for index, gain in pairs:
                    gains[index] = gain
                    tracer.task_done(tasks[index], gain)
                del unfinished[futures[future]]


def cache_for(config) -> CacheLike:
    """The cache implied by ``config.cache``: the sharded store, or none."""
    return ShardedResultStore() if getattr(config, "cache", False) else NullCache()


def run_batch(
    tasks: Sequence[TrialTask],
    store: GraphStore,
    executor: Optional[Executor] = None,
    cache: Optional[CacheLike] = None,
) -> List[float]:
    """Execute a task batch through the cache: hits short-circuit, misses compute.

    Every task resolves its graph and labels from ``store`` by the keys it
    carries, so one call can fan out an entire scenario — or several
    scenarios — at once.  Computed gains are persisted before returning;
    the output is aligned with ``tasks`` however many entries were cached.

    All telemetry the driver emits lives here: the ``engine.run_batch``
    span, ``cache.hit``/``cache.miss``/``batch.tasks`` counters, and the
    ``batch_start``/``task_done`` (cache hits only — executors report
    computed tasks themselves)/``batch_done`` callback dispatch.
    """
    executor = executor if executor is not None else SerialExecutor()
    cache = cache if cache is not None else NullCache()
    tracer = current_tracer()
    with tracer.span("engine.run_batch", tasks=len(tasks)):
        tracer.counter("batch.tasks", len(tasks))
        tracer.batch_start(len(tasks))
        gains: List[Optional[float]] = [cache.get(task) for task in tasks]
        missing = [index for index, gain in enumerate(gains) if gain is None]
        hits = len(tasks) - len(missing)
        tracer.counter("cache.hit", hits)
        tracer.counter("cache.miss", len(missing))
        if tracer.enabled and hits:
            for index, gain in enumerate(gains):
                if gain is not None:
                    tracer.task_done(tasks[index], gain)
        if missing:
            computed = executor.execute_batch(
                [tasks[index] for index in missing], store
            )
            if len(computed) != len(missing):
                raise RuntimeError(
                    f"{type(executor).__name__}.execute_batch returned "
                    f"{len(computed)} gains for {len(missing)} tasks"
                )
            for index, gain in zip(missing, computed):
                # Estimator->store boundary: a NaN/inf gain raises here —
                # naming the task and seed — before it can reach a shard,
                # a golden, or an aggregate.
                gain = ensure_finite_gain(tasks[index], gain)
                cache.put(tasks[index], gain)
                gains[index] = gain
        tracer.batch_done(
            {"tasks": len(tasks), "cache_hits": hits, "cache_misses": len(missing)}
        )
        return [float(gain) for gain in gains]
