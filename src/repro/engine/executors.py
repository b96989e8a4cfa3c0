"""Task executors: serial, process-pool parallel, and the cache-aware drivers.

:func:`execute_task` is the single definition of what running a task means;
both executors (and any test stub) go through it, so the only difference
between backends is *where* tasks run.  Because every task carries its own
derived seed, results are bit-identical across executors, worker counts and
scheduling orders.

Two batch shapes exist:

* **homogeneous** — every task runs on one graph; this is the historical
  :meth:`Executor.execute` / :func:`run_tasks` surface;
* **heterogeneous** — tasks reference different graphs (several panels,
  figures or datasets in one fan-out) and resolve them through a
  :class:`~repro.engine.graph_store.GraphStore`; this is the
  :meth:`Executor.execute_batch` / :func:`run_batch` surface that
  :class:`~repro.engine.session.EngineSession` drives.

Parallel fan-out ships graphs through POSIX shared memory: the store (or a
transient export for the homogeneous path) publishes each graph once, chunks
are grouped by ``graph_key`` so a worker chunk maps exactly one graph, and a
per-worker attach cache makes repeated chunks on the same graph free.
Workers therefore never unpickle an edge-array copy — they zero-copy map the
exporter's segment (create → attach → unlink; the exporter unlinks).

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

from repro.core.base import Attack
from repro.core.gain import evaluate_attack
from repro.core.threat_model import ThreatModel
from repro.defenses.evaluation import evaluate_defended_attack
from repro.engine.cache import NullCache, ResultCache
from repro.engine.graph_store import (
    GraphStore,
    SharedLabelsHandle,
    attach_labels,
)
from repro.engine.integrity import ensure_finite_gain
from repro.engine.kernels import execute_tasks_grouped, point_key
from repro.engine.registry import ATTACKS, DEFENSES, PROTOCOLS
from repro.engine.result_store import ShardedResultStore
from repro.engine.tasks import TrialTask
from repro.graph.adjacency import Graph, SharedGraphHandle
from repro.protocols.base import GraphLDPProtocol
from repro.telemetry.core import Tracer, current_tracer, set_tracer
from repro.utils.rng import child_rng

#: Any cache flavour the drivers accept.
CacheLike = Union[ResultCache, ShardedResultStore, NullCache]

#: Env knob: smallest batch worth a process-pool fan-out.  Batches below the
#: threshold run in-process (pool startup would dominate).  Default 2 keeps
#: the historical behaviour of parallelising everything but singletons.
MIN_PARALLEL_TASKS_ENV = "REPRO_MIN_PARALLEL_TASKS"

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


def min_parallel_tasks() -> int:
    """The smallest task count :class:`ParallelExecutor` fans out (>= 1)."""
    raw = os.environ.get(MIN_PARALLEL_TASKS_ENV, "")
    if not raw:
        return 2
    try:
        value = int(raw)
    except ValueError:
        import warnings

        warnings.warn(
            f"{MIN_PARALLEL_TASKS_ENV}={raw!r} is not an integer; "
            "using the default threshold of 2",
            stacklevel=2,
        )
        return 2
    return max(1, value)


def execute_task(
    task: TrialTask,
    graph: Graph,
    labels: Optional[np.ndarray] = None,
    attack_factory: Optional[Callable[[], Attack]] = None,
    protocol_factory: Optional[Callable[[float], GraphLDPProtocol]] = None,
) -> float:
    """Run one trial task and return its total gain.

    The single-task reference the engine's point kernel
    (:mod:`repro.engine.kernels`) must equal.  ``attack_factory`` /
    ``protocol_factory`` override the registry lookup; the experiment layer
    passes them when a sweep uses components that are not registered (such
    components cannot be cached or parallelised, but they follow the exact
    same seed derivation, so results stay comparable).
    """
    with current_tracer().span(
        "task.execute",
        figure=task.figure, series=task.series, attack=task.attack,
        value=task.value, trial=task.trial,
    ):
        attack = attack_factory() if attack_factory is not None else ATTACKS.create(task.attack)
        protocol = (
            protocol_factory(task.epsilon)
            if protocol_factory is not None
            else PROTOCOLS.create(task.protocol, epsilon=task.epsilon)
        )
        threat = ThreatModel.sample(
            graph, task.beta, task.gamma, rng=child_rng(task.seed, "threat")
        )
        if task.defense:
            defense = DEFENSES.create(task.defense, **dict(task.defense_args))
            outcome = evaluate_defended_attack(
                graph, protocol, attack, defense, threat,
                metric=task.metric, rng=task.seed, labels=labels,
            )
        else:
            outcome = evaluate_attack(
                graph, protocol, attack, threat,
                metric=task.metric, rng=task.seed, labels=labels,
            )
        return float(outcome.total_gain)


class Executor(abc.ABC):
    """Strategy for running a batch of tasks."""

    @abc.abstractmethod
    def execute(
        self,
        tasks: Sequence[TrialTask],
        graph: Graph,
        labels: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Gains of a homogeneous (single-graph) batch, in input order."""

    def execute_batch(
        self, tasks: Sequence[TrialTask], store: GraphStore
    ) -> List[float]:
        """Gains of a heterogeneous batch, in input order.

        The default groups tasks by ``(graph_key, labels_key)`` and runs
        each group through :meth:`execute`, so any single-graph executor —
        including test stubs that count or stub :meth:`execute` — handles
        multi-graph batches unchanged.
        """
        groups: "OrderedDict[Tuple[str, str], List[int]]" = OrderedDict()
        for index, task in enumerate(tasks):
            groups.setdefault((task.graph_key, task.labels_key), []).append(index)
        gains: List[float] = [0.0] * len(tasks)
        for (graph_key, labels_key), indices in groups.items():
            computed = self.execute(
                [tasks[index] for index in indices],
                store.graph(graph_key),
                store.labels(labels_key),
            )
            if len(computed) != len(indices):
                raise RuntimeError(
                    f"{type(self).__name__}.execute returned {len(computed)} "
                    f"gains for {len(indices)} tasks"
                )
            for index, gain in zip(indices, computed):
                gains[index] = gain
        return gains


class SerialExecutor(Executor):
    """Run tasks in the calling process, one kernel pass per figure point.

    Every task — whatever its point group's size, defense or protocol —
    runs through :func:`repro.engine.kernels.execute_tasks_grouped`, whose
    gains equal :func:`execute_task` bit for bit, in input order.
    """

    def execute(
        self,
        tasks: Sequence[TrialTask],
        graph: Graph,
        labels: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Gains of ``tasks``, in input order."""
        tracer = current_tracer()
        gains = execute_tasks_grouped(tasks, graph, labels)
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
    """One chunk's gains, same-point trials batched through the kernels.

    Chunks are built to keep each point's trials co-located
    (:func:`_chunk_indices_by_graph`), so grouping inside the chunk sees
    whole points; results keep the historical per-task ``(index, gain)``
    shape and order.
    """
    groups: "OrderedDict[Tuple[str, str], List[int]]" = OrderedDict()
    for position, (_, task) in enumerate(indexed_tasks):
        groups.setdefault((task.graph_key, task.labels_key), []).append(position)
    results: List[Optional[Tuple[int, float]]] = [None] * len(indexed_tasks)
    for (graph_key, labels_key), positions in groups.items():
        graph = _attached_graph(graph_handles[graph_key])
        labels_handle = labels_handles.get(labels_key)
        labels = _attached_labels(labels_handle) if labels_handle is not None else None
        gains = execute_tasks_grouped(
            [indexed_tasks[position][1] for position in positions], graph, labels
        )
        for position, gain in zip(positions, gains):
            results[position] = (indexed_tasks[position][0], gain)
    return results


def _run_shared_chunk(
    graph_handles: Dict[str, SharedGraphHandle],
    labels_handles: Dict[str, SharedLabelsHandle],
    indexed_tasks: List[Tuple[int, TrialTask]],
    trace: bool = False,
):
    """Worker entry point: run one chunk against shared-memory graphs.

    With ``trace`` the chunk runs under a fresh worker-local tracer whose
    spans (one ``executor.chunk`` root, one ``task.execute`` per task) and
    counters travel back with the results as ``(results, payload)``; the
    parent re-parents them under its fan-out span via
    :meth:`~repro.telemetry.core.Tracer.adopt`.  Without it the return
    shape stays the historical plain results list.
    """
    if not trace:
        return _run_chunk_tasks(graph_handles, labels_handles, indexed_tasks)
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
    :func:`min_parallel_tasks` (``REPRO_MIN_PARALLEL_TASKS``) run in-process
    instead of paying pool startup.

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
    pool_factory:
        Zero-argument callable returning a *borrowed* live pool (from
        :class:`~repro.engine.session.EngineSession`) reused across calls
        instead of spinning one up per batch.  Called only when a batch
        actually fans out — cache-warm and sub-threshold batches never
        touch it.  The owner shuts the pool down; this executor never does.
    pool_reset:
        Companion of ``pool_factory``: zero-argument callable that discards
        the borrowed pool after a crash/stall so the next ``pool_factory``
        call hands back a fresh one.  Without it a broken borrowed pool can
        only be retried if the factory itself detects breakage
        (:meth:`PoolManager.acquire` does).
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
        pool_factory: Optional[Callable[[], _ProcessPool]] = None,
        pool_reset: Optional[Callable[[], None]] = None,
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
        self._pool_factory = pool_factory
        self._pool_reset = pool_reset

    def execute(
        self,
        tasks: Sequence[TrialTask],
        graph: Graph,
        labels: Optional[np.ndarray] = None,
    ) -> List[float]:
        """Gains of ``tasks``, in input order (all on ``graph``)."""
        if self.jobs == 1 or len(tasks) < min_parallel_tasks():
            current_tracer().counter("executor.serial_fallback")
            return SerialExecutor().execute(tasks, graph, labels)
        # Transient export: the one graph (and labelling) is published once;
        # every distinct key in the batch aliases it, matching the serial
        # contract that the *given* graph/labels win, whatever keys the
        # tasks carry.
        with GraphStore() as store:
            handle, segment = graph.to_shared()
            store.adopt_segment(segment)
            graph_handles = {key: handle for key in {task.graph_key for task in tasks}}
            labels_handles: Dict[str, SharedLabelsHandle] = {}
            if labels is not None:
                labels_handle = store.export_labels(store.add_labels(labels))
                labels_handles = {
                    key: labels_handle for key in {task.labels_key for task in tasks}
                }
            return self._fan_out(tasks, graph_handles, labels_handles)

    def execute_batch(
        self, tasks: Sequence[TrialTask], store: GraphStore
    ) -> List[float]:
        """Gains of a heterogeneous batch resolved through ``store``."""
        if self.jobs == 1 or len(tasks) < min_parallel_tasks():
            current_tracer().counter("executor.serial_fallback")
            return super().execute_batch(tasks, store)
        graph_handles, labels_handles = store.handles_for(tasks)
        return self._fan_out(tasks, graph_handles, labels_handles)

    def _fan_out(
        self,
        tasks: Sequence[TrialTask],
        graph_handles: Mapping[str, SharedGraphHandle],
        labels_handles: Mapping[str, SharedLabelsHandle],
    ) -> List[float]:
        tracer = current_tracer()
        chunks = _chunk_indices_by_graph(tasks, self.jobs * 4)
        manager: Optional[PoolManager] = None
        if self._pool_factory is not None:
            factory = self._pool_factory
            reset = self._pool_reset if self._pool_reset is not None else lambda: None
        else:
            manager = PoolManager(min(self.jobs, len(chunks)))
            factory, reset = manager.acquire, manager.discard
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
                            factory(), tasks, unfinished,
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
                        reset()
                        time.sleep(RETRY_BACKOFF_SECONDS * attempt)
            if any(gain is None for gain in gains):
                raise RuntimeError("worker chunks did not cover every task")
            return gains
        finally:
            if manager is not None:
                manager.shutdown()

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
                outcome = future.result()
                if tracer.enabled:
                    pairs, payload = outcome
                    tracer.adopt(
                        payload["spans"],
                        parent_id=fan_span.span_id,
                        counters=payload["counters"],
                    )
                else:
                    pairs = outcome
                for index, gain in pairs:
                    gains[index] = gain
                    tracer.task_done(tasks[index], gain)
                del unfinished[futures[future]]


def executor_for(config) -> Executor:
    """The executor implied by ``config.jobs`` (1 -> serial).

    ``config.max_retries``/``config.task_timeout`` (when present) size the
    parallel executor's crash-retry and stall-deadline behaviour.
    """
    jobs = getattr(config, "jobs", 1)
    if jobs > 1:
        return ParallelExecutor(
            jobs=jobs,
            max_retries=getattr(config, "max_retries", None),
            task_timeout=getattr(config, "task_timeout", None),
        )
    return SerialExecutor()


def cache_for(config) -> CacheLike:
    """The cache implied by ``config.cache`` (False -> no caching).

    Caching now goes through the sharded append-only store; legacy per-task
    caches at the same root keep answering through its read-through path.
    """
    return ShardedResultStore() if getattr(config, "cache", False) else NullCache()


def _run_through_cache(
    span_name: str,
    tasks: Sequence[TrialTask],
    cache: CacheLike,
    compute: Callable[[List[TrialTask]], List[float]],
) -> List[float]:
    """The shared cache-front driver: hits short-circuit, misses compute.

    All telemetry the drivers emit lives here: the batch span,
    ``cache.hit``/``cache.miss``/``batch.tasks`` counters, and the
    ``batch_start``/``task_done`` (cache hits only — executors report
    computed tasks themselves)/``batch_done`` callback dispatch.
    """
    tracer = current_tracer()
    with tracer.span(span_name, tasks=len(tasks)):
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
            computed = compute([tasks[index] for index in missing])
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


def run_tasks(
    tasks: Sequence[TrialTask],
    graph: Graph,
    labels: Optional[np.ndarray] = None,
    executor: Optional[Executor] = None,
    cache: Optional[CacheLike] = None,
) -> List[float]:
    """Execute a homogeneous (single-graph) task batch through the cache.

    Cache hits are returned as-is; only misses reach the executor, and their
    results are persisted before returning.  The output is aligned with
    ``tasks`` regardless of how many entries were cached.
    """
    executor = executor if executor is not None else SerialExecutor()
    cache = cache if cache is not None else NullCache()
    return _run_through_cache(
        "engine.run_tasks", tasks, cache,
        lambda missing: executor.execute(missing, graph, labels),
    )


def run_batch(
    tasks: Sequence[TrialTask],
    store: GraphStore,
    executor: Optional[Executor] = None,
    cache: Optional[CacheLike] = None,
) -> List[float]:
    """Execute a heterogeneous task batch through the cache.

    The multi-graph counterpart of :func:`run_tasks`: every task resolves
    its graph and labels from ``store`` by the keys it carries, so one call
    can fan out an entire scenario — or several scenarios — at once.
    """
    executor = executor if executor is not None else SerialExecutor()
    cache = cache if cache is not None else NullCache()
    return _run_through_cache(
        "engine.run_batch", tasks, cache,
        lambda missing: executor.execute_batch(missing, store),
    )
