"""Task-graph experiment execution engine.

The engine executes the flat lists of declarative
:class:`~repro.engine.tasks.TrialTask` specs that scenarios compile to — one
per (parameter value × series × trial) — through pluggable
:class:`~repro.engine.executors.Executor` backends with an on-disk result
store in front:

* :mod:`repro.engine.registry` — string-keyed registries of attacks,
  protocols and defenses, so every scenario is addressable by name from
  configs, task specs and the CLI;
* :mod:`repro.engine.tasks` — the frozen task spec and its stable content
  hash (the cache key);
* :mod:`repro.engine.cache` — the cache version stamp, the cache root and
  the no-op cache behind ``--no-cache``;
* :mod:`repro.engine.result_store` — the sharded append-only result store,
  the one place a cached result lives;
* :mod:`repro.engine.graph_store` — graphs registered by content key and
  exported once into shared memory for zero-copy worker attach;
* :mod:`repro.engine.executors` — serial and process-pool execution of
  store-keyed batches plus :func:`~repro.engine.executors.run_batch`, the
  cache-aware driver every batch goes through;
* :mod:`repro.engine.kernels` — the one evaluation path: cache-miss tasks
  group by figure-point identity and every group, defended or singleton,
  runs through one batched collection (stacked bit-planes for LF-GDPR);
* :mod:`repro.engine.session` — :class:`~repro.engine.session.EngineSession`,
  the persistent pool + graph store + cache driving heterogeneous
  (multi-graph) batches;
* :mod:`repro.engine.distributed` — lease-coordinated fleets: independent
  worker processes (one host or many sharing a cache root) claim
  shard ranges of a batch, append results to the shared store, and any
  interrupted sweep resumes bit-identically from what survived.

Determinism is the design invariant: every task carries its own derived
seed, so the result of a task is a pure function of its spec and the graph.
Serial and parallel executions are bit-identical, and cached results are
indistinguishable from recomputed ones.
"""

from repro.engine.cache import CACHE_VERSION, NullCache, default_cache_dir
from repro.engine.distributed import (
    DistributedExecutor,
    LeaseDirectory,
    default_worker_id,
    shard_ranges,
)
from repro.engine.executors import (
    ChunkTimeoutError,
    Executor,
    ParallelExecutor,
    PoolManager,
    SerialExecutor,
    cache_for,
    run_batch,
)
from repro.engine.graph_store import GraphStore
from repro.engine.kernels import execute_tasks_grouped, point_key
from repro.engine.registry import ATTACKS, DEFENSES, PROTOCOLS, Registry
from repro.engine.result_store import ShardedResultStore
from repro.engine.session import EngineSession
from repro.engine.tasks import (
    TrialTask,
    derive_trial_seed,
    graph_fingerprint,
    labels_fingerprint,
)

__all__ = [
    "ATTACKS",
    "DEFENSES",
    "PROTOCOLS",
    "Registry",
    "TrialTask",
    "derive_trial_seed",
    "graph_fingerprint",
    "labels_fingerprint",
    "CACHE_VERSION",
    "NullCache",
    "default_cache_dir",
    "ChunkTimeoutError",
    "DistributedExecutor",
    "Executor",
    "LeaseDirectory",
    "PoolManager",
    "SerialExecutor",
    "ParallelExecutor",
    "default_worker_id",
    "shard_ranges",
    "EngineSession",
    "GraphStore",
    "ShardedResultStore",
    "cache_for",
    "execute_tasks_grouped",
    "point_key",
    "run_batch",
]
