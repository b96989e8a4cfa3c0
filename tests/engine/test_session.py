"""EngineSession tests: heterogeneous batches, pool persistence, lifecycle.

The session's load-bearing guarantee extends the engine invariant to
multi-graph batches: a batch mixing tasks from several graphs produces a
**bit-identical** result vector whatever the executor, worker count, chunk
assignment or cache state — pinned here by hashing the full result vector
under every execution path (cold cache, warm cache, half-warm mix).
"""

import hashlib
import json

import pytest

from repro.engine.cache import NullCache
from repro.engine.executors import (
    MIN_PARALLEL_TASKS,
    ParallelExecutor,
    SerialExecutor,
    _chunk_indices_by_graph,
)
from repro.engine.graph_store import GraphStore
from repro.engine.result_store import ShardedResultStore
from repro.engine.session import EngineSession
from repro.engine.tasks import TrialTask, derive_trial_seed, graph_fingerprint
from repro.graph.generators import powerlaw_cluster_graph
from repro.telemetry.core import Tracer, use_tracer


def _sha256_of(gains):
    return hashlib.sha256(json.dumps([float(g) for g in gains]).encode("ascii")).hexdigest()


def _tasks_for(graph, count, tag):
    graph_key = graph_fingerprint(graph)
    return [
        TrialTask(
            graph_key=graph_key, metric="degree_centrality",
            attack=("degree/mga" if index % 2 else "degree/rva"),
            protocol="lfgdpr", epsilon=4.0, beta=0.05, gamma=0.05,
            seed=derive_trial_seed(0, f"{tag}|{index}"), trial=index,
        )
        for index in range(count)
    ]


@pytest.fixture(scope="module")
def hetero_batch():
    """Tasks interleaved across three distinct graphs (a multi-graph batch)."""
    graphs = [
        powerlaw_cluster_graph(80 + 10 * index, 3, 0.4, rng=index)
        for index in range(3)
    ]
    per_graph = [_tasks_for(graph, 4, f"hetero{index}") for index, graph in enumerate(graphs)]
    # Interleave so chunk assignment has to regroup by graph.
    tasks = [task for trio in zip(*per_graph) for task in trio]
    return graphs, tasks


class TestHeterogeneousDeterminism:
    def test_parallel_matches_serial_cold_warm_halfwarm(self, hetero_batch, tmp_path):
        """jobs=4 sha256 == serial on a multi-graph batch, for every cache state."""
        graphs, tasks = hetero_batch

        with EngineSession(jobs=1) as session:
            for graph in graphs:
                session.add_graph(graph)
            serial_sha = _sha256_of(session.run(tasks))

        # Cold cache.
        cold = EngineSession(jobs=4, cache=ShardedResultStore(tmp_path / "cold"))
        with cold as session:
            for graph in graphs:
                session.add_graph(graph)
            assert _sha256_of(session.run(tasks)) == serial_sha

        # Warm cache: everything answered from disk.
        warm_store = ShardedResultStore(tmp_path / "warm")
        with EngineSession(jobs=1, cache=warm_store) as session:
            for graph in graphs:
                session.add_graph(graph)
            session.run(tasks)
        replay_store = ShardedResultStore(tmp_path / "warm")
        with EngineSession(jobs=4, cache=replay_store) as session:
            for graph in graphs:
                session.add_graph(graph)
            assert _sha256_of(session.run(tasks)) == serial_sha
        assert replay_store.hits == len(tasks)

        # Half-warm: cached hits mixed with parallel misses.
        half_store = ShardedResultStore(tmp_path / "half")
        with EngineSession(jobs=1, cache=half_store) as session:
            for graph in graphs:
                session.add_graph(graph)
            session.run(tasks[: len(tasks) // 2])
        with EngineSession(jobs=4, cache=ShardedResultStore(tmp_path / "half")) as session:
            for graph in graphs:
                session.add_graph(graph)
            assert _sha256_of(session.run(tasks)) == serial_sha

    def test_parallel_executor_execute_batch_matches_serial(self, hetero_batch):
        graphs, tasks = hetero_batch
        with GraphStore() as store:
            for graph in graphs:
                store.add(graph)
            serial = SerialExecutor().execute_batch(tasks, store)
            parallel = ParallelExecutor(jobs=4).execute_batch(tasks, store)
        assert _sha256_of(parallel) == _sha256_of(serial)


class TestSessionLifecycle:
    def test_pool_persists_across_runs(self, hetero_batch):
        graphs, tasks = hetero_batch
        with EngineSession(jobs=2) as session:
            for graph in graphs:
                session.add_graph(graph)
            first = session.run(tasks)
            pool = session._pool
            assert pool is not None, "parallel run must create the pool"
            second = session.run(tasks)
            assert session._pool is pool, "pool must persist across run() calls"
        assert first == second

    def test_warm_cache_run_never_creates_a_pool(self, hetero_batch, tmp_path):
        """A fully cached batch at jobs>1 must not pay pool startup."""
        graphs, tasks = hetero_batch
        store = ShardedResultStore(tmp_path / "prewarm")
        with EngineSession(jobs=1, cache=store) as session:
            for graph in graphs:
                session.add_graph(graph)
            session.run(tasks)
        with EngineSession(jobs=4, cache=ShardedResultStore(tmp_path / "prewarm")) as session:
            for graph in graphs:
                session.add_graph(graph)
            session.run(tasks)
            assert session._pool is None, "warm replay forked workers for nothing"
            session.run([])
            assert session._pool is None, "empty batch forked workers for nothing"

    def test_add_graph_idempotent(self):
        graph = powerlaw_cluster_graph(50, 3, 0.4, rng=0)
        with EngineSession() as session:
            key_a, _ = session.add_graph(graph)
            key_b, _ = session.add_graph(graph)
            assert key_a == key_b
            assert len(session.graphs) == 1

    def test_closed_session_rejects_runs(self):
        session = EngineSession()
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.run([])
        session.close()  # idempotent

    def test_unregistered_graph_key_is_a_clear_error(self, hetero_batch):
        _, tasks = hetero_batch
        with EngineSession() as session:
            with pytest.raises(KeyError, match="not registered"):
                session.run(tasks)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            EngineSession(jobs=0)

    def test_from_config_uses_jobs_and_cache(self):
        from repro.experiments.config import ExperimentConfig

        session = EngineSession.from_config(ExperimentConfig(jobs=3, cache=False))
        try:
            assert session.jobs == 3
            assert isinstance(session.cache, NullCache)
        finally:
            session.close()


class TestChunking:
    def test_chunks_never_straddle_graphs(self, hetero_batch):
        _, tasks = hetero_batch
        for chunk_count in (1, 2, 3, 5, 16):
            chunks = _chunk_indices_by_graph(tasks, chunk_count)
            covered = sorted(index for chunk in chunks for index in chunk)
            assert covered == list(range(len(tasks)))
            for chunk in chunks:
                keys = {tasks[index].graph_key for index in chunk}
                assert len(keys) == 1, "a chunk must map exactly one graph"

    def test_sub_threshold_batch_runs_in_process(self, monkeypatch, hetero_batch):
        import repro.engine.executors as executors_module

        graphs, tasks = hetero_batch
        assert MIN_PARALLEL_TASKS == 2  # parallelise all but singletons
        monkeypatch.setattr(executors_module, "MIN_PARALLEL_TASKS", 1000000)

        # Under the threshold a "parallel" batch must run in-process: creating
        # a pool at all fails the test.
        def no_pool(*args, **kwargs):
            raise AssertionError("sub-threshold batch must not create a pool")

        monkeypatch.setattr(executors_module, "_ProcessPool", no_pool)
        executor = ParallelExecutor(jobs=4)
        with GraphStore() as store:
            for graph in graphs:
                store.add(graph)
            with use_tracer(Tracer()) as tracer:
                gains = executor.execute_batch(tasks, store)
            assert tracer.counters["executor.serial_fallback"] >= 1
            assert gains == SerialExecutor().execute_batch(tasks, store)


class TestSessionCrashRecovery:
    def test_session_survives_worker_death(self, hetero_batch, monkeypatch, tmp_path):
        """One SIGKILLed worker must not poison the persistent pool.

        The run it crashed completes via retry (bit-identical to serial),
        the broken pool is replaced, and the *next* run() reuses the
        replacement — the session never needs to be rebuilt.
        """
        from tests.engine import crashkit

        graphs, tasks = hetero_batch
        with EngineSession(jobs=1) as session:
            for graph in graphs:
                session.add_graph(graph)
            serial_sha = _sha256_of(session.run(tasks))

        monkeypatch.setenv(crashkit.MARKER_ENV, str(tmp_path / "tripped"))
        monkeypatch.setattr(
            "repro.engine.executors._run_shared_chunk",
            crashkit.sigkill_once_chunk,
        )
        with EngineSession(jobs=2) as session:
            for graph in graphs:
                session.add_graph(graph)
            assert _sha256_of(session.run(tasks)) == serial_sha
            assert (tmp_path / "tripped").exists(), "injection never fired"
            recovered_pool = session._pool
            assert recovered_pool is not None
            assert _sha256_of(session.run(tasks)) == serial_sha
            assert session._pool is recovered_pool, (
                "the replacement pool must persist like the original"
            )
