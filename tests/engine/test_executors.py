"""Tests for the execution backends and the cache-aware task driver.

The two load-bearing guarantees of the engine are pinned here:

* serial and process-pool execution produce **bit-identical** sweeps;
* a warm cache answers a repeated sweep with **zero** trial computations.

Sweeps run through an :class:`EngineSession`; the ``kernel.batched``
counter of a :class:`Tracer` counts the tasks a run actually computed.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine.cache import NullCache
from repro.engine.executors import ParallelExecutor, SerialExecutor, run_batch
from repro.engine.graph_store import GraphStore
from repro.engine.result_store import ShardedResultStore
from repro.engine.session import EngineSession
from repro.engine.tasks import (
    TrialTask,
    derive_trial_seed,
    graph_fingerprint,
    labels_fingerprint,
)
from repro.experiments.config import ExperimentConfig
from repro.graph.generators import powerlaw_cluster_graph
from repro.scenarios import get_scenario, run_scenario
from repro.telemetry.core import Tracer, use_tracer
from tests.conftest import CountingExecutor, run_on_graph
from tests.engine.test_kernels import execute_task

CONFIG = ExperimentConfig(trials=2, seed=3, cache=False, scale=0.03)

#: Fig. 6 on a small facebook surrogate, cut to two epsilons.
SPEC = replace(get_scenario("fig6"), values=(2.0, 4.0))

CLUSTERING_ATTACKS = ("clustering/rva", "clustering/rna", "clustering/mga")


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(120, 3, 0.4, rng=0)


def small_sweep(cache, **session_args):
    """The small Fig. 6 sweep in a session built from ``session_args``."""
    with EngineSession(cache=cache, **session_args) as session:
        return run_scenario(SPEC, CONFIG, session=session).sweep()


def computed_tasks(run):
    """``(result, tasks computed)`` of ``run()``, read from ``kernel.batched``."""
    with use_tracer(Tracer()) as tracer:
        result = run()
    return result, tracer.counters.get("kernel.batched", 0)


def point_tasks(graph, metric, tag, labels=None):
    """One epsilon=4 point of every clustering attack, two trials each."""
    return [
        TrialTask(
            graph_key=graph_fingerprint(graph), metric=metric,
            attack=attack, protocol="lfgdpr",
            epsilon=4.0, beta=0.05, gamma=0.05,
            seed=derive_trial_seed(CONFIG.seed, f"{tag}|{attack}|trial={trial}"),
            labels_key=labels_fingerprint(labels), trial=trial,
        )
        for attack in CLUSTERING_ATTACKS
        for trial in range(CONFIG.trials)
    ]


def session_gains(graph, tasks, cache, labels=None):
    with EngineSession(cache=cache) as session:
        session.add_graph(graph, labels)
        return session.run(tasks)


class TestSerialParallelEquivalence:
    def test_bit_identical_sweeps(self):
        serial = small_sweep(NullCache())
        parallel = small_sweep(NullCache(), jobs=4)
        assert serial.series == parallel.series
        assert serial.stderr == parallel.stderr
        assert serial.samples == parallel.samples

    def test_jobs_one_falls_back_to_serial(self, graph):
        tasks = point_tasks(graph, "clustering_coefficient", "jobs-one")
        with use_tracer(Tracer()) as tracer:
            fallback = run_on_graph(tasks, graph, executor=ParallelExecutor(jobs=1))
        assert tracer.counters["executor.serial_fallback"] == 1
        assert "executor.fan_out" not in tracer.counters
        assert fallback == run_on_graph(tasks, graph, executor=SerialExecutor())

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)


class TestCaching:
    def test_warm_cache_skips_all_computation(self, tmp_path):
        cold, cold_computed = computed_tasks(
            lambda: small_sweep(ShardedResultStore(tmp_path))
        )
        assert cold_computed == 2 * 3 * CONFIG.trials  # values x attacks x trials

        warm, warm_computed = computed_tasks(
            lambda: small_sweep(ShardedResultStore(tmp_path))
        )
        assert warm_computed == 0
        assert warm.series == cold.series
        assert warm.stderr == cold.stderr

    def test_partial_cache_computes_only_missing(self, graph, tmp_path):
        cache = ShardedResultStore(tmp_path)
        graph_key = graph_fingerprint(graph)
        tasks = [
            TrialTask(
                graph_key=graph_key, metric="degree_centrality",
                attack="degree/rva", protocol="lfgdpr",
                epsilon=4.0, beta=0.05, gamma=0.05,
                seed=derive_trial_seed(0, f"partial|{trial}"), trial=trial,
            )
            for trial in range(3)
        ]
        first = run_on_graph(tasks[:1], graph, cache=cache)
        executor = CountingExecutor()
        all_gains = run_on_graph(tasks, graph, executor=executor, cache=cache)
        assert executor.executed == 2
        assert all_gains[0] == first[0]

    def test_different_labels_never_share_entries(self, graph, tmp_path):
        """Modularity gains under labelling A must not be reused for B."""
        cache = ShardedResultStore(tmp_path)
        labels_a = (np.arange(graph.num_nodes) // 30).astype(np.int64)
        labels_b = (np.arange(graph.num_nodes) % 4).astype(np.int64)
        sweep = lambda labels: session_gains(  # noqa: E731
            graph, point_tasks(graph, "modularity", "EngineL", labels), cache, labels
        )
        a = sweep(labels_a)
        hits_before = cache.hits
        b = sweep(labels_b)
        assert cache.hits == hits_before  # nothing reused across labelings
        assert a != b

    def test_different_graphs_never_share_entries(self, tmp_path):
        graph_a = powerlaw_cluster_graph(60, 3, 0.4, rng=0)
        graph_b = powerlaw_cluster_graph(60, 3, 0.4, rng=1)
        cache = ShardedResultStore(tmp_path)
        sweep = lambda g: session_gains(  # noqa: E731
            g, point_tasks(g, "clustering_coefficient", "EngineG"), cache
        )
        a = sweep(graph_a)
        hits_before = cache.hits
        b = sweep(graph_b)
        assert cache.hits == hits_before
        assert a != b  # same seeds, different graph -> fresh compute


class TestExecuteTask:
    def test_defended_task_runs(self, graph):
        task = TrialTask(
            graph_key="x", metric="degree_centrality", attack="degree/mga",
            protocol="lfgdpr", epsilon=4.0, beta=0.05, gamma=0.05, seed=11,
            defense="detect1", defense_args=(("threshold", 50),),
        )
        undefended = execute_task(
            TrialTask(
                graph_key="x", metric="degree_centrality", attack="degree/mga",
                protocol="lfgdpr", epsilon=4.0, beta=0.05, gamma=0.05, seed=11,
            ),
            graph,
        )
        defended = execute_task(task, graph)
        assert defended >= 0.0 and undefended >= 0.0

    @pytest.mark.parametrize("field", ["attack", "protocol"])
    def test_unregistered_component_rejected(self, graph, field):
        """Tasks name registered components only; an unknown name is an error."""
        task = TrialTask(
            graph_key="x", metric="degree_centrality", attack="degree/rva",
            protocol="lfgdpr", epsilon=4.0, beta=0.05, gamma=0.05, seed=11,
        )
        with pytest.raises(KeyError, match="<custom>"):
            execute_task(replace(task, **{field: "<custom>"}), graph)


class TestLabelsReachPoolWorkers:
    def test_two_labellings_cross_shared_memory(self, graph):
        """Each labelling is exported once and reaches the tasks keyed to it.

        Modularity labels travel to pool workers through ``export_labels``,
        a ``SharedLabelsHandle`` and the worker's attach cache; the pooled
        gains must equal the in-process ones for both labellings.
        """
        labels_a = (np.arange(graph.num_nodes) // 25).astype(np.int64)
        labels_b = (np.arange(graph.num_nodes) % 5).astype(np.int64)
        tasks = (
            point_tasks(graph, "modularity", "pool-labels", labels_a)
            + point_tasks(graph, "modularity", "pool-labels", labels_b)
        )
        with GraphStore() as store:
            store.add(graph, labels_a)
            store.add(graph, labels_b)
            serial = SerialExecutor().execute_batch(tasks, store)
            with use_tracer(Tracer()) as tracer:
                parallel = ParallelExecutor(jobs=3).execute_batch(tasks, store)
        assert parallel == serial
        assert serial[: len(serial) // 2] != serial[len(serial) // 2 :]
        assert tracer.counters["shm.labels_export"] == 2
        assert tracer.counters["shm.labels_attach"] >= 2


class TestRunBatchChecksGainCount:
    """An executor returning the wrong number of gains fails before any put."""

    @pytest.mark.parametrize("skew", [1, -1], ids=["too-long", "too-short"])
    def test_wrong_gain_count_raises(self, graph, tmp_path, skew):
        class SkewedExecutor(SerialExecutor):
            def execute_batch(self, tasks, store):
                gains = super().execute_batch(tasks, store)
                return gains + [0.0] if skew > 0 else gains[:-1]

        tasks = point_tasks(graph, "clustering_coefficient", "skew")[:3]
        cache = ShardedResultStore(tmp_path)
        with GraphStore() as store:
            store.add(graph)
            with pytest.raises(RuntimeError) as excinfo:
                run_batch(tasks, store, executor=SkewedExecutor(), cache=cache)
        message = str(excinfo.value)
        assert "SkewedExecutor" in message
        assert f"{len(tasks) + skew} gains for {len(tasks)} tasks" in message
        assert cache.appends == 0


class TestCrashRetry:
    """Worker death and stalls: retried transparently, bit-identically.

    Injection rides the fork start method: ``crashkit``'s wrappers are
    monkeypatched over ``_run_shared_chunk`` *before* the pool forks, so
    workers inherit them; a marker file arms exactly one SIGKILL (or hang)
    across all workers and rounds.
    """

    def _arm(self, monkeypatch, tmp_path, wrapper):
        from tests.engine import crashkit

        marker = tmp_path / "tripped"
        monkeypatch.setenv(crashkit.MARKER_ENV, str(marker))
        monkeypatch.setattr(
            "repro.engine.executors._run_shared_chunk", wrapper
        )
        return marker

    def test_sigkilled_worker_is_retried_bit_identically(self, monkeypatch, tmp_path):
        from concurrent.futures.process import BrokenProcessPool  # noqa: F401

        from tests.engine import crashkit
        from repro.telemetry.core import Tracer, use_tracer

        marker = self._arm(monkeypatch, tmp_path, crashkit.sigkill_once_chunk)
        with use_tracer(Tracer()) as tracer:
            survived = small_sweep(NullCache(), jobs=2, max_retries=2)
        assert marker.exists(), "the injected SIGKILL never fired"
        assert tracer.counters["executor.retry"] >= 1
        assert tracer.counters["executor.pool_recreate"] >= 1

        monkeypatch.setattr(
            "repro.engine.executors._run_shared_chunk",
            crashkit.REAL_RUN_SHARED_CHUNK,
        )
        serial = small_sweep(NullCache())
        assert survived.series == serial.series
        assert survived.stderr == serial.stderr

    def test_max_retries_zero_fails_fast(self, monkeypatch, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        from tests.engine import crashkit

        self._arm(monkeypatch, tmp_path, crashkit.sigkill_once_chunk)
        with pytest.raises(BrokenProcessPool):
            small_sweep(NullCache(), jobs=2, max_retries=0)

    def test_hung_chunk_times_out_and_retries(self, monkeypatch, tmp_path):
        from tests.engine import crashkit
        from repro.telemetry.core import Tracer, use_tracer

        self._arm(monkeypatch, tmp_path, crashkit.hang_once_chunk)
        with use_tracer(Tracer()) as tracer:
            survived = small_sweep(
                NullCache(), jobs=2, max_retries=2, task_timeout=2.0
            )
        assert tracer.counters["executor.chunk_timeout"] >= 1
        assert tracer.counters["executor.retry"] >= 1

        monkeypatch.setattr(
            "repro.engine.executors._run_shared_chunk",
            crashkit.REAL_RUN_SHARED_CHUNK,
        )
        serial = small_sweep(NullCache())
        assert survived.series == serial.series

    def test_rejects_bad_retry_parameters(self):
        with pytest.raises(ValueError, match="max_retries"):
            ParallelExecutor(jobs=2, max_retries=-1)
        with pytest.raises(ValueError, match="task_timeout"):
            ParallelExecutor(jobs=2, task_timeout=0)
