"""Tests for the execution backends and the cache-aware task driver.

The two load-bearing guarantees of the engine are pinned here:

* serial and process-pool execution produce **bit-identical** sweeps;
* a warm cache answers a repeated sweep with **zero** trial computations.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.engine.cache import NullCache
from repro.engine.executors import (
    ParallelExecutor,
    SerialExecutor,
    execute_task,
    run_tasks,
)
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

CONFIG = ExperimentConfig(trials=2, seed=3, cache=False, scale=0.03)

#: Fig. 6 on a small facebook surrogate, cut to two epsilons.
SPEC = replace(get_scenario("fig6"), values=(2.0, 4.0))

CLUSTERING_ATTACKS = ("clustering/rva", "clustering/rna", "clustering/mga")


class CountingExecutor(SerialExecutor):
    """Serial executor that records how many tasks actually computed."""

    def __init__(self):
        self.executed = 0

    def execute(self, tasks, graph, labels=None):
        self.executed += len(tasks)
        return super().execute(tasks, graph, labels)


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(120, 3, 0.4, rng=0)


def small_sweep(executor, cache):
    return run_scenario(SPEC, CONFIG, executor=executor, cache=cache).sweep()


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
        serial = small_sweep(SerialExecutor(), NullCache())
        parallel = small_sweep(ParallelExecutor(jobs=4), NullCache())
        assert serial.series == parallel.series
        assert serial.stderr == parallel.stderr
        assert serial.samples == parallel.samples

    def test_jobs_one_falls_back_to_serial(self):
        assert small_sweep(ParallelExecutor(jobs=1), NullCache()).series == \
            small_sweep(SerialExecutor(), NullCache()).series

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)


class TestCaching:
    def test_warm_cache_skips_all_computation(self, tmp_path):
        cache = ShardedResultStore(tmp_path)
        cold_executor = CountingExecutor()
        cold = small_sweep(cold_executor, cache)
        assert cold_executor.executed == 2 * 3 * CONFIG.trials  # values x attacks x trials

        warm_executor = CountingExecutor()
        warm = small_sweep(warm_executor, ShardedResultStore(tmp_path))
        assert warm_executor.executed == 0
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
        first = run_tasks(tasks[:1], graph, executor=SerialExecutor(), cache=cache)
        executor = CountingExecutor()
        all_gains = run_tasks(tasks, graph, executor=executor, cache=cache)
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


class TestOutOfBandLabelsParity:
    def test_parallel_applies_labels_to_every_task(self, graph):
        """Out-of-band labels reach all tasks, whatever labels_key they carry.

        SerialExecutor hands the given labels to every task; the shared-memory
        fan-out must do the same even for tasks whose labels_key is empty, or
        serial and parallel modularity gains would diverge.
        """
        import numpy as np

        labels = (np.arange(graph.num_nodes) // 25).astype(np.int64)
        tasks = [
            TrialTask(
                graph_key=graph_fingerprint(graph), metric="modularity",
                attack="clustering/mga", protocol="lfgdpr",
                epsilon=4.0, beta=0.05, gamma=0.05,
                seed=derive_trial_seed(0, f"labels-parity|{trial}"),
                labels_key="", trial=trial,
            )
            for trial in range(3)
        ]
        serial = SerialExecutor().execute(tasks, graph, labels)
        parallel = ParallelExecutor(jobs=3).execute(tasks, graph, labels)
        assert parallel == serial


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
            survived = small_sweep(
                ParallelExecutor(jobs=2, max_retries=2), NullCache()
            )
        assert marker.exists(), "the injected SIGKILL never fired"
        assert tracer.counters["executor.retry"] >= 1
        assert tracer.counters["executor.pool_recreate"] >= 1

        monkeypatch.setattr(
            "repro.engine.executors._run_shared_chunk",
            crashkit.REAL_RUN_SHARED_CHUNK,
        )
        serial = small_sweep(SerialExecutor(), NullCache())
        assert survived.series == serial.series
        assert survived.stderr == serial.stderr

    def test_max_retries_zero_fails_fast(self, monkeypatch, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        from tests.engine import crashkit

        self._arm(monkeypatch, tmp_path, crashkit.sigkill_once_chunk)
        with pytest.raises(BrokenProcessPool):
            small_sweep(
                ParallelExecutor(jobs=2, max_retries=0), NullCache()
            )

    def test_hung_chunk_times_out_and_retries(self, monkeypatch, tmp_path):
        from tests.engine import crashkit
        from repro.telemetry.core import Tracer, use_tracer

        self._arm(monkeypatch, tmp_path, crashkit.hang_once_chunk)
        with use_tracer(Tracer()) as tracer:
            survived = small_sweep(
                ParallelExecutor(jobs=2, max_retries=2, task_timeout=2.0),
                NullCache(),
            )
        assert tracer.counters["executor.chunk_timeout"] >= 1
        assert tracer.counters["executor.retry"] >= 1

        monkeypatch.setattr(
            "repro.engine.executors._run_shared_chunk",
            crashkit.REAL_RUN_SHARED_CHUNK,
        )
        serial = small_sweep(SerialExecutor(), NullCache())
        assert survived.series == serial.series

    def test_rejects_bad_retry_parameters(self):
        with pytest.raises(ValueError, match="max_retries"):
            ParallelExecutor(jobs=2, max_retries=-1)
        with pytest.raises(ValueError, match="task_timeout"):
            ParallelExecutor(jobs=2, task_timeout=0)
