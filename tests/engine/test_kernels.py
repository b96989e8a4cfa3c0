"""Tests for cross-trial batched dispatch of same-point task groups.

The batched kernel path is pure reordering: for any task list it must
produce gains bit-identical to the scalar per-trial loop, emit the same
``task.execute`` span accounting, and share cache entries with the scalar
path in both directions.  These tests pin that contract plus the routing
rules (who batches, who falls back) and the ``REPRO_BATCH_TRIALS`` knob.
"""

import numpy as np
import pytest

from repro.engine.cache import NullCache, ResultCache
from repro.engine.executors import SerialExecutor, execute_task, run_tasks
from repro.engine.kernels import (
    BATCH_TRIALS_ENV,
    batch_trials_enabled,
    execute_tasks_grouped,
    group_by_point,
    point_key,
)
from repro.engine.tasks import TrialTask, derive_trial_seed, graph_fingerprint
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.telemetry.core import Tracer, use_tracer


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(120, 3, 0.4, rng=0)


@pytest.fixture(scope="module")
def labels(graph):
    return (np.arange(graph.num_nodes) // 30).astype(np.int64)


def make_tasks(graph, metric, attack, trials, *, epsilon=2.0, tag="kern", **extra):
    return [
        TrialTask(
            graph_key=graph_fingerprint(graph), metric=metric, attack=attack,
            protocol="lfgdpr", epsilon=epsilon, beta=0.05, gamma=0.05,
            seed=derive_trial_seed(0, f"{tag}|{metric}|{attack}|{epsilon}|{trial}"),
            trial=trial, **extra,
        )
        for trial in range(trials)
    ]


class TestPointGrouping:
    def test_trials_of_one_point_share_a_key(self, graph):
        tasks = make_tasks(graph, "degree_centrality", "degree/rva", 3)
        keys = {point_key(task) for task in tasks}
        assert len(keys) == 1
        assert group_by_point(tasks) == [[0, 1, 2]]

    def test_identity_fields_split_groups(self, graph):
        base = make_tasks(graph, "degree_centrality", "degree/rva", 2)
        other_eps = make_tasks(
            graph, "degree_centrality", "degree/rva", 2, epsilon=4.0
        )
        other_metric = make_tasks(graph, "clustering_coefficient", "clustering/mga", 2)
        defended = [
            TrialTask(
                graph_key=base[0].graph_key, metric="degree_centrality",
                attack="degree/rva", protocol="lfgdpr", epsilon=2.0,
                beta=0.05, gamma=0.05, seed=base[t].seed, trial=t,
                defense="detect1", defense_args=(("threshold", 50),),
            )
            for t in range(2)
        ]
        tasks = base + other_eps + other_metric + defended
        groups = group_by_point(tasks)
        assert groups == [[0, 1], [2, 3], [4, 5], [6, 7]]

    def test_interleaved_trials_regroup_in_input_order(self, graph):
        a = make_tasks(graph, "degree_centrality", "degree/rva", 2)
        b = make_tasks(graph, "degree_centrality", "degree/mga", 2)
        interleaved = [a[0], b[0], a[1], b[1]]
        assert group_by_point(interleaved) == [[0, 2], [1, 3]]


class TestBatchTrialsKnob:
    def test_default_enabled(self, monkeypatch):
        monkeypatch.delenv(BATCH_TRIALS_ENV, raising=False)
        assert batch_trials_enabled()

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(BATCH_TRIALS_ENV, "0")
        assert not batch_trials_enabled()

    def test_one_enables(self, monkeypatch):
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        assert batch_trials_enabled()


METRIC_ATTACKS = [
    ("degree_centrality", "degree/rva"),
    ("degree_centrality", "degree/mga"),
    ("clustering_coefficient", "clustering/mga"),
    ("modularity", "clustering/mga"),
]


class TestBatchedScalarEquality:
    @pytest.mark.parametrize("metric,attack", METRIC_ATTACKS)
    def test_gains_bit_identical(self, graph, labels, metric, attack, monkeypatch):
        tasks = make_tasks(graph, metric, attack, 4)
        task_labels = labels if metric == "modularity" else None
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        batched = execute_tasks_grouped(tasks, graph, task_labels)
        monkeypatch.setenv(BATCH_TRIALS_ENV, "0")
        scalar = execute_tasks_grouped(tasks, graph, task_labels)
        direct = [execute_task(task, graph, task_labels) for task in tasks]
        assert batched == scalar == direct

    def test_mixed_points_keep_input_order(self, graph, monkeypatch):
        a = make_tasks(graph, "degree_centrality", "degree/rva", 3)
        b = make_tasks(graph, "degree_centrality", "degree/mga", 3, epsilon=4.0)
        interleaved = [a[0], b[0], a[1], b[1], a[2], b[2]]
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        batched = execute_tasks_grouped(interleaved, graph)
        expected = [execute_task(task, graph) for task in interleaved]
        assert batched == expected


class TestRoutingAndCounters:
    def test_batched_group_counts_tasks_and_spans(self, graph, monkeypatch):
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        tasks = make_tasks(graph, "degree_centrality", "degree/rva", 3)
        with use_tracer(Tracer()) as tracer:
            execute_tasks_grouped(tasks, graph)
        assert tracer.counters.get("kernel.batched") == 3
        assert "kernel.scalar" not in tracer.counters
        executed = [s for s in tracer.spans if s.name == "task.execute"]
        assert len(executed) == len(tasks)
        assert sorted(s.attributes["trial"] for s in executed) == [0, 1, 2]

    def test_disabled_env_routes_scalar(self, graph, monkeypatch):
        monkeypatch.setenv(BATCH_TRIALS_ENV, "0")
        tasks = make_tasks(graph, "degree_centrality", "degree/rva", 3)
        with use_tracer(Tracer()) as tracer:
            execute_tasks_grouped(tasks, graph)
        assert tracer.counters.get("kernel.scalar") == 3
        assert "kernel.batched" not in tracer.counters
        assert len([s for s in tracer.spans if s.name == "task.execute"]) == 3

    def test_singletons_route_scalar(self, graph, monkeypatch):
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        tasks = make_tasks(graph, "degree_centrality", "degree/rva", 1)
        with use_tracer(Tracer()) as tracer:
            execute_tasks_grouped(tasks, graph)
        assert tracer.counters.get("kernel.scalar") == 1

    def test_defended_tasks_route_scalar(self, graph, monkeypatch):
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        tasks = [
            TrialTask(
                graph_key=graph_fingerprint(graph), metric="degree_centrality",
                attack="degree/rva", protocol="lfgdpr", epsilon=2.0,
                beta=0.05, gamma=0.05,
                seed=derive_trial_seed(0, f"defended|{trial}"), trial=trial,
                defense="detect1", defense_args=(("threshold", 50),),
            )
            for trial in range(2)
        ]
        with use_tracer(Tracer()) as tracer:
            gains = execute_tasks_grouped(tasks, graph)
        assert tracer.counters.get("kernel.scalar") == 2
        assert gains == [execute_task(task, graph) for task in tasks]


class TestCacheInterchangeability:
    def test_batched_cold_fills_cache_scalar_warm_reads_it(
        self, graph, tmp_path, monkeypatch
    ):
        tasks = make_tasks(graph, "clustering_coefficient", "clustering/mga", 3)
        monkeypatch.setenv(BATCH_TRIALS_ENV, "1")
        cold = run_tasks(
            tasks, graph, executor=SerialExecutor(), cache=ResultCache(tmp_path)
        )
        monkeypatch.setenv(BATCH_TRIALS_ENV, "0")
        warm_cache = ResultCache(tmp_path)
        warm = run_tasks(tasks, graph, executor=SerialExecutor(), cache=warm_cache)
        assert warm == cold
        assert warm_cache.hits == len(tasks)
        fresh = run_tasks(tasks, graph, executor=SerialExecutor(), cache=NullCache())
        assert fresh == cold


class TestCollectPairedBatch:
    @pytest.mark.parametrize("metric", [
        "degree_centrality", "clustering_coefficient", "modularity",
    ])
    def test_runs_bit_identical_to_collect_paired(self, graph, labels, metric):
        protocol = LFGDPRProtocol(epsilon=2.0)
        seeds = [3, 11, 27]
        batch_labels = labels if metric == "modularity" else None
        runs = protocol.collect_paired_batch(
            graph, seeds, metric=metric, labels=batch_labels
        )
        assert len(runs) == len(seeds)
        for seed, run in zip(seeds, runs):
            single = protocol.collect_paired(graph, seed)
            assert np.array_equal(
                run.before.perturbed_graph.edge_codes,
                single.before.perturbed_graph.edge_codes,
            )
            assert np.array_equal(
                run.before.reported_degrees, single.before.reported_degrees
            )

    def test_empty_seed_list(self, graph):
        assert LFGDPRProtocol(epsilon=2.0).collect_paired_batch(graph, []) == []

    @pytest.mark.parametrize("slack,expected", [(-1, [1, 1, 1]), (0, [2, 1])])
    def test_tensor_chunks_sized_by_padded_plane_bytes(
        self, graph, slack, expected, monkeypatch
    ):
        from repro.graph.bitmatrix import packed_bytes
        from repro.protocols import lfgdpr

        sizes = []
        real = lfgdpr.BitTensor.from_graphs

        def recording(graphs):
            graphs = list(graphs)
            sizes.append(len(graphs))
            return real(graphs)

        monkeypatch.setattr(lfgdpr.BitTensor, "from_graphs", recording)
        # One byte under two padded planes fits one plane per tensor only.
        cap = 2 * packed_bytes(graph.num_nodes) + slack
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(cap))
        LFGDPRProtocol(epsilon=2.0).collect_paired_batch(
            graph, [3, 11, 27], metric="clustering_coefficient"
        )
        assert sizes == expected
