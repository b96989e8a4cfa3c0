"""Tests for the engine's point kernel, the one path every task runs through.

The kernel is pure reordering: for any task list it must produce gains
bit-identical to the single-task reference (``execute_task``), emit the same
``task.execute`` span accounting, and share cache entries with the reference
in both directions.  These tests pin that contract for every point shape —
multi-trial and singleton groups, defended points, LDPGen and modularity —
plus the kernel's counters and errors.
"""

import numpy as np
import pytest

from repro.engine.cache import NullCache
from repro.engine.result_store import ShardedResultStore
from repro.engine.executors import Executor, SerialExecutor, execute_task
from repro.engine.kernels import execute_tasks_grouped, group_by_point, point_key
from repro.engine.tasks import TrialTask, derive_trial_seed, graph_fingerprint
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.telemetry.core import Tracer, use_tracer
from tests.conftest import run_on_graph


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(120, 3, 0.4, rng=0)


@pytest.fixture(scope="module")
def labels(graph):
    return (np.arange(graph.num_nodes) // 30).astype(np.int64)


def make_tasks(
    graph, metric, attack, trials, *, epsilon=2.0, tag="kern", protocol="lfgdpr", **extra
):
    return [
        TrialTask(
            graph_key=graph_fingerprint(graph), metric=metric, attack=attack,
            protocol=protocol, epsilon=epsilon, beta=0.05, gamma=0.05,
            seed=derive_trial_seed(0, f"{tag}|{metric}|{attack}|{epsilon}|{trial}"),
            trial=trial, **extra,
        )
        for trial in range(trials)
    ]


class ReferenceExecutor(Executor):
    """Runs every task through the single-task reference, one at a time."""

    def execute_batch(self, tasks, store):
        return [
            execute_task(task, store.graph(task.graph_key), store.labels(task.labels_key))
            for task in tasks
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


METRIC_ATTACKS = [
    ("degree_centrality", "degree/rva"),
    ("degree_centrality", "degree/mga"),
    ("clustering_coefficient", "clustering/mga"),
    ("modularity", "clustering/mga"),
]

#: Defended points: the paper's two detectors and a naive baseline.
DEFENSES = [
    ("detect1", (("threshold", 1),)),
    ("detect2", ()),
    ("naive1", ()),
]


class TestKernelEqualsReference:
    @pytest.mark.parametrize("trials", [4, 1])
    @pytest.mark.parametrize("metric,attack", METRIC_ATTACKS)
    def test_undefended_groups(self, graph, labels, metric, attack, trials):
        tasks = make_tasks(graph, metric, attack, trials)
        task_labels = labels if metric == "modularity" else None
        kernel = execute_tasks_grouped(tasks, graph, task_labels)
        assert kernel == [execute_task(task, graph, task_labels) for task in tasks]

    @pytest.mark.parametrize("trials", [3, 1])
    @pytest.mark.parametrize("metric", ["degree_centrality", "clustering_coefficient"])
    @pytest.mark.parametrize("defense,defense_args", DEFENSES)
    def test_defended_groups(self, graph, metric, defense, defense_args, trials):
        # At epsilon 8 every listed defense flags users on this graph.
        tasks = make_tasks(
            graph, metric, "degree/mga", trials, epsilon=8.0, tag="defended",
            defense=defense, defense_args=defense_args,
        )
        kernel = execute_tasks_grouped(tasks, graph)
        assert kernel == [execute_task(task, graph) for task in tasks]

    @pytest.mark.parametrize("metric", ["degree_centrality", "modularity"])
    def test_ldpgen_groups(self, graph, labels, metric):
        tasks = make_tasks(graph, metric, "degree/mga", 2, protocol="ldpgen")
        task_labels = labels if metric == "modularity" else None
        kernel = execute_tasks_grouped(tasks, graph, task_labels)
        assert kernel == [execute_task(task, graph, task_labels) for task in tasks]

    def test_mixed_points_keep_input_order(self, graph):
        a = make_tasks(graph, "degree_centrality", "degree/rva", 3)
        b = make_tasks(graph, "degree_centrality", "degree/mga", 3, epsilon=4.0)
        interleaved = [a[0], b[0], a[1], b[1], a[2], b[2]]
        kernel = execute_tasks_grouped(interleaved, graph)
        assert kernel == [execute_task(task, graph) for task in interleaved]


class TestCountersAndErrors:
    def test_every_task_counts_as_batched(self, graph):
        tasks = (
            make_tasks(graph, "degree_centrality", "degree/rva", 3)
            + make_tasks(graph, "degree_centrality", "degree/mga", 1, tag="single")
            + make_tasks(
                graph, "degree_centrality", "degree/rva", 2, tag="defended",
                defense="detect1", defense_args=(("threshold", 50),),
            )
            + make_tasks(graph, "degree_centrality", "degree/mga", 2, protocol="ldpgen")
        )
        with use_tracer(Tracer()) as tracer:
            execute_tasks_grouped(tasks, graph)
        assert tracer.counters.get("kernel.batched") == len(tasks)
        assert "kernel.scalar" not in tracer.counters
        executed = [s for s in tracer.spans if s.name == "task.execute"]
        assert len(executed) == len(tasks)
        assert sorted(s.attributes["trial"] for s in executed) == [0, 0, 0, 0, 1, 1, 1, 2]

    def test_unknown_metric_raises_like_evaluate_attack(self, graph):
        tasks = make_tasks(graph, "pagerank", "degree/rva", 2)
        with pytest.raises(ValueError, match="metric must be one of"):
            execute_tasks_grouped(tasks, graph)
        with pytest.raises(ValueError, match="metric must be one of"):
            execute_task(tasks[0], graph)

    def test_modularity_without_labels_raises(self, graph):
        tasks = make_tasks(graph, "modularity", "clustering/mga", 2)
        with pytest.raises(ValueError, match="requires community labels"):
            execute_tasks_grouped(tasks, graph)

    def test_unknown_protocol_raises_registry_key_error(self, graph):
        tasks = make_tasks(graph, "degree_centrality", "degree/rva", 2, protocol="nope")
        with pytest.raises(KeyError, match="unknown protocol 'nope'"):
            execute_tasks_grouped(tasks, graph)


class TestCacheInterchangeability:
    @pytest.mark.parametrize("cold_executor,warm_executor", [
        (SerialExecutor, ReferenceExecutor),
        (ReferenceExecutor, SerialExecutor),
    ])
    def test_one_path_fills_cache_other_reads_it(
        self, graph, tmp_path, cold_executor, warm_executor
    ):
        tasks = make_tasks(graph, "clustering_coefficient", "clustering/mga", 3)
        cold = run_on_graph(
            tasks, graph, executor=cold_executor(), cache=ShardedResultStore(tmp_path)
        )
        warm_cache = ShardedResultStore(tmp_path)
        warm = run_on_graph(tasks, graph, executor=warm_executor(), cache=warm_cache)
        assert warm == cold
        assert warm_cache.hits == len(tasks)
        fresh = run_on_graph(tasks, graph, executor=warm_executor(), cache=NullCache())
        assert fresh == cold


def assert_reports_identical(first, second):
    assert np.array_equal(
        first.perturbed_graph.edge_codes, second.perturbed_graph.edge_codes
    )
    assert np.array_equal(first.reported_degrees, second.reported_degrees)
    assert np.array_equal(first.overridden, second.overridden)


class TestCollectPairedBatch:
    @pytest.mark.parametrize("metric", [
        None, "degree_centrality", "clustering_coefficient", "modularity",
    ])
    def test_runs_match_seed_replayed_collects(self, graph, labels, metric):
        from repro.core.degree_attacks import DegreeMGA
        from repro.core.gain import craft_trial
        from repro.core.threat_model import ThreatModel

        protocol = LFGDPRProtocol(epsilon=2.0)
        seeds = [3, 11, 27]
        batch_labels = labels if metric == "modularity" else None
        runs = protocol.collect_paired_batch(
            graph, seeds, metric=metric, labels=batch_labels
        )
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        overrides, _ = craft_trial(graph, protocol, DegreeMGA(), threat, 5)
        assert len(runs) == len(seeds)
        for seed, run in zip(seeds, runs):
            assert_reports_identical(run.before, protocol.collect(graph, seed))
            assert_reports_identical(
                run.after(overrides), protocol.collect(graph, seed, overrides=overrides)
            )

    def test_empty_seed_list(self, graph):
        assert LFGDPRProtocol(epsilon=2.0).collect_paired_batch(graph, []) == []

    @pytest.mark.parametrize("slack,expected", [(-1, [1, 1, 1]), (0, [2, 1])])
    def test_tensor_chunks_sized_by_padded_plane_bytes(
        self, graph, slack, expected, monkeypatch
    ):
        from repro.graph.bitmatrix import packed_bytes, packing_bytes
        from repro.protocols import lfgdpr

        sizes = []
        real = lfgdpr.BitTensor.from_graphs

        def recording(graphs):
            graphs = list(graphs)
            sizes.append(len(graphs))
            return real(graphs)

        monkeypatch.setattr(lfgdpr.BitTensor, "from_graphs", recording)
        # The shared byte scratch plus one byte under two padded planes fits
        # one plane per tensor only.
        cap = packing_bytes(graph.num_nodes) + packed_bytes(graph.num_nodes) + slack
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(cap))
        LFGDPRProtocol(epsilon=2.0).collect_paired_batch(
            graph, [3, 11, 27], metric="clustering_coefficient"
        )
        assert sizes == expected
