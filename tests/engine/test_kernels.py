"""Tests for the engine's point kernel, the one path every task runs through.

The kernel is pure reordering: for any task list it must produce gains
bit-identical to the single-task reference (:func:`execute_task`, defined
here: the public evaluators, one ``collect_paired`` per task), emit the same
``task.execute`` span accounting, and share cache entries with the reference
in both directions.  These tests pin that contract for every point shape —
multi-trial and singleton groups, defended points, LDPGen and modularity —
plus the kernel's counters and errors.
"""

import numpy as np
import pytest

from repro.core.gain import METRICS, craft_trial, evaluate_attack
from repro.core.threat_model import ThreatModel
from repro.defenses.evaluation import evaluate_defended_attack
from repro.engine.cache import NullCache
from repro.engine.result_store import ShardedResultStore
from repro.engine.executors import Executor, SerialExecutor
from repro.engine.kernels import execute_tasks_grouped, group_by_point, point_key
from repro.engine.registry import ATTACKS, DEFENSES, PROTOCOLS
from repro.engine.tasks import TrialTask, derive_trial_seed, graph_fingerprint
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.telemetry.core import Tracer, current_tracer, use_tracer
from repro.utils.rng import child_rng
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


def execute_task(task, graph, labels=None):
    """Run one trial task through the public evaluators; its total gain.

    The single-task reference the engine's point kernel must equal: one
    ``collect_paired`` per task, no batching across trials.
    """
    with current_tracer().span(
        "task.execute",
        figure=task.figure, series=task.series, attack=task.attack,
        value=task.value, trial=task.trial,
    ):
        attack = ATTACKS.create(task.attack)
        protocol = PROTOCOLS.create(task.protocol, epsilon=task.epsilon)
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


#: Arguments under which each registered defense flags users on this graph
#: at epsilon 8 (the defaults' thresholds are sized for larger graphs).
FLAGGING_ARGS = {
    "detect1": (("threshold", 1),),
    "hybrid": (("itemset_threshold", 1),),
}


class TestKernelEqualsReference:
    @pytest.mark.parametrize("trials", [4, 1])
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("attack", ATTACKS.names())
    def test_undefended_groups(self, graph, labels, metric, attack, trials):
        tasks = make_tasks(graph, metric, attack, trials)
        task_labels = labels if metric == "modularity" else None
        kernel = execute_tasks_grouped(tasks, graph, task_labels)
        assert kernel == [execute_task(task, graph, task_labels) for task in tasks]

    @pytest.mark.parametrize("trials", [3, 1])
    @pytest.mark.parametrize("metric", ["degree_centrality", "clustering_coefficient"])
    @pytest.mark.parametrize("attack", ["degree/mga", "untargeted/concentrated"])
    @pytest.mark.parametrize("defense", DEFENSES.names())
    def test_defended_groups(self, graph, metric, attack, defense, trials):
        tasks = make_tasks(
            graph, metric, attack, trials, epsilon=8.0, tag="defended",
            defense=defense, defense_args=FLAGGING_ARGS.get(defense, ()),
        )
        kernel = execute_tasks_grouped(tasks, graph)
        assert kernel == [execute_task(task, graph) for task in tasks]

    @pytest.mark.parametrize("metric", ["degree_centrality", "clustering_coefficient"])
    @pytest.mark.parametrize(
        "attack", [name for name in ATTACKS.names() if name.startswith("untargeted/")]
    )
    def test_untargeted_gain_is_full_vector_l1(self, graph, metric, attack):
        """An untargeted task scores ||f~_after - f~_before||_1 over all N."""
        tasks = make_tasks(graph, metric, attack, 2, tag="untargeted")
        protocol = LFGDPRProtocol(epsilon=2.0)
        estimate = (
            protocol.estimate_degree_centrality
            if metric == "degree_centrality"
            else protocol.estimate_clustering_coefficient
        )
        for task, gain in zip(tasks, execute_tasks_grouped(tasks, graph)):
            threat = ThreatModel.sample(
                graph, task.beta, task.gamma, rng=child_rng(task.seed, "threat")
            )
            overrides, protocol_seed = craft_trial(
                graph, protocol, ATTACKS.create(attack), threat, task.seed
            )
            run = protocol.collect_paired(graph, protocol_seed)
            before, after = estimate(run.before), estimate(run.after(overrides))
            assert before.shape == after.shape == (graph.num_nodes,)
            assert gain == float(np.abs(after - before).sum())

    @pytest.mark.parametrize("defense", DEFENSES.names())
    def test_every_defense_flags_users(self, graph, defense):
        """At epsilon 8 on this graph every registered defense, given its
        ``FLAGGING_ARGS``, flags users: the defended cells run a repair."""
        protocol = LFGDPRProtocol(epsilon=8.0)
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        outcome = evaluate_defended_attack(
            graph, protocol, ATTACKS.create("degree/mga"),
            DEFENSES.create(defense, **dict(FLAGGING_ARGS.get(defense, ()))),
            threat, rng=2,
        )
        assert outcome.flagged.size > 0

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
        """Each run's views and estimates equal two seed-replayed collects;
        ``None`` estimates every metric off one shared run cache."""
        from repro.core.degree_attacks import DegreeMGA
        from repro.core.gain import metric_estimates

        protocol = LFGDPRProtocol(epsilon=2.0)
        seeds = [3, 11, 27]
        runs = protocol.collect_paired_batch(graph, seeds)
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        overrides, _ = craft_trial(graph, protocol, DegreeMGA(), threat, 5)
        assert len(runs) == len(seeds)
        for seed, run in zip(seeds, runs):
            before = protocol.collect(graph, seed)
            after = protocol.collect(graph, seed, overrides=overrides)
            assert_reports_identical(run.before, before)
            assert_reports_identical(run.after(overrides), after)
            for name in METRICS if metric is None else (metric,):
                batched = metric_estimates(
                    protocol, name, run.before, run.after(overrides),
                    threat.targets, labels,
                )
                replayed = metric_estimates(
                    protocol, name, before, after, threat.targets, labels
                )
                for got, expected in zip(batched, replayed):
                    assert np.array_equal(got, expected)

    def test_empty_seed_list(self, graph):
        assert LFGDPRProtocol(epsilon=2.0).collect_paired_batch(graph, []) == []


class TestHonestPlanePackedOnce:
    """A paired run's honest plane is packed at most once, by whichever
    estimator first needs it, and never for metrics that read no plane."""

    @pytest.fixture
    def packs(self, call_counts):
        from repro.graph import bitmatrix, bittensor

        counts, spy = call_counts
        for module in (bitmatrix, bittensor):
            spy(module, "pack_symmetric_plane", "pack")
        return counts

    def test_clustering_evaluate_attack_packs_one_plane(self, graph, packs):
        from repro.core.clustering_attacks import ClusteringMGA

        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        with use_tracer(Tracer()) as tracer:
            evaluate_attack(
                graph, LFGDPRProtocol(epsilon=2.0), ClusteringMGA(), threat,
                metric="clustering_coefficient", rng=5,
            )
        # Both views count at the targets only; the after-view patches the
        # honest plane's rows instead of packing, and no delta path runs.
        assert tracer.counters.get("triangles.at_nodes") == 2
        assert tracer.counters.get("backend.packed") == 1
        assert not any(name.startswith("delta.") for name in tracer.counters)
        assert packs["pack"] == 1

    @pytest.mark.parametrize("trials", [3, 1])
    def test_degree_point_packs_no_plane(self, graph, packs, trials):
        tasks = make_tasks(graph, "degree_centrality", "degree/mga", trials)
        execute_tasks_grouped(tasks, graph)
        assert packs["pack"] == 0

    def test_modularity_point_packs_no_plane(self, graph, labels, packs):
        # Intra-community counts bucket edges; no estimator reads a plane.
        tasks = make_tasks(graph, "modularity", "clustering/mga", 3)
        execute_tasks_grouped(tasks, graph, labels)
        assert packs["pack"] == 0

    def test_clustering_point_packs_one_plane_per_trial(self, graph, packs):
        tasks = make_tasks(graph, "clustering_coefficient", "clustering/mga", 3)
        with use_tracer(Tracer()) as tracer:
            execute_tasks_grouped(tasks, graph)
        assert tracer.counters.get("triangles.at_nodes") == 6
        assert not any(name.startswith("delta.") for name in tracer.counters)
        assert packs["pack"] == 3
