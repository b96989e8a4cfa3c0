"""Tests for the paired-run collection path and its bit-identity contract.

``collect_paired`` must be indistinguishable — graph, degree reports and
every downstream estimate — from two independent ``collect`` calls replaying
the same seed.  These tests pin that contract for both protocols, for the
whole evaluation pipeline (undefended and defended), and for the override
plumbing the shared path relies on.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.degree_attacks import DegreeMGA
from repro.core.gain import craft_trial, evaluate_attack
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.defenses.evaluation import evaluate_defended_attack
from repro.defenses.naive import NaiveTopDegreeDefense
from repro.engine.registry import ATTACKS, DEFENSES
from repro.graph import metrics
from repro.graph.adjacency import Graph
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.base import (
    FakeReport,
    apply_degree_overrides,
    apply_overrides,
    apply_overrides_tracked,
)
from repro.protocols.ldpgen import LDPGenProtocol
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.telemetry.core import Tracer, use_tracer
from repro.utils.rng import child_rng


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(90, 3, 0.4, rng=0)


def replace_overrides(num_nodes):
    return {
        2: FakeReport(claimed_neighbors=[5, 9, 11], reported_degree=3.0),
        7: FakeReport(claimed_neighbors=[2, 30], reported_degree=2.0),
    }


def augment_overrides():
    return {
        4: FakeReport(claimed_neighbors=[8], reported_degree=0.0, augment=True, degree_delta=1.0),
        13: FakeReport(claimed_neighbors=[4, 20], reported_degree=0.0, augment=True, degree_delta=2.0),
    }


def assert_reports_identical(first, second):
    assert first.perturbed_graph.num_nodes == second.perturbed_graph.num_nodes
    assert np.array_equal(first.perturbed_graph.edge_codes, second.perturbed_graph.edge_codes)
    assert np.array_equal(first.reported_degrees, second.reported_degrees)
    assert np.array_equal(first.overridden, second.overridden)
    assert first.adjacency_epsilon == second.adjacency_epsilon
    assert first.degree_epsilon == second.degree_epsilon


class TestSharedCollectionBitIdentity:
    @pytest.mark.parametrize("protocol_factory", [
        lambda: LFGDPRProtocol(epsilon=4.0),
        lambda: LDPGenProtocol(epsilon=4.0, refined_groups=4),
    ])
    @pytest.mark.parametrize("make_overrides", [replace_overrides, lambda *_: augment_overrides()])
    def test_views_match_seed_replayed_collects(self, graph, protocol_factory, make_overrides):
        protocol = protocol_factory()
        overrides = make_overrides(graph.num_nodes)
        seed = 1234
        run = protocol.collect_paired(graph, seed)
        assert_reports_identical(run.before, protocol.collect(graph, seed))
        assert_reports_identical(
            run.after(overrides), protocol.collect(graph, seed, overrides=overrides)
        )

    def test_after_without_overrides_is_the_before_view(self, graph):
        run = LFGDPRProtocol(epsilon=4.0).collect_paired(graph, 7)
        assert run.after(None) is run.before
        assert run.after({}) is run.before

    def test_seeded_after_degrees_match_recount(self, graph):
        """The degree array seeded from honest + net changes is exact."""
        run = LFGDPRProtocol(epsilon=2.0).collect_paired(graph, 3)
        after = run.after(replace_overrides(graph.num_nodes))
        seeded = after.perturbed_graph.degrees()
        rows, cols = after.perturbed_graph.edge_arrays()
        recount = (
            np.bincount(rows, minlength=graph.num_nodes)
            + np.bincount(cols, minlength=graph.num_nodes)
        )
        assert np.array_equal(seeded, recount)

    def test_generator_rejected(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        with pytest.raises(TypeError, match="replayable seed"):
            protocol.collect_paired(graph, np.random.default_rng(0))
        with pytest.raises(TypeError, match="replayable seed"):
            LDPGenProtocol(epsilon=4.0).collect_paired(graph, np.random.default_rng(0))


class TestPairedBatch:
    """The trials of one point, collected as one batch of paired runs."""

    @pytest.mark.parametrize("num_communities", [1, 4, 9])
    def test_intra_counts_match_per_run_bucketing(self, graph, num_communities):
        """Each run's cached honest count and its after view's adjusted
        count equal bucketing that run's own edges."""
        protocol = LFGDPRProtocol(epsilon=2.0)
        labels = np.arange(graph.num_nodes, dtype=np.int64) % num_communities
        overrides = replace_overrides(graph.num_nodes)
        for run in protocol.collect_paired_batch(graph, [3, 11, 27]):
            for view in (run.before, run.after(overrides)):
                rows, cols = view.perturbed_graph.edge_arrays()
                same = labels[rows] == labels[cols]
                expected = np.bincount(labels[rows[same]], minlength=num_communities)
                assert np.array_equal(protocol._paired_intra(view, labels), expected)

    def test_ldpgen_batch_is_collect_paired_per_seed(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0, refined_groups=4)
        overrides = replace_overrides(graph.num_nodes)
        seeds = [5, 6]
        runs = protocol.collect_paired_batch(graph, seeds)
        assert len(runs) == len(seeds)
        for seed, run in zip(seeds, runs):
            single = protocol.collect_paired(graph, seed)
            assert_reports_identical(run.before, single.before)
            assert_reports_identical(run.after(overrides), single.after(overrides))


def seed_replay_reference(graph, protocol, attack, threat, metric, seed, labels=None,
                          defense=None):
    """Before/after target estimates from two seed-replayed ``collect`` calls.

    Written out independently of ``repro.core.gain``: the attacker crafts on
    the ``"attack-craft"`` child of ``seed``, both worlds are collected from
    scratch with the ``"protocol-run"`` seed, and the optional defense
    repairs the attacked world before estimation.
    """
    knowledge = AttackerKnowledge.from_protocol(protocol, graph)
    overrides = attack.craft(graph, threat, knowledge, rng=child_rng(seed, "attack-craft"))
    protocol_seed = int(child_rng(seed, "protocol-run").integers(2**63 - 1))
    before_reports = protocol.collect(graph, protocol_seed)
    after_reports = protocol.collect(graph, protocol_seed, overrides=overrides)
    flagged = None
    if defense is not None:
        after_reports, flagged = defense.apply(after_reports)
    estimates = []
    for reports in (before_reports, after_reports):
        if metric == "degree_centrality":
            estimates.append(protocol.estimate_degree_centrality(reports)[threat.targets])
        elif metric == "clustering_coefficient":
            estimates.append(protocol.estimate_clustering_coefficient(reports)[threat.targets])
        else:
            estimates.append(np.array([protocol.estimate_modularity(reports, labels)]))
    return estimates[0], estimates[1], flagged


class TestEvaluationPipelineEquivalence:
    """The paired evaluation matches an explicit two-collection reference."""

    @pytest.mark.parametrize("metric", ["degree_centrality", "clustering_coefficient", "modularity"])
    def test_evaluate_attack_matches_seed_replay(self, graph, metric):
        labels = np.arange(graph.num_nodes) % 4
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        protocol = LFGDPRProtocol(epsilon=4.0)

        outcome = evaluate_attack(
            graph, protocol, DegreeMGA(), threat, metric=metric, rng=11, labels=labels
        )
        before, after, _ = seed_replay_reference(
            graph, protocol, DegreeMGA(), threat, metric, 11, labels=labels
        )
        assert np.array_equal(outcome.before, before)
        assert np.array_equal(outcome.after, after)
        assert outcome.total_gain == float(np.abs(after - before).sum())

    def test_evaluate_attack_matches_across_thresholds(self, graph, monkeypatch):
        """``DELTA_THRESHOLD`` does not steer clustering: on either side of it
        both views count triangles at the targets only, with the same bits."""
        threat = ThreatModel.sample(graph, 0.1, 0.05, rng=2)
        protocol = LFGDPRProtocol(epsilon=2.0)
        gains = []
        for threshold in (0.0, 1.0):
            monkeypatch.setattr(metrics, "DELTA_THRESHOLD", threshold)
            with use_tracer(Tracer()) as tracer:
                outcome = evaluate_attack(
                    graph, protocol, DegreeMGA(), threat,
                    metric="clustering_coefficient", rng=5,
                )
            assert tracer.counters.get("triangles.at_nodes") == 2
            assert not any(name.startswith("delta.") for name in tracer.counters)
            gains.append(outcome.after.tolist())
        assert gains[0] == gains[1]

    def test_defended_evaluation_matches_seed_replay(self, graph):
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=3)
        protocol = LFGDPRProtocol(epsilon=4.0)
        defense = NaiveTopDegreeDefense()
        outcome = evaluate_defended_attack(
            graph, protocol, DegreeMGA(), defense, threat,
            metric="clustering_coefficient", rng=21,
        )
        before, after, flagged = seed_replay_reference(
            graph, protocol, DegreeMGA(), threat, "clustering_coefficient", 21,
            defense=defense,
        )
        assert np.array_equal(outcome.before, before)
        assert np.array_equal(outcome.after_defended, after)
        assert np.array_equal(outcome.flagged, flagged)

    def test_ldpgen_evaluation_matches_seed_replay(self, graph):
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=4)
        protocol = LDPGenProtocol(epsilon=4.0, refined_groups=4)
        outcome = evaluate_attack(
            graph, protocol, DegreeMGA(), threat, metric="degree_centrality", rng=9
        )
        before, after, _ = seed_replay_reference(
            graph, protocol, DegreeMGA(), threat, "degree_centrality", 9
        )
        assert np.array_equal(outcome.before, before)
        assert np.array_equal(outcome.after, after)


class TestAugmentCollisionRegression:
    """Augment-mode extra edges colliding with surviving RR pairs (the
    scenario RNA creates when its crafted edge survived perturbation)."""

    def test_colliding_claim_deduped_and_degree_shift_exact(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(6, [(0, 1), (0, 2), (3, 4)])
        overrides = {
            0: FakeReport(
                claimed_neighbors=[1, 5],  # (0, 1) already survived RR
                reported_degree=0.0,
                augment=True,
                degree_delta=2.0,
            )
        }
        graph, overridden = apply_overrides(perturbed, overrides)
        assert overridden.tolist() == [0]
        # The collision is deduplicated: (0, 1) appears once, (0, 5) is new,
        # untouched pairs survive.
        assert sorted(graph.edges()) == [(0, 1), (0, 2), (0, 5), (3, 4)]
        assert graph.num_edges == 4

        noisy = np.array([3.1, 1.0, 1.0, 1.2, 1.2, 0.0])
        reported = apply_degree_overrides(noisy, overrides)
        # Exactly degree_delta on the augmenting user, nobody else moves.
        assert reported[0] == noisy[0] + 2.0
        assert np.array_equal(reported[1:], noisy[1:])

    def test_tracked_changes_exclude_collisions(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(6, [(0, 1), (0, 2), (3, 4)])
        overrides = {
            0: FakeReport(
                claimed_neighbors=[1, 5], reported_degree=0.0, augment=True, degree_delta=2.0
            )
        }
        graph, overridden, added, removed = apply_overrides_tracked(perturbed, overrides, {})
        # Only the genuinely new pair is a net addition; nothing was removed
        # (augment keeps the user's RR pairs).
        rows, cols = Graph.from_codes(6, added).edge_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 5)]
        assert removed.size == 0

    def test_replace_readding_dropped_pair_nets_out(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(5, [(0, 1), (0, 2)])
        overrides = {0: FakeReport(claimed_neighbors=[1, 3], reported_degree=2.0)}
        graph, _, added, removed = apply_overrides_tracked(perturbed, overrides, {})
        assert sorted(graph.edges()) == [(0, 1), (0, 3)]
        # (0, 1) was dropped and re-claimed: no net change either way.
        add_pairs = list(zip(*Graph.from_codes(5, added).edge_arrays()))
        drop_pairs = list(zip(*Graph.from_codes(5, removed).edge_arrays()))
        assert add_pairs == [(0, 3)]
        assert drop_pairs == [(0, 2)]


class TestVectorizedOverridePlumbing:
    def test_degree_overrides_mixed_modes(self):
        noisy = np.array([1.0, 2.0, 3.0, 4.0])
        overrides = {
            0: FakeReport(claimed_neighbors=[1], reported_degree=9.0),
            2: FakeReport(claimed_neighbors=[3], reported_degree=0.0, augment=True, degree_delta=-1.5),
        }
        result = apply_degree_overrides(noisy, overrides)
        assert result.tolist() == [9.0, 2.0, 1.5, 4.0]
        assert noisy.tolist() == [1.0, 2.0, 3.0, 4.0]  # input untouched

    def test_self_loop_rejected_with_offender_named(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(4, [(0, 1)])
        overrides = {2: FakeReport(claimed_neighbors=[2], reported_degree=1.0)}
        with pytest.raises(ValueError, match="fake user 2 claims a self-loop"):
            apply_overrides(perturbed, overrides)

    def test_out_of_range_neighbor_rejected_with_offender_named(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(4, [(0, 1)])
        overrides = {1: FakeReport(claimed_neighbors=[99], reported_degree=1.0)}
        with pytest.raises(ValueError, match="fake user 1 claims out-of-range neighbor 99"):
            apply_overrides(perturbed, overrides)

    def test_out_of_range_fake_id_rejected(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(4, [(0, 1)])
        overrides = {9: FakeReport(claimed_neighbors=[0], reported_degree=1.0)}
        with pytest.raises(ValueError, match="out of range"):
            apply_overrides(perturbed, overrides)


class TestPairedFootprint:
    """A paired run holds the honest state plus the attacker's net edit."""

    def test_run_is_freed_by_refcount(self, graph):
        """No view refers to itself: with the cyclic collector off, the
        honest reports die as soon as the run and its views are dropped."""
        protocol = LFGDPRProtocol(epsilon=2.0)
        targets = np.array([1, 3, 8], dtype=np.int64)
        enabled = gc.isenabled()
        gc.disable()
        try:
            run = protocol.collect_paired(graph, 17)
            after = run.after(replace_overrides(graph.num_nodes))
            for view in (run.before, after):  # fill the run's cache
                protocol.estimate_clustering_coefficient(view, targets)
                protocol.estimate_degree_centrality(view)
            honest = weakref.ref(run.before)
            del run, after, view
            assert honest() is None, "the honest view outlived its run"
        finally:
            if enabled:
                gc.enable()

    def test_honest_plane_is_decoded_once(self, graph, monkeypatch):
        """Override application, the honest degrees and the packed count
        all read the run's one decode of the honest plane."""
        from repro.graph import adjacency

        protocol = LFGDPRProtocol(epsilon=2.0)
        run = protocol.collect_paired(graph, 17)
        honest_edges = run.before.perturbed_graph.num_edges
        decodes = []
        real = adjacency.decode_pairs

        def counted(codes, n):
            decodes.append(np.asarray(codes).size)
            return real(codes, n)

        monkeypatch.setattr(adjacency, "decode_pairs", counted)
        monkeypatch.setattr(metrics, "triangle_backend", lambda graph: "packed")
        after = run.after(replace_overrides(graph.num_nodes))
        for view in (run.before, after):
            protocol.estimate_clustering_coefficient(view, np.array([1, 3, 8]))
            protocol.estimate_degree_centrality(view)
        assert decodes.count(honest_edges) == 1
        assert "edges" in run.before.baseline.cache

    @pytest.mark.parametrize("attack_name", ATTACKS.names())
    def test_after_view_equals_the_seed_replayed_collect(self, graph, attack_name):
        """Every registered attack's after-view: its edge count and seeded
        degrees before the build, and its built codes, equal the
        independent ``collect`` and a from-scratch recount."""
        protocol = LFGDPRProtocol(epsilon=2.0)
        threat = ThreatModel.sample(graph, 0.1, 0.05, rng=4)
        overrides, seed = craft_trial(graph, protocol, ATTACKS.create(attack_name), threat, 9)
        with use_tracer(Tracer()) as tracer:
            view = protocol.collect_paired(graph, seed).after(overrides).perturbed_graph
            num_edges, degrees = view.num_edges, np.array(view.degrees())
            assert tracer.counters.get("overrides.materialized", 0) == 0
            codes = view.edge_codes
            view.edge_codes
            assert tracer.counters["overrides.materialized"] == 1, "built exactly once"
        reference = protocol.collect(graph, seed, overrides=overrides).perturbed_graph
        recount = Graph.from_codes(graph.num_nodes, codes)
        assert np.array_equal(codes, reference.edge_codes)
        assert num_edges == reference.num_edges == codes.size
        assert np.array_equal(degrees, reference.degrees())
        assert np.array_equal(degrees, recount.degrees())

    @pytest.mark.parametrize(
        "metric", ["degree_centrality", "clustering_coefficient", "modularity"]
    )
    def test_undefended_estimation_never_builds_the_after_graph(self, graph, metric):
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        with use_tracer(Tracer()) as tracer:
            evaluate_attack(
                graph, LFGDPRProtocol(epsilon=2.0), DegreeMGA(), threat,
                metric=metric, rng=5, labels=np.arange(graph.num_nodes) % 4,
            )
        assert tracer.counters.get("overrides.materialized", 0) == 0

    @pytest.mark.parametrize("defense_name", DEFENSES.names())
    def test_a_defense_never_builds_the_after_graph(self, graph, defense_name):
        """Detection reads the packed plane and seeded degrees, and a repair
        is an edit of the after-view, so a defended degree estimate builds
        no graph."""
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        with use_tracer(Tracer()) as tracer:
            evaluate_defended_attack(
                graph, LFGDPRProtocol(epsilon=2.0), DegreeMGA(),
                DEFENSES.create(defense_name), threat, rng=5,
            )
        assert tracer.counters.get("overrides.materialized", 0) == 0
