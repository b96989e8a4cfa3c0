"""Tests for the paired-run collection path and its bit-identity contract.

``collect_paired`` must be indistinguishable — graph, degree reports and
every downstream estimate — from two independent ``collect`` calls replaying
the same seed.  These tests pin that contract for both protocols, for the
whole evaluation pipeline (undefended and defended), and for the override
plumbing the shared path relies on.
"""

import numpy as np
import pytest

from repro.core.degree_attacks import DegreeMGA
from repro.core.gain import evaluate_attack
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.defenses.evaluation import evaluate_defended_attack
from repro.defenses.naive import NaiveTopDegreeDefense
from repro.graph import metrics
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.base import (
    FakeReport,
    TwoRunPairedCollection,
    apply_degree_overrides,
    apply_overrides,
    apply_overrides_tracked,
)
from repro.protocols.ldpgen import LDPGenProtocol
from repro.protocols.lfgdpr import LFGDPRProtocol
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
        with pytest.raises(TypeError, match="replayable seed"):
            TwoRunPairedCollection(protocol, graph, np.random.default_rng(0))


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
        """Fallback and incremental estimation yield the same bits."""
        threat = ThreatModel.sample(graph, 0.1, 0.05, rng=2)
        protocol = LFGDPRProtocol(epsilon=2.0)
        gains = []
        for threshold, path in ((0.0, "fallback"), (1.0, "incremental")):
            monkeypatch.setattr(metrics, "DELTA_THRESHOLD", threshold)
            metrics.reset_delta_stats()
            outcome = evaluate_attack(
                graph, protocol, DegreeMGA(), threat,
                metric="clustering_coefficient", rng=5,
            )
            assert metrics.delta_stats() == {
                "incremental": int(path == "incremental"),
                "fallback": int(path == "fallback"),
            }
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
        graph, overridden, added, removed = apply_overrides_tracked(perturbed, overrides)
        # Only the genuinely new pair is a net addition; nothing was removed
        # (augment keeps the user's RR pairs).
        rows, cols = Graph.from_codes(6, added).edge_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 5)]
        assert removed.size == 0

    def test_replace_readding_dropped_pair_nets_out(self):
        from repro.graph.adjacency import Graph

        perturbed = Graph(5, [(0, 1), (0, 2)])
        overrides = {0: FakeReport(claimed_neighbors=[1, 3], reported_degree=2.0)}
        graph, _, added, removed = apply_overrides_tracked(perturbed, overrides)
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
