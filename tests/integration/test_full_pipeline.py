"""End-to-end pipeline tests: graph -> protocol -> attack -> defense -> gain.

Every attack x metric x protocol combination must run cleanly on a small
graph and produce finite, reproducible gains; the headline orderings of the
paper must hold on seeded medium graphs.
"""

import numpy as np
import pytest

from repro import (
    ClusteringMGA,
    ClusteringRNA,
    ClusteringRVA,
    DegreeMGA,
    DegreeRNA,
    DegreeRVA,
    LDPGenProtocol,
    LFGDPRProtocol,
    ThreatModel,
    evaluate_attack,
)
from repro.defenses import (
    DegreeConsistencyDefense,
    FrequentItemsetDefense,
    NaiveDegreeTailsDefense,
    NaiveTopDegreeDefense,
    evaluate_defended_attack,
)
from repro.scenarios import community_labels
from repro.graph.generators import powerlaw_cluster_graph

ALL_ATTACKS = [
    DegreeRVA(), DegreeRNA(), DegreeMGA(),
    ClusteringRVA(), ClusteringRNA(), ClusteringMGA(),
]
ALL_METRICS = ["degree_centrality", "clustering_coefficient", "modularity"]


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(250, 4, 0.5, rng=0)


@pytest.fixture(scope="module")
def threat(graph):
    return ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=0)


@pytest.fixture(scope="module")
def labels(graph):
    return community_labels(graph)


class TestEveryCombination:
    @pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: type(a).__name__)
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_lfgdpr(self, graph, threat, labels, attack, metric):
        protocol = LFGDPRProtocol(epsilon=4.0)
        outcome = evaluate_attack(
            graph, protocol, attack, threat, metric=metric, rng=0,
            labels=labels if metric == "modularity" else None,
        )
        assert np.all(np.isfinite(outcome.per_target_gain))
        assert outcome.total_gain >= 0

    @pytest.mark.parametrize("attack", ALL_ATTACKS, ids=lambda a: type(a).__name__)
    @pytest.mark.parametrize("metric", ALL_METRICS)
    def test_ldpgen(self, graph, threat, labels, attack, metric):
        protocol = LDPGenProtocol(epsilon=4.0)
        outcome = evaluate_attack(
            graph, protocol, attack, threat, metric=metric, rng=0,
            labels=labels if metric == "modularity" else None,
        )
        assert np.all(np.isfinite(outcome.per_target_gain))
        assert outcome.total_gain >= 0


class TestEveryDefenseCombination:
    DEFENSES = [
        FrequentItemsetDefense(threshold=50),
        DegreeConsistencyDefense(),
        NaiveTopDegreeDefense(),
        NaiveDegreeTailsDefense(),
    ]

    @pytest.mark.parametrize("defense", DEFENSES, ids=lambda d: d.name)
    @pytest.mark.parametrize(
        "attack", [DegreeMGA(), DegreeRVA(), ClusteringMGA()],
        ids=lambda a: type(a).__name__,
    )
    def test_defense_runs(self, graph, threat, attack, defense):
        protocol = LFGDPRProtocol(epsilon=4.0)
        metric = (
            "clustering_coefficient" if isinstance(attack, ClusteringMGA) else "degree_centrality"
        )
        outcome = evaluate_defended_attack(
            graph, protocol, attack, defense, threat, metric=metric, rng=0
        )
        assert np.isfinite(outcome.total_gain)
        assert 0.0 <= outcome.quality.precision <= 1.0
        assert 0.0 <= outcome.quality.recall <= 1.0


class TestReproducibility:
    def test_same_seed_same_everything(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        runs = [
            evaluate_attack(graph, protocol, DegreeMGA(), threat, rng=11)
            for _ in range(2)
        ]
        assert np.array_equal(runs[0].before, runs[1].before)
        assert np.array_equal(runs[0].after, runs[1].after)

    def test_attack_ordering_degree(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        gains = {
            attack.name: np.mean(
                [
                    evaluate_attack(graph, protocol, attack, threat, rng=s).total_gain
                    for s in range(3)
                ]
            )
            for attack in (DegreeMGA(), DegreeRVA(), DegreeRNA())
        }
        assert gains["MGA"] > gains["RVA"]
        assert gains["MGA"] > gains["RNA"]

    def test_gain_scales_with_more_fakes(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        small = ThreatModel.sample(graph, beta=0.02, gamma=0.05, rng=1)
        large = ThreatModel.sample(graph, beta=0.2, gamma=0.05, rng=1)
        gain_small = np.mean(
            [
                evaluate_attack(graph, protocol, DegreeMGA(), small, rng=s).total_gain
                for s in range(3)
            ]
        )
        gain_large = np.mean(
            [
                evaluate_attack(graph, protocol, DegreeMGA(), large, rng=s).total_gain
                for s in range(3)
            ]
        )
        assert gain_large > gain_small


class TestFakeUserSemantics:
    def test_attack_only_touches_fake_reports(self, graph, threat):
        """Genuine users' pairs and degree reports are identical across the
        paired runs for every attack."""
        protocol = LFGDPRProtocol(epsilon=4.0)
        from repro.core.threat_model import AttackerKnowledge

        knowledge = AttackerKnowledge.from_protocol(protocol, graph)
        fake_set = set(threat.fake_users.tolist())
        for attack in ALL_ATTACKS:
            overrides = attack.craft(graph, threat, knowledge, rng=0)
            before = protocol.collect(graph, 99)
            after = protocol.collect(graph, 99, overrides=overrides)
            before_pairs = {
                (u, v)
                for u, v in before.perturbed_graph.edges()
                if u not in fake_set and v not in fake_set
            }
            after_pairs = {
                (u, v)
                for u, v in after.perturbed_graph.edges()
                if u not in fake_set and v not in fake_set
            }
            assert before_pairs == after_pairs, type(attack).__name__
            genuine = np.setdiff1d(np.arange(graph.num_nodes), threat.fake_users)
            assert np.array_equal(
                before.reported_degrees[genuine], after.reported_degrees[genuine]
            ), type(attack).__name__
