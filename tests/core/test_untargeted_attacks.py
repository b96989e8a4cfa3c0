"""Tests for the untargeted manipulation attacks (extension)."""

import numpy as np
import pytest

from repro.core.degree_attacks import DegreeMGA
from repro.core.gain import evaluate_attack
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.core.untargeted_attacks import (
    UntargetedConcentratedAttack,
    UntargetedUniformAttack,
    UntargetedWithdrawalAttack,
)
from repro.defenses.evaluation import evaluate_defended_attack
from repro.defenses.naive import NaiveTopDegreeDefense
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.lfgdpr import LFGDPRProtocol

ATTACKS = [
    UntargetedUniformAttack(),
    UntargetedConcentratedAttack(),
    UntargetedWithdrawalAttack(),
]


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(300, 4, 0.5, rng=0)


@pytest.fixture(scope="module")
def threat(graph):
    return ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=0)


@pytest.fixture(scope="module")
def knowledge(graph):
    return AttackerKnowledge.from_protocol(LFGDPRProtocol(epsilon=4.0), graph)


class TestCrafting:
    @pytest.mark.parametrize("attack", ATTACKS, ids=lambda a: a.name)
    def test_one_report_per_fake(self, attack, graph, threat, knowledge):
        overrides = attack.craft(graph, threat, knowledge, rng=0)
        assert sorted(overrides) == threat.fake_users.tolist()

    def test_uniform_respects_budget(self, graph, threat, knowledge):
        overrides = UntargetedUniformAttack().craft(graph, threat, knowledge, rng=0)
        for report in overrides.values():
            assert report.claimed_neighbors.size <= knowledge.connection_budget

    def test_concentrated_shares_victims(self, graph, threat, knowledge):
        overrides = UntargetedConcentratedAttack().craft(graph, threat, knowledge, rng=0)
        reports = list(overrides.values())
        first = reports[0].claimed_neighbors
        assert all(np.array_equal(report.claimed_neighbors, first) for report in reports)

    def test_concentrated_victims_not_fakes(self, graph, threat, knowledge):
        overrides = UntargetedConcentratedAttack().craft(graph, threat, knowledge, rng=0)
        victims = next(iter(overrides.values())).claimed_neighbors
        assert np.intersect1d(victims, threat.fake_users).size == 0

    def test_withdrawal_reports_empty(self, graph, threat, knowledge):
        overrides = UntargetedWithdrawalAttack().craft(graph, threat, knowledge, rng=0)
        for report in overrides.values():
            assert report.claimed_neighbors.size == 0
            assert report.reported_degree == 0.0


class TestEvaluation:
    """Untargeted attacks are scored at every node: Eq. 5's sum runs over
    the full estimate vector, so the gain is ``||f~_after - f~_before||_1``."""

    @pytest.mark.parametrize("attack", ATTACKS, ids=lambda a: a.name)
    def test_scored_at_every_node(self, attack, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        outcome = evaluate_attack(graph, protocol, attack, threat, rng=0)
        assert outcome.total_gain > 0
        assert outcome.before.shape == outcome.after.shape == (graph.num_nodes,)
        assert np.array_equal(outcome.targets, np.arange(graph.num_nodes))
        assert outcome.total_gain == float(
            np.linalg.norm(outcome.after - outcome.before, ord=1)
        )

    def test_targeted_attack_scored_at_targets(self, graph, threat):
        outcome = evaluate_attack(graph, LFGDPRProtocol(epsilon=4.0), DegreeMGA(), threat)
        assert DegreeMGA.targeted
        assert np.array_equal(outcome.targets, threat.targets)
        assert outcome.before.shape == (threat.num_targets,)

    def test_defended_scored_at_every_node(self, graph, threat):
        outcome = evaluate_defended_attack(
            graph, LFGDPRProtocol(epsilon=4.0), UntargetedWithdrawalAttack(),
            NaiveTopDegreeDefense(), threat, rng=0,
        )
        assert outcome.before.shape == (graph.num_nodes,)
        assert np.isfinite(outcome.total_gain)

    def test_modularity_is_a_global_scalar(self, graph, threat):
        labels = (np.arange(graph.num_nodes) // 50).astype(np.int64)
        outcome = evaluate_attack(
            graph, LFGDPRProtocol(epsilon=4.0), UntargetedConcentratedAttack(), threat,
            metric="modularity", rng=0, labels=labels,
        )
        assert outcome.before.shape == (1,)

    def test_l2_concentration_beats_uniform(self, graph, threat):
        """Concentrating claims maximises the L2 displacement."""
        protocol = LFGDPRProtocol(epsilon=4.0)

        def l2(attack):
            distances = []
            for seed in range(3):
                outcome = evaluate_attack(graph, protocol, attack, threat, rng=seed)
                distances.append(np.linalg.norm(outcome.after - outcome.before))
            return np.mean(distances)

        assert l2(UntargetedConcentratedAttack()) > l2(UntargetedUniformAttack())

    def test_deterministic(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        a = evaluate_attack(graph, protocol, UntargetedUniformAttack(), threat, rng=7)
        b = evaluate_attack(graph, protocol, UntargetedUniformAttack(), threat, rng=7)
        assert a.total_gain == b.total_gain

    def test_clustering_metric_supported(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        outcome = evaluate_attack(
            graph, protocol, UntargetedConcentratedAttack(), threat,
            metric="clustering_coefficient", rng=0,
        )
        assert outcome.after.shape == (graph.num_nodes,)
        assert np.isfinite(outcome.total_gain)

    def test_withdrawal_name_matches_catalog_series(self):
        assert UntargetedWithdrawalAttack.name == "U-Withdrawal"
