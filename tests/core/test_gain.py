"""Tests for the gain evaluation machinery."""

import numpy as np
import pytest

from repro.core.degree_attacks import DegreeMGA
from repro.core.gain import METRICS, AttackOutcome, average_gain, evaluate_attack
from repro.core.threat_model import ThreatModel
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.ldpgen import LDPGenProtocol
from repro.protocols.lfgdpr import LFGDPRProtocol


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(300, 4, 0.5, rng=0)


@pytest.fixture(scope="module")
def threat(graph):
    return ThreatModel.sample(graph, beta=0.05, gamma=0.05, rng=0)


class TestAttackOutcome:
    def test_gain_properties(self):
        outcome = AttackOutcome(
            attack_name="MGA",
            metric="degree_centrality",
            targets=np.array([1, 2]),
            before=np.array([0.1, 0.2]),
            after=np.array([0.3, 0.1]),
            overrides={},
        )
        assert np.allclose(outcome.per_target_gain, [0.2, 0.1])
        assert outcome.total_gain == pytest.approx(0.3)
        assert outcome.mean_gain == pytest.approx(0.15)


class TestEvaluateAttack:
    def test_deterministic(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        a = evaluate_attack(graph, protocol, DegreeMGA(), threat, rng=3)
        b = evaluate_attack(graph, protocol, DegreeMGA(), threat, rng=3)
        assert a.total_gain == b.total_gain

    def test_metric_validation(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        with pytest.raises(ValueError, match="metric must be one of"):
            evaluate_attack(graph, protocol, DegreeMGA(), threat, metric="pagerank")

    def test_modularity_requires_labels(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        with pytest.raises(ValueError, match="labels"):
            evaluate_attack(graph, protocol, DegreeMGA(), threat, metric="modularity")

    def test_modularity_metric(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        labels = (np.arange(graph.num_nodes) // 60).astype(np.int64)
        outcome = evaluate_attack(
            graph, protocol, DegreeMGA(), threat, metric="modularity", rng=0, labels=labels
        )
        assert outcome.before.shape == (1,)
        assert outcome.total_gain >= 0

    def test_paired_vs_unpaired(self, graph, threat):
        """Unpaired evaluation adds LDP noise variance to the gain."""
        protocol = LFGDPRProtocol(epsilon=4.0)
        paired = np.mean(
            [
                evaluate_attack(graph, protocol, DegreeMGA(), threat, rng=s).total_gain
                for s in range(4)
            ]
        )
        unpaired = np.mean(
            [
                evaluate_attack(
                    graph, protocol, DegreeMGA(), threat, rng=s, paired=False
                ).total_gain
                for s in range(4)
            ]
        )
        assert unpaired > paired * 0.5  # sanity: same order of magnitude
        assert unpaired != paired

    def test_works_with_ldpgen(self, graph, threat):
        protocol = LDPGenProtocol(epsilon=4.0)
        outcome = evaluate_attack(
            graph, protocol, DegreeMGA(), threat, metric="clustering_coefficient", rng=0
        )
        assert np.isfinite(outcome.total_gain)

    def test_outcome_shapes_align(self, graph, threat):
        protocol = LFGDPRProtocol(epsilon=4.0)
        outcome = evaluate_attack(graph, protocol, DegreeMGA(), threat, rng=5)
        assert outcome.targets.shape == outcome.before.shape == outcome.after.shape
        assert np.all(np.isfinite(outcome.before))
        assert np.all(np.isfinite(outcome.after))

    def test_metrics_constant(self):
        assert METRICS == ("degree_centrality", "clustering_coefficient", "modularity")


class TestAverageGain:
    def test_positive_for_mga(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        gain = average_gain(
            graph, protocol, DegreeMGA(), "degree_centrality", beta=0.05, gamma=0.05,
            trials=2, rng=0,
        )
        assert gain > 0

    def test_deterministic(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        kwargs = dict(metric="degree_centrality", beta=0.05, gamma=0.05, trials=2, rng=9)
        a = average_gain(graph, protocol, DegreeMGA(), kwargs["metric"], 0.05, 0.05, trials=2, rng=9)
        b = average_gain(graph, protocol, DegreeMGA(), kwargs["metric"], 0.05, 0.05, trials=2, rng=9)
        assert a == b

    def test_rejects_zero_trials(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        with pytest.raises(ValueError, match="trials"):
            average_gain(graph, protocol, DegreeMGA(), "degree_centrality", 0.05, 0.05, trials=0)


class DropFirstFakeMGA(DegreeMGA):
    """A DegreeMGA that leaves the first fake user without a crafted report."""

    def craft(self, graph, threat, knowledge, rng=None):
        overrides = super().craft(graph, threat, knowledge, rng=rng)
        del overrides[int(threat.fake_users[0])]
        return overrides


class TestMissingFakeReports:
    """Every evaluation path rejects an attack that skips a fake user."""

    def test_evaluate_attack(self, graph, threat):
        with pytest.raises(ValueError, match="fake users without reports"):
            evaluate_attack(graph, LFGDPRProtocol(epsilon=4.0), DropFirstFakeMGA(), threat)

    def test_evaluate_defended_attack(self, graph, threat):
        from repro.defenses.evaluation import evaluate_defended_attack
        from repro.defenses.naive import NaiveTopDegreeDefense

        with pytest.raises(ValueError, match="fake users without reports"):
            evaluate_defended_attack(
                graph, LFGDPRProtocol(epsilon=4.0), DropFirstFakeMGA(),
                NaiveTopDegreeDefense(), threat,
            )

    def test_evaluate_untargeted_attack(self, graph, threat):
        from repro.core.untargeted_attacks import evaluate_untargeted_attack

        with pytest.raises(ValueError, match="fake users without reports"):
            evaluate_untargeted_attack(
                graph, LFGDPRProtocol(epsilon=4.0), DropFirstFakeMGA(), threat
            )

    def test_engine_kernel_on_defended_task(self, graph, monkeypatch):
        from repro.engine.kernels import execute_tasks_grouped
        from repro.engine.registry import ATTACKS
        from repro.engine.tasks import TrialTask, graph_fingerprint

        monkeypatch.setitem(ATTACKS._factories, "test/drop-first-fake", DropFirstFakeMGA)
        tasks = [
            TrialTask(
                graph_key=graph_fingerprint(graph), metric="degree_centrality",
                attack="test/drop-first-fake", protocol="lfgdpr", epsilon=4.0,
                beta=0.05, gamma=0.05, seed=seed, trial=seed,
                defense="detect1", defense_args=(("threshold", 50),),
            )
            for seed in range(2)
        ]
        with pytest.raises(ValueError, match="fake users without reports"):
            execute_tasks_grouped(tasks, graph)
