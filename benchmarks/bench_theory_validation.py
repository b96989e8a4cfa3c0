"""Theorems 1 and 2 — analytic MGA gains vs empirical measurements.

The closed forms predict the *attack-injection* component of the gain in the
metric's own units.  The empirical pipeline additionally passes through the
server's calibration (which amplifies each crafted bit by ``1/(2p-1)`` for
degrees and by ``2/(p^2(2p-1))`` per triangle for clustering), so we compare
*shapes across epsilon* — the ratio empirical/theory should stay within a
stable band rather than equal 1.

Also benchmarks the paired (common-random-numbers) evaluation against
independent-noise runs (README, "Paired incremental evaluation").
"""

import numpy as np
from conftest import bench_config, bench_trials, emit

from repro.core.degree_attacks import DegreeMGA
from repro.core.clustering_attacks import ClusteringMGA
from repro.core.gain import evaluate_attack
from repro.core.theory import theorem1_degree_gain, theorem2_clustering_gain
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.experiments.reporting import format_table
from repro.graph.datasets import load_dataset
from repro.protocols.lfgdpr import LFGDPRProtocol

EPSILONS = (1.0, 2.0, 4.0, 8.0)


def _empirical_gain(graph, protocol, attack, metric, trials, seed0=0):
    gains = []
    for seed in range(trials):
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=seed0 + seed)
        gains.append(
            evaluate_attack(
                graph, protocol, attack, threat, metric=metric, rng=seed0 + seed
            ).total_gain
        )
    return float(np.mean(gains))


def test_theorem1_shape(benchmark):
    """Empirical gain = Theorem 1 x the server's calibration amplification.

    Theorem 1 predicts the gain in raw crafted-connectivity units; the
    server's randomized-response calibration multiplies every crafted bit by
    ``1/(2 p1 - 1)``.  The product matches the measured gain within a few
    percent at every epsilon.
    """
    from repro.ldp.mechanisms import rr_keep_probability

    config = bench_config("facebook")
    graph = load_dataset("facebook", scale=config.scale, rng=config.seed)

    def run():
        rows = []
        for epsilon in EPSILONS:
            protocol = LFGDPRProtocol(epsilon=epsilon)
            knowledge = AttackerKnowledge.from_protocol(protocol, graph)
            threat = ThreatModel.sample(graph, 0.05, 0.05, rng=0)
            raw = theorem1_degree_gain(
                threat.num_fake,
                threat.num_targets,
                graph.num_nodes,
                knowledge.perturbed_average_degree,
            )
            keep = rr_keep_probability(knowledge.adjacency_epsilon)
            predicted = raw / (2.0 * keep - 1.0)
            measured = _empirical_gain(
                graph, protocol, DegreeMGA(), "degree_centrality", config.trials
            )
            rows.append([epsilon, raw, predicted, measured, measured / predicted])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "theory_validation",
        format_table(
            ["epsilon", "theorem1 (raw)", "x calibration", "empirical", "ratio"],
            rows,
            title="Theorem 1 vs empirical MGA gain (degree centrality)",
        ),
    )
    predictions = np.array([row[2] for row in rows])
    measurements = np.array([row[3] for row in rows])
    ratios = measurements / predictions
    # Calibrated prediction and measurement both fall with epsilon and agree
    # within 25% pointwise.
    assert predictions[0] > predictions[-1]
    assert measurements[0] > measurements[-1]
    assert np.all(np.abs(ratios - 1.0) < 0.25)


def test_theorem2_computable_across_grid(benchmark):
    config = bench_config("facebook")
    graph = load_dataset("facebook", scale=config.scale, rng=config.seed)

    def run():
        rows = []
        for epsilon in EPSILONS:
            protocol = LFGDPRProtocol(epsilon=epsilon)
            knowledge = AttackerKnowledge.from_protocol(protocol, graph)
            threat = ThreatModel.sample(graph, 0.05, 0.05, rng=0)
            predicted = theorem2_clustering_gain(
                threat.num_fake,
                threat.num_targets,
                graph.num_nodes,
                knowledge.perturbed_average_degree,
                knowledge.adjacency_epsilon,
            )
            measured = _empirical_gain(
                graph, protocol, ClusteringMGA(), "clustering_coefficient", config.trials
            )
            rows.append([epsilon, predicted, measured])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "theory_validation",
        format_table(
            ["epsilon", "theorem2", "empirical"],
            rows,
            title="Theorem 2 vs empirical MGA gain (clustering coefficient)",
        ),
    )
    assert all(np.isfinite(row[1]) and row[1] > 0 for row in rows)
    assert all(np.isfinite(row[2]) and row[2] > 0 for row in rows)


def test_paired_vs_independent_noise(benchmark):
    """Ablation: common random numbers vs independent before/after runs."""
    config = bench_config("facebook")
    graph = load_dataset("facebook", scale=config.scale, rng=config.seed)
    protocol = LFGDPRProtocol(epsilon=4.0)
    threat = ThreatModel.sample(graph, 0.05, 0.05, rng=0)
    trials = max(2, bench_trials())

    def run():
        paired = np.mean(
            [
                evaluate_attack(
                    graph, protocol, DegreeMGA(), threat, rng=seed, paired=True
                ).total_gain
                for seed in range(trials)
            ]
        )
        independent = np.mean(
            [
                evaluate_attack(
                    graph, protocol, DegreeMGA(), threat, rng=seed, paired=False
                ).total_gain
                for seed in range(trials)
            ]
        )
        return paired, independent

    paired, independent = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "theory_validation",
        format_table(
            ["evaluation", "MGA gain"],
            [["paired (CRN)", paired], ["independent noise", independent]],
            title="Ablation — paired vs independent noise (degree MGA, eps=4)",
        ),
    )
    # Independent runs fold LDP noise into |after - before|, inflating gain.
    assert independent >= paired * 0.9
