"""Ablations of the MGA design choices behind the paper's attack allocations.

* prioritized allocation (fake-fake edges first) vs target-only claims for
  the clustering MGA — pairing is what closes triangles;
* the connection-budget cap vs unbounded claims for the degree MGA — the cap
  costs gain but is what keeps fake reports inside the perturbed-degree
  distribution.
"""

import numpy as np
from conftest import bench_config, bench_trials, emit

from repro.core.clustering_attacks import ClusteringMGA
from repro.core.degree_attacks import DegreeMGA
from repro.core.gain import evaluate_attack
from repro.core.threat_model import ThreatModel
from repro.experiments.reporting import format_table
from repro.graph.datasets import load_dataset
from repro.protocols.lfgdpr import LFGDPRProtocol


def _mean_gain(graph, protocol, attack, metric, trials):
    threat = ThreatModel.sample(graph, 0.05, 0.05, rng=0)
    return float(
        np.mean(
            [
                evaluate_attack(
                    graph, protocol, attack, threat, metric=metric, rng=seed
                ).total_gain
                for seed in range(trials)
            ]
        )
    )


def test_ablation_prioritized_allocation(benchmark):
    config = bench_config("facebook")
    graph = load_dataset("facebook", scale=config.scale, rng=config.seed)
    protocol = LFGDPRProtocol(epsilon=4.0)
    trials = max(2, bench_trials())

    def run():
        paired = _mean_gain(
            graph, protocol, ClusteringMGA(), "clustering_coefficient", trials
        )
        target_only = _mean_gain(
            graph,
            protocol,
            ClusteringMGA(prioritize_fake_edges=False),
            "clustering_coefficient",
            trials,
        )
        return paired, target_only

    paired, target_only = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_mga_cc",
        format_table(
            ["variant", "MGA-CC gain"],
            [["prioritized (paper)", paired], ["targets only", target_only]],
            title="Ablation — prioritized allocation in clustering MGA (eps=4)",
        ),
    )
    assert paired > target_only, "fake-fake edges are what close triangles"


def test_ablation_connection_budget(benchmark):
    config = bench_config("facebook")
    graph = load_dataset("facebook", scale=config.scale, rng=config.seed)
    protocol = LFGDPRProtocol(epsilon=8.0)  # small budget -> the cap binds
    trials = max(2, bench_trials())

    def run():
        capped = _mean_gain(graph, protocol, DegreeMGA(), "degree_centrality", trials)
        unbounded = _mean_gain(
            graph,
            protocol,
            DegreeMGA(respect_budget=False),
            "degree_centrality",
            trials,
        )
        return capped, unbounded

    capped, unbounded = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ablation_mga_cc",
        format_table(
            ["variant", "MGA gain"],
            [["budget-capped (paper)", capped], ["unbounded", unbounded]],
            title="Ablation — connection budget in degree MGA (eps=8)",
        ),
    )
    assert unbounded >= capped, "the cap trades gain for stealth"
