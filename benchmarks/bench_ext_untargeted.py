"""Extension — untargeted manipulation attacks (Cheu et al. family).

Not a paper figure: the related-work section contrasts the paper's targeted
attacks with untargeted distribution-level manipulation; this bench measures
that family's L1/L2 distortion of the full degree-centrality estimate vector
across privacy budgets.  Untargeted attacks are scored at every node, so
``evaluate_attack``'s ``after - before`` is that full vector and its L1 norm
is the attack's gain.
"""

import numpy as np
from conftest import bench_config, bench_trials, emit

from repro.core.gain import evaluate_attack
from repro.core.threat_model import ThreatModel
from repro.core.untargeted_attacks import (
    UntargetedConcentratedAttack,
    UntargetedUniformAttack,
    UntargetedWithdrawalAttack,
)
from repro.experiments.reporting import format_table
from repro.graph.datasets import load_dataset
from repro.protocols.lfgdpr import LFGDPRProtocol

EPSILONS = (1.0, 2.0, 4.0, 8.0)
ATTACKS = [
    UntargetedUniformAttack(),
    UntargetedConcentratedAttack(),
    UntargetedWithdrawalAttack(),
]


def test_untargeted_distortion(benchmark):
    config = bench_config("facebook")
    graph = load_dataset("facebook", scale=config.scale, rng=config.seed)
    threat = ThreatModel.sample(graph, 0.05, 0.05, rng=0)
    trials = max(2, bench_trials())

    def run():
        rows = []
        for epsilon in EPSILONS:
            protocol = LFGDPRProtocol(epsilon=epsilon)
            for attack in ATTACKS:
                shifts = [
                    evaluate_attack(graph, protocol, attack, threat, rng=seed)
                    for seed in range(trials)
                ]
                for norm in (1, 2):
                    distances = [
                        np.linalg.norm(outcome.after - outcome.before, ord=norm)
                        for outcome in shifts
                    ]
                    rows.append([epsilon, attack.name, norm, float(np.mean(distances))])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "ext_untargeted",
        format_table(
            ["epsilon", "attack", "Lp", "distortion"],
            rows,
            title="Extension — untargeted attacks, degree-centrality distortion",
        ),
    )
    # Concentration maximises L2 distortion at every epsilon.
    for epsilon in EPSILONS:
        l2 = {
            row[1]: row[3] for row in rows if row[0] == epsilon and row[2] == 2
        }
        assert l2["U-Concentrated"] >= l2["U-Uniform"]
