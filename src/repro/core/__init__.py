"""The paper's primary contribution: poisoning attacks and their evaluation."""

from repro.core.base import Attack, random_new_neighbors
from repro.core.clustering_attacks import ClusteringMGA, ClusteringRNA, ClusteringRVA
from repro.core.degree_attacks import DegreeMGA, DegreeRNA, DegreeRVA
from repro.core.gain import METRICS, AttackOutcome, evaluate_attack
from repro.core.theory import theorem1_degree_gain, theorem2_clustering_gain
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.core.untargeted_attacks import (
    UntargetedConcentratedAttack,
    UntargetedUniformAttack,
    UntargetedWithdrawalAttack,
)

__all__ = [
    "UntargetedConcentratedAttack",
    "UntargetedUniformAttack",
    "UntargetedWithdrawalAttack",
    "Attack",
    "random_new_neighbors",
    "ClusteringMGA",
    "ClusteringRNA",
    "ClusteringRVA",
    "DegreeMGA",
    "DegreeRNA",
    "DegreeRVA",
    "METRICS",
    "AttackOutcome",
    "evaluate_attack",
    "theorem1_degree_gain",
    "theorem2_clustering_gain",
    "AttackerKnowledge",
    "ThreatModel",
]
