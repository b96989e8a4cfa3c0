"""Untargeted manipulation attacks (extension; Cheu–Smith–Ullman style).

The paper's related-work section contrasts its *targeted* attacks with the
untargeted manipulation attacks of Cheu et al. (EuroS&P 2021), whose goal is
to distort the *overall* estimate vector — maximising an Lp distance between
the estimated and true distributions rather than shifting chosen targets.
This module implements that family for the graph setting, rounding out the
attack taxonomy:

* :class:`UntargetedUniformAttack` — each fake user spreads its budget over
  uniformly random nodes; the distortion mass is spread thin.
* :class:`UntargetedConcentratedAttack` — every fake user claims the *same*
  random set of ``budget`` nodes, concentrating the distortion (maximising
  L2 / worst-case displacement for a fixed claim budget).
* :class:`UntargetedWithdrawalAttack` — fake users report empty bit vectors
  and zero degrees, deleting their organic contribution (the "silent"
  manipulation baseline).

Gain is measured as the Lp distance between the full estimated metric
vectors of the paired runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.base import Attack, ensure_attack_rng, random_new_neighbors
from repro.core.gain import craft_trial
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.graph.adjacency import Graph
from repro.protocols.base import FakeReport, GraphLDPProtocol
from repro.utils.rng import RngLike


class UntargetedUniformAttack(Attack):
    """Spread the claim budget uniformly over the whole node set."""

    name = "U-Uniform"

    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        generator = ensure_attack_rng(rng)
        budget = knowledge.connection_budget
        overrides: Dict[int, FakeReport] = {}
        for fake in threat.fake_users.tolist():
            claimed = random_new_neighbors(
                fake, np.empty(0, dtype=np.int64), budget, threat.num_nodes, generator
            )
            overrides[fake] = FakeReport(
                claimed_neighbors=claimed, reported_degree=float(claimed.size)
            )
        return overrides


class UntargetedConcentratedAttack(Attack):
    """All fake users claim one shared random victim set of ``budget`` nodes.

    For a fixed per-user claim budget this concentrates the poisoned bits on
    the fewest rows, maximising the L2 displacement of the estimate vector.
    """

    name = "U-Concentrated"

    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        generator = ensure_attack_rng(rng)
        budget = knowledge.connection_budget
        candidates = np.setdiff1d(np.arange(threat.num_nodes), threat.fake_users)
        victim_count = min(budget, candidates.size)
        victims = np.sort(generator.choice(candidates, size=victim_count, replace=False))
        return {
            fake: FakeReport(
                claimed_neighbors=victims, reported_degree=float(victims.size)
            )
            for fake in threat.fake_users.tolist()
        }


class UntargetedWithdrawalAttack(Attack):
    """Report nothing: erase the fake users' organic contribution."""

    name = "U-Withdraw"

    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        return {
            fake: FakeReport(
                claimed_neighbors=np.empty(0, dtype=np.int64), reported_degree=0.0
            )
            for fake in threat.fake_users.tolist()
        }


@dataclass
class UntargetedOutcome:
    """Distortion of the whole estimate vector under an untargeted attack."""

    attack_name: str
    metric: str
    norm: float
    distance: float
    before: np.ndarray
    after: np.ndarray


def evaluate_untargeted_attack(
    graph: Graph,
    protocol: GraphLDPProtocol,
    attack: Attack,
    threat: ThreatModel,
    metric: str = "degree_centrality",
    norm: float = 1.0,
    rng: RngLike = 0,
) -> UntargetedOutcome:
    """Paired evaluation measuring ``||f~_after - f~_before||_p`` over all nodes.

    The ``targets`` of the threat model are ignored (the attack is
    untargeted); the distance runs over the entire estimate vector.
    """
    if metric not in ("degree_centrality", "clustering_coefficient"):
        raise ValueError(
            "untargeted evaluation supports degree_centrality or "
            f"clustering_coefficient, got {metric!r}"
        )
    overrides, seed = craft_trial(graph, protocol, attack, threat, rng)
    run = protocol.collect_paired(graph, seed)
    before_reports = run.before
    after_reports = run.after(overrides)
    if metric == "degree_centrality":
        before = protocol.estimate_degree_centrality(before_reports)
        after = protocol.estimate_degree_centrality(after_reports)
    else:
        before = protocol.estimate_clustering_coefficient(before_reports)
        after = protocol.estimate_clustering_coefficient(after_reports)
    distance = float(np.linalg.norm(after - before, ord=norm))
    return UntargetedOutcome(
        attack_name=attack.name,
        metric=metric,
        norm=norm,
        distance=distance,
        before=before,
        after=after,
    )
