"""The three data poisoning attacks against the clustering coefficient (§VI).

The clustering-coefficient estimator corrects the triangle count observed in
the perturbed graph (Eq. 16), so the attacks act by injecting *triangles*
incident to targets.  A triangle needs three edges, which is why MGA here
uses a **prioritized allocation**: fake nodes first connect to each other
(one fake–fake edge per pair) and then both endpoints of the pair claim the
same targets — each shared target closes one triangle (Fig. 5, Cases 1–3).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.base import Attack, ensure_attack_rng
from repro.core.degree_attacks import DegreeRNA, DegreeRVA
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.graph.adjacency import Graph
from repro.ldp.mechanisms import perturb_degree
from repro.protocols.base import FakeReport
from repro.utils.rng import RngLike
from repro.utils.sparse import sorted_union


class ClusteringRVA(DegreeRVA):
    """Random Value Attack on the clustering coefficient.

    Identical crafting to the degree-centrality RVA (§VI states the same
    procedure): organic edges plus random new connections up to the budget,
    sent unperturbed, with a degree drawn from the whole degree space.
    Triangles incident to targets appear only by chance.
    """

    name = "RVA"


class ClusteringRNA(DegreeRNA):
    """Random Node Attack on the clustering coefficient.

    One crafted edge to a random target, everything honestly perturbed; the
    degree is computed from the connections and Laplace-perturbed.  A single
    extra edge almost never closes a triangle, hence RNA's weakness here.
    """

    name = "RNA"


class ClusteringMGA(Attack):
    """Maximal Gain Attack on the clustering coefficient.

    Fake nodes are grouped into pairs.  Each pair claims (i) the fake–fake
    edge and (ii) a shared set of ``min(budget - 1, r)`` targets — every
    shared target closes one triangle through the pair.  Crafted connections
    are sent unperturbed; the reported degree is the connection count,
    Laplace-perturbed as the protocol prescribes.

    Parameters
    ----------
    prioritize_fake_edges:
        The paper's allocation (default).  When False, fake nodes spend
        their entire budget on targets without pairing up — no fake–fake
        edge means no new triangles, which is exactly what the ablation
        bench demonstrates (``benchmarks/bench_ablation_mga_cc.py``).
    respect_budget:
        When False the budget cap is ignored (every pair claims every
        target) — the unconstrained, detectable optimum.
    """

    name = "MGA"

    def __init__(self, prioritize_fake_edges: bool = True, respect_budget: bool = True):
        self.prioritize_fake_edges = bool(prioritize_fake_edges)
        self.respect_budget = bool(respect_budget)

    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        generator = ensure_attack_rng(rng)
        budget = (
            knowledge.connection_budget
            if self.respect_budget
            else threat.num_targets + threat.num_fake
        )
        fakes = generator.permutation(threat.fake_users)
        claims: Dict[int, np.ndarray] = {}

        if self.prioritize_fake_edges:
            paired = fakes[: fakes.size - fakes.size % 2].reshape(-1, 2)
            leftover = fakes[fakes.size - fakes.size % 2 :]
            for first, second in paired.tolist():
                shared_count = min(max(0, budget - 1), threat.num_targets)
                shared = (
                    threat.targets
                    if shared_count >= threat.num_targets
                    else generator.choice(threat.targets, size=shared_count, replace=False)
                )
                claims[first] = sorted_union([second], shared)
                claims[second] = sorted_union([first], shared)
            for fake in leftover.tolist():
                claims[fake] = self._targets_only(threat, budget, generator)
        else:
            for fake in fakes.tolist():
                claims[fake] = self._targets_only(threat, budget, generator)

        overrides: Dict[int, FakeReport] = {}
        for fake, claimed in claims.items():
            reported = float(
                perturb_degree(
                    float(claimed.size), knowledge.degree_epsilon, rng=generator
                )[0]
            )
            overrides[int(fake)] = FakeReport(
                claimed_neighbors=claimed, reported_degree=reported
            )
        return overrides

    def _targets_only(
        self, threat: ThreatModel, budget: int, generator: np.random.Generator
    ) -> np.ndarray:
        count = min(budget, threat.num_targets)
        if count >= threat.num_targets:
            return threat.targets
        return np.sort(generator.choice(threat.targets, size=count, replace=False))
