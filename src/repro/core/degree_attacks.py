"""The three data poisoning attacks against degree centrality (§V).

All three attacks act through the adjacency bits fake users claim: every
crafted bit toward a target raises the server's calibrated degree estimate of
that target.

* **RVA** — random connections up to the budget, random degree value.  Hits
  targets only by chance.
* **RNA** — one crafted edge to a random target, then honest LDP
  perturbation of the whole report.  Stealthy but weak and insensitive to
  the privacy budget.
* **MGA** — every fake node claims as many targets as the connection budget
  allows.  Maximizes the overall gain (Theorem 1).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.base import Attack, ensure_attack_rng, random_new_neighbors
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.graph.adjacency import Graph
from repro.ldp.mechanisms import rr_keep_probability
from repro.protocols.base import FakeReport
from repro.utils.rng import RngLike
from repro.utils.sparse import merge_sorted_disjoint, sorted_union


class DegreeRVA(Attack):
    """Random Value Attack on degree centrality.

    Keeps the fake node's organic edges, adds random new connections up to
    the attacker's connection budget (so the report blends in with perturbed
    genuine reports), and reports a degree drawn uniformly from the degree
    space.  Crafted values are sent verbatim — no further perturbation.
    """

    name = "RVA"

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
            organic = graph.neighbors(fake)
            extra = max(0, budget - organic.size)
            new = random_new_neighbors(fake, organic, extra, threat.num_nodes, generator)
            # ``new`` excludes the organic neighbours: a disjoint merge.
            claimed = merge_sorted_disjoint(organic, new)
            reported = float(generator.integers(0, knowledge.degree_domain))
            overrides[fake] = FakeReport(claimed_neighbors=claimed, reported_degree=reported)
        return overrides


class DegreeRNA(Attack):
    """Random Node Attack on degree centrality.

    Each fake node adds one edge to a uniformly chosen target to its local
    data and then runs the *honest* LDP client on it.  Under common random
    numbers the honest client's output differs from the unattacked run only
    in the crafted edge, so the report is expressed in augment mode: the
    extra edge (itself subjected to randomized response, surviving with
    probability ``p``) plus a degree shift of exactly +1.
    """

    name = "RNA"

    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        generator = ensure_attack_rng(rng)
        keep = rr_keep_probability(knowledge.adjacency_epsilon)
        overrides: Dict[int, FakeReport] = {}
        for fake in threat.fake_users.tolist():
            target = int(generator.choice(threat.targets))
            already_connected = graph.has_edge(fake, target)
            # The crafted bit goes through randomized response like any other.
            survives = generator.random() < keep
            extra = (
                np.array([target], dtype=np.int64)
                if survives and not already_connected
                else np.empty(0, dtype=np.int64)
            )
            overrides[fake] = FakeReport(
                claimed_neighbors=extra,
                reported_degree=0.0,
                augment=True,
                degree_delta=0.0 if already_connected else 1.0,
            )
        return overrides


class DegreeMGA(Attack):
    """Maximal Gain Attack on degree centrality.

    Each fake node claims edges to ``min(r, budget)`` randomly chosen targets
    (all of them when the budget allows), keeps its organic edges in the
    report, and sends everything verbatim.  Theorem 1 gives the expected
    overall gain of this strategy.

    Parameters
    ----------
    respect_budget:
        If False the budget cap is ignored and every fake node claims every
        target — the unconstrained optimum, trivially detectable; kept as an
        ablation (``benchmarks/bench_ablation_mga_cc.py``).
    keep_organic_edges:
        If False the report contains target claims only.
    evade_consistency:
        Extension: make both degree channels agree so Detect2 (§VII-B) sees
        nothing.  The report is padded with random non-target claims up to
        the connection budget — the 1-count of an average honest *perturbed*
        row — and the degree value sent is what the server's calibration
        derives from that count, ``(|claims| - (N-1)(1-p)) / (2p-1)``.
        Target claims are unaffected, so the gain is unchanged; only
        coordination/noise-level signals remain (see the hybrid defense).
    """

    name = "MGA"

    def __init__(
        self,
        respect_budget: bool = True,
        keep_organic_edges: bool = True,
        evade_consistency: bool = False,
    ):
        self.respect_budget = bool(respect_budget)
        self.keep_organic_edges = bool(keep_organic_edges)
        self.evade_consistency = bool(evade_consistency)

    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        generator = ensure_attack_rng(rng)
        budget = knowledge.connection_budget if self.respect_budget else threat.num_targets
        per_fake = min(threat.num_targets, budget)
        overrides: Dict[int, FakeReport] = {}
        for fake in threat.fake_users.tolist():
            if per_fake >= threat.num_targets:
                chosen = threat.targets
            else:
                chosen = generator.choice(threat.targets, size=per_fake, replace=False)
            claimed = (
                sorted_union(graph.neighbors(fake), chosen)
                if self.keep_organic_edges
                else np.sort(np.asarray(chosen, dtype=np.int64))
            )
            if self.evade_consistency:
                padding = random_new_neighbors(
                    fake,
                    claimed,
                    max(0, knowledge.connection_budget - claimed.size),
                    threat.num_nodes,
                    generator,
                )
                # ``padding`` excludes the claims already made: a disjoint merge.
                claimed = merge_sorted_disjoint(claimed, padding)
            overrides[fake] = FakeReport(
                claimed_neighbors=claimed,
                reported_degree=self._degree_report(claimed.size, knowledge),
            )
        return overrides

    def _degree_report(self, claim_count: int, knowledge: AttackerKnowledge) -> float:
        """The degree value sent alongside the crafted bits."""
        if not self.evade_consistency:
            return float(claim_count)
        keep = rr_keep_probability(knowledge.adjacency_epsilon)
        calibrated = (
            claim_count - (knowledge.num_nodes - 1) * (1.0 - keep)
        ) / (2.0 * keep - 1.0)
        return max(0.0, float(calibrated))
