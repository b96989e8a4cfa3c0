"""Attack evaluation: the overall gain of Eqs. (4)–(5).

``Gain = sum_t |f~_t,after - f~_t,before|`` over the target nodes, where both
estimates come from full protocol runs.  The *before* run has every user —
including the (not yet activated) fake users — reporting honestly; the
*after* run replaces fake users' reports with the attack's crafted values.

By default the two runs share their random streams (common random numbers):
the protocol derives genuine-user noise from named child streams of one
seed, so the measured gain isolates the attack's effect instead of LDP noise
variance.  ``paired=False`` re-randomises the after run for sensitivity
analysis (benchmarked in ``bench_theory_validation``).

Every evaluation path — here, the defended and untargeted evaluations and
the engine's point kernel — shares :func:`craft_trial` (the per-trial
prologue) and :func:`metric_estimates` (the estimator dispatch).  Paired
runs flow through :meth:`GraphLDPProtocol.collect_paired`: the honest world
is collected once and the after-world derived from the shared state —
bit-identical to two seed-replayed ``collect`` calls.  Clustering gains
count the targets' triangles only, in both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import Attack
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.graph.adjacency import Graph
from repro.protocols.base import FakeReport, GraphLDPProtocol
from repro.utils.rng import RngLike, child_rng

#: Metrics an attack can be evaluated on.
METRICS = ("degree_centrality", "clustering_coefficient", "modularity")

@dataclass
class AttackOutcome:
    """Result of one attack evaluation.

    ``before``/``after`` hold the estimated metric of every target (for the
    global modularity metric they are length-1 arrays).
    """

    attack_name: str
    metric: str
    targets: np.ndarray
    before: np.ndarray
    after: np.ndarray
    overrides: Dict[int, FakeReport]

    @property
    def per_target_gain(self) -> np.ndarray:
        """``|f~_after - f~_before|`` per target (Eq. 4)."""
        return np.abs(self.after - self.before)

    @property
    def total_gain(self) -> float:
        """Overall gain: the sum over targets (Eq. 5)."""
        return float(self.per_target_gain.sum())

    @property
    def mean_gain(self) -> float:
        """Average per-target gain (useful across different r)."""
        return float(self.per_target_gain.mean())


def craft_trial(
    graph: Graph,
    protocol: GraphLDPProtocol,
    attack: Attack,
    threat: ThreatModel,
    seed: RngLike,
) -> Tuple[Dict[int, FakeReport], int]:
    """The per-trial prologue: crafted overrides and the protocol seed.

    The attacker learns the public protocol parameters, crafts on the
    ``"attack-craft"`` child stream of ``seed``, and must leave no fake user
    without a report; the protocol's paired collection then runs on a seed
    drawn from the ``"protocol-run"`` child stream.  Every evaluation path
    calls this one helper, so their RNG streams agree by construction.
    """
    knowledge = AttackerKnowledge.from_protocol(protocol, graph)
    overrides = attack.craft(graph, threat, knowledge, rng=child_rng(seed, "attack-craft"))
    missing = np.setdiff1d(threat.fake_users, np.fromiter(overrides.keys(), dtype=np.int64))
    if missing.size:
        raise ValueError(f"attack left fake users without reports: {missing.tolist()}")
    protocol_seed = int(child_rng(seed, "protocol-run").integers(2**63 - 1))
    return overrides, protocol_seed


def check_metric(metric: str, labels: Optional[np.ndarray]) -> None:
    """Reject an unknown metric, and modularity without community labels."""
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    if metric == "modularity" and labels is None:
        raise ValueError("modularity evaluation requires community labels")


def metric_estimates(
    protocol: GraphLDPProtocol,
    metric: str,
    before_reports,
    after_reports,
    targets: np.ndarray,
    labels: Optional[np.ndarray] = None,
) -> tuple:
    """Before/after target estimates for one paired pair of report views.

    The single definition of how a metric name maps onto the protocol's
    estimator surface, shared by :func:`evaluate_attack`, the defended
    evaluation and the engine's point kernel (``repro.engine.kernels``) so
    every path produces identical floats by construction.  Clustering is
    estimated at ``targets`` only.  Modularity is a global metric: its
    estimates are length-1 arrays regardless of ``targets``.
    """
    if metric == "degree_centrality":
        before = protocol.estimate_degree_centrality(before_reports)[targets]
        after = protocol.estimate_degree_centrality(after_reports)[targets]
    elif metric == "clustering_coefficient":
        before = protocol.estimate_clustering_coefficient(before_reports, targets)
        after = protocol.estimate_clustering_coefficient(after_reports, targets)
    else:
        before = np.array([protocol.estimate_modularity(before_reports, labels)])
        after = np.array([protocol.estimate_modularity(after_reports, labels)])
    return before, after


def evaluate_attack(
    graph: Graph,
    protocol: GraphLDPProtocol,
    attack: Attack,
    threat: ThreatModel,
    metric: str = "degree_centrality",
    rng: RngLike = 0,
    labels: Optional[np.ndarray] = None,
    paired: bool = True,
) -> AttackOutcome:
    """Craft, run the paired before/after collections, and measure the gain.

    Parameters
    ----------
    metric:
        One of :data:`METRICS`.  ``"modularity"`` additionally needs
        ``labels`` (the server-held community labelling).
    rng:
        Seed for the whole evaluation; protocol noise and attack randomness
        use independent child streams.
    paired:
        Common random numbers between the two runs (default).
    """
    check_metric(metric, labels)
    overrides, protocol_seed = craft_trial(graph, protocol, attack, threat, rng)
    if paired:
        # One honest collection, shared: the after-view applies the overrides
        # to the same perturbed state the before-view exposes (bit-identical
        # to replaying the seed, without re-drawing the honest randomness).
        run = protocol.collect_paired(graph, protocol_seed)
        before_reports = run.before
        after_reports = run.after(overrides)
    else:
        before_reports = protocol.collect(graph, protocol_seed)
        after_seed = int(child_rng(rng, "protocol-run-after").integers(2**63 - 1))
        after_reports = protocol.collect(graph, after_seed, overrides=overrides)

    before, after = metric_estimates(
        protocol, metric, before_reports, after_reports, threat.targets, labels
    )

    # The estimators return float64 arrays already; fancy-indexing them by
    # the target ids yields fresh float64 arrays, so no defensive re-copy is
    # needed — and a mapping that is already a plain dict is adopted as-is.
    return AttackOutcome(
        attack_name=attack.name,
        metric=metric,
        targets=threat.targets,
        before=before,
        after=after,
        overrides=overrides if type(overrides) is dict else dict(overrides),
    )
