"""Attack evaluation: the overall gain of Eqs. (4)–(5).

``Gain = sum_t |f~_t,after - f~_t,before|`` over the target nodes, where both
estimates come from full protocol runs.  The *before* run has every user —
including the (not yet activated) fake users — reporting honestly; the
*after* run replaces fake users' reports with the attack's crafted values.
An untargeted attack (``Attack.targeted`` false) is scored at every node, so
its gain is the L1 distance between the full estimate vectors.

By default the two runs share their random streams (common random numbers):
the protocol derives genuine-user noise from named child streams of one
seed, so the measured gain isolates the attack's effect instead of LDP noise
variance.  ``paired=False`` re-randomises the after run for sensitivity
analysis (benchmarked in ``bench_theory_validation``).

A trial is scored by one body, :func:`score_trial`: after-view, the
defense if any, then :func:`metric_estimates` (the estimator dispatch).
:func:`evaluate_attack`, the defended evaluation and the engine's point
kernel each call it after the shared prologue :func:`craft_trial`.  Paired
runs flow through :meth:`GraphLDPProtocol.collect_paired`: the honest world
is collected once and the after-world derived from the shared state —
bit-identical to two seed-replayed ``collect`` calls.  Clustering gains
count the targets' triangles only, in both views.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.base import Attack
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.graph.adjacency import Graph
from repro.protocols.base import FakeReport, GraphLDPProtocol
from repro.utils.rng import RngLike, child_rng

if TYPE_CHECKING:
    from repro.defenses.base import Defense

#: Metrics an attack can be evaluated on.
METRICS = ("degree_centrality", "clustering_coefficient", "modularity")

@dataclass
class AttackOutcome:
    """Result of one attack evaluation.

    ``before``/``after`` hold the estimated metric of every target — of
    every node for an untargeted attack (for the global modularity metric
    they are length-1 arrays).
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
    if threat.num_nodes != graph.num_nodes:
        raise ValueError(
            f"threat is drawn for {threat.num_nodes} nodes but the graph has "
            f"{graph.num_nodes}"
        )
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
    targets: Optional[np.ndarray],
    labels: Optional[np.ndarray] = None,
) -> tuple:
    """Before/after estimates at ``targets`` (every node: ``None``).

    The single definition of how a metric name maps onto the protocol's
    estimator surface.  Clustering is estimated at ``targets`` only.
    Modularity is a global metric: its estimates are length-1 arrays
    regardless of ``targets``.
    """
    if metric == "degree_centrality":
        before = protocol.estimate_degree_centrality(before_reports)
        after = protocol.estimate_degree_centrality(after_reports)
        if targets is not None:
            before, after = before[targets], after[targets]
    elif metric == "clustering_coefficient":
        before = protocol.estimate_clustering_coefficient(before_reports, targets)
        after = protocol.estimate_clustering_coefficient(after_reports, targets)
    else:
        before = np.array([protocol.estimate_modularity(before_reports, labels)])
        after = np.array([protocol.estimate_modularity(after_reports, labels)])
    return before, after


def scored_targets(attack: Attack, threat: ThreatModel) -> Optional[np.ndarray]:
    """The nodes a trial is scored at: the targets, or every node (``None``)."""
    return threat.targets if attack.targeted else None


def score_trial(
    protocol: GraphLDPProtocol,
    run,
    overrides: Dict[int, FakeReport],
    metric: str,
    targets: Optional[np.ndarray],
    labels: Optional[np.ndarray] = None,
    defense: Optional["Defense"] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The one trial-scoring body: ``(before, after, flagged)`` of one run.

    Builds the attacked view ``run.after(overrides)``, lets ``defense``
    (if any; else ``flagged`` is ``None``) detect and repair it, and
    estimates ``metric`` at ``targets`` in both views.  The gain of Eq. 5
    is ``np.abs(after - before).sum()``.
    """
    after_reports = run.after(overrides)
    flagged = None
    if defense is not None:
        after_reports, flagged = defense.apply(after_reports)
    before, after = metric_estimates(
        protocol, metric, run.before, after_reports, targets, labels
    )
    return before, after, flagged


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
    else:
        # Two independent collections: the after-view re-draws the honest
        # noise on its own seed.
        after_seed = int(child_rng(rng, "protocol-run-after").integers(2**63 - 1))
        run = SimpleNamespace(
            before=protocol.collect(graph, protocol_seed),
            after=lambda crafted: protocol.collect(graph, after_seed, overrides=crafted),
        )
    targets = scored_targets(attack, threat)
    before, after, _ = score_trial(protocol, run, overrides, metric, targets, labels)

    # The estimators return fresh float64 arrays, so no defensive re-copy is
    # needed — and a mapping that is already a plain dict is adopted as-is.
    return AttackOutcome(
        attack_name=attack.name,
        metric=metric,
        targets=np.arange(graph.num_nodes) if targets is None else targets,
        before=before,
        after=after,
        overrides=overrides if type(overrides) is dict else dict(overrides),
    )
