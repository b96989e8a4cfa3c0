"""Evaluating attacks under countermeasures (Exp 7 and Exp 8).

The defended gain compares the *defended attacked* estimates against the
*clean undefended* estimates:

``Gain_def = sum_t | f~_t( defense(attacked reports) ) - f~_t(clean reports) |``

so a defense scores well only if it both neutralises the fakes and avoids
collateral damage to genuine data — flagging half the graph "stops" the
attack but wrecks the estimates, and the metric charges for that.  Whether
this trade-off yields the U-shape of Fig. 12(a) is unverified: measured
over the threshold, Detect1's curve is flat (see the defended-baseline
item in ROADMAP.md).

The trial is scored by :func:`repro.core.gain.score_trial`, the body the
undefended evaluation and the engine's point kernel share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.base import Attack
from repro.core.gain import check_metric, craft_trial, score_trial, scored_targets
from repro.core.threat_model import ThreatModel
from repro.defenses.base import Defense, DetectionQuality, detection_quality
from repro.graph.adjacency import Graph
from repro.protocols.base import GraphLDPProtocol
from repro.utils.rng import RngLike


@dataclass
class DefendedOutcome:
    """Result of one attack-vs-defense evaluation."""

    attack_name: str
    defense_name: str
    metric: str
    targets: np.ndarray
    before: np.ndarray
    after_defended: np.ndarray
    flagged: np.ndarray
    quality: DetectionQuality

    @property
    def per_target_gain(self) -> np.ndarray:
        """Residual gain per target after the defense."""
        return np.abs(self.after_defended - self.before)

    @property
    def total_gain(self) -> float:
        """Residual overall gain after the defense."""
        return float(self.per_target_gain.sum())


def evaluate_defended_attack(
    graph: Graph,
    protocol: GraphLDPProtocol,
    attack: Attack,
    defense: Defense,
    threat: ThreatModel,
    metric: str = "degree_centrality",
    rng: RngLike = 0,
    labels: Optional[np.ndarray] = None,
) -> DefendedOutcome:
    """Run attack + defense with common random numbers and measure the gain.

    The same :func:`~repro.core.gain.craft_trial` prologue and
    :func:`~repro.core.gain.score_trial` body as
    :func:`repro.core.gain.evaluate_attack`, so the undefended and defended
    gains of the same seed are directly comparable; ``defense.apply`` runs
    on the attacked view of the shared honest collection.
    """
    check_metric(metric, labels)
    overrides, protocol_seed = craft_trial(graph, protocol, attack, threat, rng)
    run = protocol.collect_paired(graph, protocol_seed)
    targets = scored_targets(attack, threat)
    before, after, flagged = score_trial(
        protocol, run, overrides, metric, targets, labels, defense
    )
    return DefendedOutcome(
        attack_name=attack.name,
        defense_name=defense.name,
        metric=metric,
        targets=np.arange(graph.num_nodes) if targets is None else targets,
        before=before,
        after_defended=after,
        flagged=flagged,
        quality=detection_quality(flagged, threat.fake_users),
    )
