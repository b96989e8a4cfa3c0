"""Evaluating attacks under countermeasures (Exp 7 and Exp 8).

The defended gain compares the *defended attacked* estimates against the
*clean undefended* estimates:

``Gain_def = sum_t | f~_t( defense(attacked reports) ) - f~_t(clean reports) |``

so a defense scores well only if it both neutralises the fakes and avoids
collateral damage to genuine data — flagging half the graph "stops" the
attack but wrecks the estimates, and the metric charges for that (the
mechanism behind the U-shape of Fig. 12(a) and Naive2's negative results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.base import Attack
from repro.core.gain import check_metric, craft_trial, metric_estimates
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

    Mirrors :func:`repro.core.gain.evaluate_attack` exactly (the same
    :func:`~repro.core.gain.craft_trial` prologue, so the undefended and
    defended gains of the same seed are directly comparable), inserting
    ``defense.apply`` between collection and estimation of the attacked run.
    """
    check_metric(metric, labels)
    overrides, protocol_seed = craft_trial(graph, protocol, attack, threat, rng)
    # The honest collection is shared with the attacked after-run the
    # defense post-processes — one perturbation per evaluation, exactly as
    # in the undefended pipeline.  Detection reads the run's packed plane
    # and a repair is one more edit of it, so defended estimation reuses
    # the run's cache like the undefended after-view.
    run = protocol.collect_paired(graph, protocol_seed)
    defended_reports, flagged = defense.apply(run.after(overrides))
    before, after = metric_estimates(
        protocol, metric, run.before, defended_reports, threat.targets, labels
    )

    return DefendedOutcome(
        attack_name=attack.name,
        defense_name=defense.name,
        metric=metric,
        targets=threat.targets,
        before=np.asarray(before, dtype=np.float64),
        after_defended=np.asarray(after, dtype=np.float64),
        flagged=flagged,
        quality=detection_quality(flagged, threat.fake_users),
    )
