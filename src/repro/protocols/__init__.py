"""LDP graph-collection protocols: LF-GDPR and LDPGen."""

from repro.protocols.base import (
    CollectedReports,
    FakeReport,
    GraphLDPProtocol,
    Overrides,
    PairedCollection,
    SharedGraphPairedCollection,
    apply_degree_overrides,
    apply_overrides,
)
from repro.protocols.estimators import (
    degrees_from_perturbed_graph,
    estimate_clustering_coefficients,
    estimate_modularity,
    triangle_calibration,
)
from repro.protocols.ldpgen import LDPGenProtocol
from repro.protocols.lfgdpr import LFGDPRProtocol

__all__ = [
    "CollectedReports",
    "FakeReport",
    "GraphLDPProtocol",
    "Overrides",
    "PairedCollection",
    "SharedGraphPairedCollection",
    "apply_degree_overrides",
    "apply_overrides",
    "degrees_from_perturbed_graph",
    "estimate_clustering_coefficients",
    "estimate_modularity",
    "triangle_calibration",
    "LDPGenProtocol",
    "LFGDPRProtocol",
]
