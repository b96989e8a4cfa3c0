"""LDP graph-collection protocols: LF-GDPR and LDPGen."""

from repro.protocols.base import (
    CollectedReports,
    FakeReport,
    GraphLDPProtocol,
    Overrides,
    PairedBaseline,
    PairedCollection,
    SharedGraphPairedCollection,
    apply_degree_overrides,
    apply_overrides,
    apply_overrides_tracked,
)
from repro.protocols.estimators import (
    degrees_from_perturbed_graph,
    estimate_clustering_coefficients,
    estimate_modularity,
    fuse_degree_estimates,
    triangle_calibration,
)
from repro.protocols.degree_distribution import (
    degree_histogram,
    estimate_degree_distribution,
    histogram_distance,
)
from repro.protocols.ldpgen import LDPGenProtocol
from repro.protocols.lfgdpr import LFGDPRProtocol

__all__ = [
    "degree_histogram",
    "estimate_degree_distribution",
    "histogram_distance",
    "CollectedReports",
    "FakeReport",
    "GraphLDPProtocol",
    "Overrides",
    "PairedBaseline",
    "PairedCollection",
    "SharedGraphPairedCollection",
    "apply_degree_overrides",
    "apply_overrides",
    "apply_overrides_tracked",
    "degrees_from_perturbed_graph",
    "estimate_clustering_coefficients",
    "estimate_modularity",
    "fuse_degree_estimates",
    "triangle_calibration",
    "LDPGenProtocol",
    "LFGDPRProtocol",
]
