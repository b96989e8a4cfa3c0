"""Server-side estimators and the triangle calibration of LF-GDPR.

Implements, verbatim, the correction formulas the paper builds its clustering
attacks around:

* degree estimation from the perturbed adjacency matrix (randomized-response
  count calibration);
* the triangle calibration ``R(.)`` of Eq. (16): the observed triangle count
  around a node in the perturbed graph is a mixture of surviving true
  triangles (Case 1), half-true triangles (Case 2), and pure noise triangles
  (Case 3) — ``R`` inverts that mixture;
* the clustering-coefficient estimator of Eq. (15) and a modularity
  estimator for a server-held partition.
"""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import node_ids
from repro.graph.metrics import edge_density, triangles_per_node
from repro.graph.streaming import streaming_intra_community_edges
from repro.ldp.mechanisms import calibrate_bit_counts, rr_keep_probability
from repro.utils.validation import check_labels, check_positive


def degrees_from_perturbed_graph(
    perturbed: Graph, epsilon: float, excluded: np.ndarray | None = None
) -> np.ndarray:
    """Unbiased true-degree estimates from perturbed adjacency rows.

    Each node's perturbed row has ``N - 1`` bits; calibrating its 1-count
    with :func:`repro.ldp.mechanisms.calibrate_bit_counts` yields an unbiased
    estimate of the true degree.

    When a defense ``excluded`` some users, the surviving rows only cover
    ``N - 1 - |excluded|`` potential neighbours; the calibrated count over
    that reduced universe is extrapolated back to ``N - 1`` (degrees are
    assumed exchangeable across removed/kept neighbours).  Excluded users'
    own rows are empty and estimate to 0.
    """
    n = perturbed.num_nodes
    observed = perturbed.degrees().astype(np.float64)
    totals = np.full(n, n - 1, dtype=np.float64)
    scale = np.ones(n, dtype=np.float64)
    if excluded is not None and np.asarray(excluded).size:
        excluded = np.asarray(excluded, dtype=np.int64)
        remaining = n - 1 - excluded.size
        if remaining <= 0:
            return np.zeros(n, dtype=np.float64)
        kept = np.ones(n, dtype=bool)
        kept[excluded] = False
        totals[kept] = remaining
        scale[kept] = (n - 1) / remaining
        totals[~kept] = 1.0  # avoid 0-division; rows are empty anyway
        scale[~kept] = 0.0
    calibrated = calibrate_bit_counts(observed, totals, epsilon)
    return calibrated * scale


def degree_estimate_variance_bits(num_nodes: int, epsilon: float) -> float:
    """Variance of the bit-vector degree estimator (per node).

    Each of the ``N - 1`` bits is a Bernoulli with variance at most
    ``p (1 - p)``; calibration divides by ``(2p - 1)``, so the estimator
    variance is ``(N - 1) p (1 - p) / (2p - 1)^2``.
    """
    keep = rr_keep_probability(epsilon)
    return (num_nodes - 1) * keep * (1.0 - keep) / (2.0 * keep - 1.0) ** 2


def degree_estimate_variance_laplace(epsilon: float) -> float:
    """Variance of the Laplace degree self-report: ``2 / eps^2``."""
    check_positive(epsilon, "epsilon")
    return 2.0 / epsilon**2


def triangle_calibration(
    observed_triangles: np.ndarray,
    perturbed_degrees: np.ndarray,
    num_nodes: int,
    epsilon: float,
    perturbed_density: float,
) -> np.ndarray:
    """The correction function ``R(.)`` of Eq. (16).

    Parameters
    ----------
    observed_triangles:
        ``tau~_i`` — triangles incident to each node in the perturbed graph.
    perturbed_degrees:
        ``d~_i`` — each node's degree in the perturbed graph.
    num_nodes:
        Total number of users ``N``.
    epsilon:
        The adjacency budget ``eps1`` that produced the perturbed graph.
    perturbed_density:
        ``theta~`` — edge density of the perturbed graph (Eq. 17).

    Returns the paper's estimates of the true triangle counts ``tau_i``:

    ``R(tau~) = (tau~ - 1/2 d~(d~-1) p^2 (1-p)
                - d~(N-d~-1) p (1-p) theta~
                - 1/2 (N-d~-1)(N-d~-2) (1-p)^2 theta~) / (p^2 (2p-1))``

    The estimate is unbiased only when ``perturbed_degrees`` carries the true
    degrees and a node's neighbour pairs are independent edges at the global
    density ``theta~`` — the Erdős–Rényi case, checked with calibrated degree
    plug-ins by ``test_low_bias_with_calibrated_degrees``.  With the
    perturbed-degree plug-in of Eq. (16), which
    :func:`estimate_clustering_coefficients` uses, it is biased at low
    epsilon, where the perturbed degree over-counts.
    """
    keep = rr_keep_probability(epsilon)
    if keep == 0.5:
        raise ValueError("epsilon=0 leaves no signal to calibrate (2p - 1 = 0)")
    observed = np.asarray(observed_triangles, dtype=np.float64)
    degrees = np.asarray(perturbed_degrees, dtype=np.float64)
    complement = num_nodes - degrees - 1.0

    case1 = 0.5 * degrees * (degrees - 1.0) * keep**2 * (1.0 - keep)
    case2 = degrees * complement * keep * (1.0 - keep) * perturbed_density
    case3 = 0.5 * complement * (complement - 1.0) * (1.0 - keep) ** 2 * perturbed_density
    return (observed - case1 - case2 - case3) / (keep**2 * (2.0 * keep - 1.0))


def estimate_clustering_coefficients(
    perturbed: Graph,
    epsilon: float,
    observed_triangles: np.ndarray | None = None,
    nodes: np.ndarray | None = None,
) -> np.ndarray:
    """Clustering-coefficient estimates from the perturbed graph (Eq. 15).

    ``cc_i = 2 R(tau~_i) / (d~_i (d~_i - 1))`` with ``d~_i`` the node's
    degree in the perturbed graph, exactly as Eq. (15)/(16) are written in
    the paper.  Biased, because the perturbed degree over-counts at low
    epsilon, but it is the estimator the paper's attack analysis (and
    Theorem 2) is built on.  Nodes whose perturbed degree is below 2 get 0.
    Estimates are not clamped to [0, 1]; at low epsilon they leave the unit
    interval.

    ``nodes`` (ids in any order, repeats kept; ``None`` = every node)
    returns the full vector's floats at ``nodes``, counting only their
    triangles: Eq. (16) reads a node's own ``tau~`` and ``d~`` and the
    global ``theta~``.  ``observed_triangles`` optionally supplies those
    counts (exact integers), skipping the dominant
    :func:`triangles_per_node` pass — the paired-run hook.
    """
    degrees = perturbed.degrees().astype(np.float64)
    degrees = degrees if nodes is None else degrees[node_ids(nodes, perturbed.num_nodes)]
    if observed_triangles is None:
        observed_triangles = triangles_per_node(perturbed, nodes)
    observed = np.asarray(observed_triangles).astype(np.float64)
    density = edge_density(perturbed)
    corrected = triangle_calibration(
        observed, degrees, perturbed.num_nodes, epsilon, density
    )
    denominator = degrees * (degrees - 1.0)
    estimates = np.zeros(degrees.size, dtype=np.float64)
    valid = denominator > 0
    estimates[valid] = 2.0 * corrected[valid] / denominator[valid]
    return estimates


def estimate_modularity(
    perturbed: Graph,
    labels: np.ndarray,
    epsilon: float,
    degree_estimates: np.ndarray,
    observed_intra: np.ndarray | None = None,
) -> float:
    """Modularity estimate for a server-held partition.

    Intra-community edge counts observed in the perturbed graph are
    calibrated per community (the number of intra pairs is known from the
    partition); total edge mass comes from ``degree_estimates``, the
    calibrated bit-channel degrees of
    :func:`degrees_from_perturbed_graph`.
    ``labels`` holds one non-negative integer community id per node
    (:func:`repro.utils.validation.check_labels`).  ``observed_intra``
    optionally supplies the exact intra counts (the paired-run hook,
    mirroring ``observed_triangles`` above); otherwise they are counted by
    :func:`repro.graph.streaming.streaming_intra_community_edges`.
    """
    n = perturbed.num_nodes
    labels = check_labels(labels, n)
    num_communities = int(labels.max()) + 1 if n else 0

    if observed_intra is None:
        observed_intra = streaming_intra_community_edges(perturbed, labels, num_communities)
    observed_intra = np.asarray(observed_intra).astype(np.float64)
    community_sizes = np.bincount(labels, minlength=num_communities).astype(np.float64)
    intra_pairs = community_sizes * (community_sizes - 1.0) / 2.0
    estimated_intra = np.maximum(
        calibrate_bit_counts(observed_intra, intra_pairs, epsilon), 0.0
    )

    community_degrees = np.bincount(
        labels, weights=np.maximum(np.asarray(degree_estimates, dtype=np.float64), 0.0),
        minlength=num_communities,
    )
    total_edges = community_degrees.sum() / 2.0
    if total_edges <= 0:
        return 0.0
    return float(
        np.sum(estimated_intra / total_edges - (community_degrees / (2.0 * total_edges)) ** 2)
    )
