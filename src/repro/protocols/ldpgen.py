"""The LDPGen protocol (Qin et al., CCS 2017), used in Exp 9.

LDPGen generates a *synthetic* decentralized social graph under edge LDP:

1. users are placed into ``k0`` random initial groups;
2. each user reports a Laplace-perturbed vector counting its neighbours in
   every group (half the budget);
3. the server clusters users by their noisy vectors (k-means) into ``k1``
   refined groups;
4. users report noisy neighbour counts toward the refined groups (the other
   half of the budget);
5. the server estimates inter-/intra-group connection probabilities and
   samples a synthetic graph (Chung–Lu / BTER style), on which all metrics
   are computed directly.

Fake-user overrides supply *claimed neighbour sets*; the protocol derives
the fake user's group-count vectors from the claims verbatim (no noise),
matching the threat model where fake users send arbitrary crafted data.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.metrics import local_clustering_coefficients, modularity_from_labels
from repro.protocols.base import (
    CollectedReports,
    GraphLDPProtocol,
    Overrides,
    PairedCollection,
    require_replayable_seed,
)
from repro.utils.rng import RngLike, child_rng
from repro.utils.sparse import decode_pairs, pairs_between, sample_pairs_excluding
from repro.utils.validation import check_epsilon, check_labels, check_positive_int


def _group_count_vectors(graph: Graph, labels: np.ndarray, num_groups: int) -> np.ndarray:
    """Per-user organic neighbour counts toward each group."""
    n = graph.num_nodes
    vectors = np.zeros((n, num_groups), dtype=np.float64)
    rows, cols = graph.edge_arrays()
    np.add.at(vectors, (rows, labels[cols]), 1.0)
    np.add.at(vectors, (cols, labels[rows]), 1.0)
    return vectors


def _apply_vector_overrides(
    noisy: np.ndarray,
    labels: np.ndarray,
    num_groups: int,
    overrides: Overrides | None,
) -> np.ndarray:
    """Inject crafted rows: replace-mode rows verbatim, augment-mode added.

    Replace-mode fake users submit the exact group counts of their claimed
    neighbour set (no noise — crafted data is sent verbatim); augment-mode
    users keep their honest noisy row and add the counts of the extra edges.
    """
    if not overrides:
        return noisy
    result = noisy.copy()
    for node, report in overrides.items():
        claimed = report.claimed_neighbors
        claim_counts = (
            np.bincount(labels[claimed], minlength=num_groups).astype(np.float64)
            if claimed.size
            else np.zeros(num_groups, dtype=np.float64)
        )
        if report.augment:
            result[node] = result[node] + claim_counts
        else:
            result[node] = claim_counts
    return result


def _sample_bipartite_edges(
    group_a: np.ndarray, group_b: np.ndarray, count: int, rng: np.random.Generator
) -> list[tuple[int, int]]:
    """Sample ``count`` distinct cross-group pairs uniformly."""
    total = group_a.size * group_b.size
    if count >= total:
        return [(int(u), int(v)) for u in group_a for v in group_b]
    picked: np.ndarray = np.empty(0, dtype=np.int64)
    while picked.size < count:
        draws = rng.integers(0, total, size=int((count - picked.size) * 1.2) + 8)
        picked = np.unique(np.concatenate([picked, draws]))
    if picked.size > count:
        picked = rng.choice(picked, size=count, replace=False)
    a_index = picked // group_b.size
    b_index = picked % group_b.size
    return list(zip(group_a[a_index].tolist(), group_b[b_index].tolist()))


class _LDPGenSharedState:
    """The honest (override-independent) randomness of one LDPGen round.

    Everything here is a pure function of ``(graph, seed)``: the initial
    grouping, the organic phase-1 vectors, both Laplace noise matrices and
    the k-means seed.  Phase-2 noise can be pre-drawn because its shape
    ``(n, clusters)`` does not depend on overrides; each stream is an
    independent named child of the seed, so drawing it here rather than
    mid-pipeline yields identical values.
    """

    __slots__ = (
        "graph", "seed", "initial_labels", "noisy1", "clusters",
        "kmeans_seed", "phase2_noise",
    )

    def __init__(self, protocol: "LDPGenProtocol", graph: Graph, rng: RngLike):
        n = graph.num_nodes
        noise_scale = 1.0 / protocol.phase_epsilon
        self.graph = graph
        self.seed = rng
        group_rng = child_rng(rng, "ldpgen-grouping")
        self.initial_labels = group_rng.integers(0, protocol.initial_groups, size=n)
        vectors1 = _group_count_vectors(graph, self.initial_labels, protocol.initial_groups)
        phase1_rng = child_rng(rng, "ldpgen-phase1")
        self.noisy1 = vectors1 + phase1_rng.laplace(0.0, noise_scale, size=vectors1.shape)
        self.clusters = min(protocol.refined_groups, max(1, n))
        self.kmeans_seed = int(child_rng(rng, "ldpgen-kmeans").integers(2**31))
        phase2_rng = child_rng(rng, "ldpgen-phase2")
        self.phase2_noise = phase2_rng.laplace(0.0, noise_scale, size=(n, self.clusters))


class _LDPGenPairedCollection(PairedCollection):
    """Paired LDPGen views sharing one :class:`_LDPGenSharedState`."""

    def __init__(self, protocol: "LDPGenProtocol", graph: Graph, rng: RngLike):
        self._protocol = protocol
        self._state = _LDPGenSharedState(protocol, graph, require_replayable_seed(rng))
        self._before = protocol._collect_from_state(self._state, None)

    @property
    def before(self) -> CollectedReports:
        return self._before

    def after(self, overrides: Overrides | None) -> CollectedReports:
        if not overrides:
            return self._before
        return self._protocol._collect_from_state(self._state, overrides)


class LDPGenProtocol(GraphLDPProtocol):
    """LDPGen with configurable group counts.

    Parameters
    ----------
    epsilon:
        Total privacy budget; split evenly across the two reporting phases.
    initial_groups:
        ``k0`` — number of random groups in phase 1 (the original paper
        uses 2).
    refined_groups:
        ``k1`` — number of k-means clusters for phase 2.  LDPGen derives an
        optimal value from the noisy degrees; a fixed, tunable count keeps
        the reproduction deterministic and exercises the same code path.
    """

    def __init__(self, epsilon: float, initial_groups: int = 2, refined_groups: int = 8):
        check_epsilon(epsilon)
        self.epsilon = float(epsilon)
        self.initial_groups = check_positive_int(initial_groups, "initial_groups")
        self.refined_groups = check_positive_int(refined_groups, "refined_groups")

    @property
    def phase_epsilon(self) -> float:
        """Budget per reporting phase (sequential composition over 2 phases)."""
        return self.epsilon / 2.0

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(
        self, graph: Graph, rng: RngLike, overrides: Overrides | None = None
    ) -> CollectedReports:
        """Run the two-phase pipeline and return the synthetic graph.

        ``perturbed_graph`` in the returned reports *is* the synthetic graph;
        ``reported_degrees`` are the users' total noisy neighbour counts from
        phase 2 (the degree information the server actually holds).
        """
        return self._collect_from_state(_LDPGenSharedState(self, graph, rng), overrides)

    def collect_paired(self, graph: Graph, rng: RngLike) -> PairedCollection:
        """One draw of the honest randomness shared across before/after views.

        LDPGen's honest randomness — initial grouping, both Laplace noise
        matrices, the k-means seed — is a pure function of the seed, so the
        paired run draws it once.  The downstream pipeline (k-means on the
        overridden phase-1 vectors, phase-2 counting, synthetic generation)
        still reruns per view, because overrides can re-cluster users and
        thereby change the synthetic graph globally: after-views are
        therefore *not* localisable and carry no paired baseline.
        """
        return _LDPGenPairedCollection(self, graph, rng)

    def _collect_from_state(
        self, state: "_LDPGenSharedState", overrides: Overrides | None
    ) -> CollectedReports:
        """The override-dependent tail of the pipeline, given shared state."""
        from scipy.cluster.vq import kmeans2

        clusters = state.clusters
        noisy1 = _apply_vector_overrides(
            state.noisy1, state.initial_labels, self.initial_groups, overrides
        )
        with warnings.catch_warnings():
            # An empty refined group is a normal outcome on small or noisy
            # inputs: ``_generate`` gives it zero pair capacity.  scipy's
            # ``missing="warn"`` labels are what every recorded result holds,
            # so only its warning is silenced.
            warnings.filterwarnings(
                "ignore", message="One of the clusters is empty", category=UserWarning
            )
            _, refined_labels = kmeans2(
                noisy1, clusters, minit="points", seed=state.kmeans_seed
            )
        refined_labels = refined_labels.astype(np.int64)

        vectors2 = _group_count_vectors(state.graph, refined_labels, clusters)
        noisy2 = vectors2 + state.phase2_noise
        noisy2 = _apply_vector_overrides(noisy2, refined_labels, clusters, overrides)

        synthetic = self._generate(
            noisy2, refined_labels, clusters, child_rng(state.seed, "ldpgen-generate")
        )
        overridden = (
            np.sort(np.fromiter(overrides.keys(), dtype=np.int64))
            if overrides
            else np.empty(0, dtype=np.int64)
        )
        return CollectedReports(
            perturbed_graph=synthetic,
            reported_degrees=np.maximum(noisy2.sum(axis=1), 0.0),
            adjacency_epsilon=self.phase_epsilon,
            degree_epsilon=self.phase_epsilon,
            overridden=overridden,
        )

    def _generate(
        self,
        noisy_vectors: np.ndarray,
        labels: np.ndarray,
        clusters: int,
        rng: np.random.Generator,
    ) -> Graph:
        """Sample the synthetic graph from estimated group connectivity.

        The per-group-pair capacities and edge probabilities are computed as
        whole ``clusters x clusters`` matrices with NumPy index arithmetic;
        only the actual edge sampling loops over group pairs (it must, to
        keep the RNG draw order — and therefore the sampled graph — exactly
        the same as a pairwise scalar implementation).
        """
        n = noisy_vectors.shape[0]
        members = [np.flatnonzero(labels == g) for g in range(clusters)]
        sizes = np.array([group.size for group in members], dtype=np.int64)

        # Directed claim mass from group g toward group h.
        claims = np.zeros((clusters, clusters), dtype=np.float64)
        for g in range(clusters):
            if members[g].size:
                claims[g] = noisy_vectors[members[g]].sum(axis=0)

        # Pair capacity per group pair: C(size, 2) on the diagonal (intra),
        # size_g * size_h off it (cross).
        capacity = pairs_between(sizes[:, None], sizes[None, :])
        np.fill_diagonal(capacity, sizes * (sizes - 1) // 2)
        # Estimated edge count per pair: every edge is claimed from both
        # endpoints, so cross mass is the two directed claims averaged and
        # intra mass is the group's self-claim halved.
        estimated = (claims + claims.T) / 2.0
        np.fill_diagonal(estimated, np.diag(claims) / 2.0)
        estimated = np.maximum(estimated, 0.0)
        probability = np.zeros_like(estimated)
        np.divide(estimated, capacity, out=probability, where=capacity > 0)
        probability = np.minimum(1.0, probability)

        edges: list[tuple[int, int]] = []
        for g in range(clusters):
            if capacity[g, g] > 0:
                count = int(rng.binomial(capacity[g, g], probability[g, g]))
                if count:
                    codes = sample_pairs_excluding(
                        members[g].size, count, np.empty(0, dtype=np.int64), rng
                    )
                    local_rows, local_cols = decode_pairs(codes, members[g].size)
                    edges.extend(
                        zip(
                            members[g][local_rows].tolist(),
                            members[g][local_cols].tolist(),
                        )
                    )
            for h in range(g + 1, clusters):
                if capacity[g, h] == 0:
                    continue
                count = int(rng.binomial(capacity[g, h], probability[g, h]))
                if count:
                    edges.extend(
                        _sample_bipartite_edges(members[g], members[h], count, rng)
                    )
        return Graph(n, edges)

    # ------------------------------------------------------------------
    # Estimation — metrics read directly off the synthetic graph
    # ------------------------------------------------------------------
    def estimate_degree_centrality(self, reports: CollectedReports) -> np.ndarray:
        """Degree centrality of each user in the synthetic graph."""
        n = reports.num_nodes
        if n <= 1:
            return np.zeros(n, dtype=np.float64)
        return reports.perturbed_graph.degrees().astype(np.float64) / (n - 1)

    def estimate_clustering_coefficient(
        self, reports: CollectedReports, nodes: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact local clustering coefficients of the synthetic graph, of
        every node or of each of ``nodes``."""
        return local_clustering_coefficients(reports.perturbed_graph, nodes)

    def estimate_modularity(self, reports: CollectedReports, labels: np.ndarray) -> float:
        """Exact modularity of the synthetic graph under ``labels``."""
        labels = check_labels(labels, reports.num_nodes)
        return modularity_from_labels(reports.perturbed_graph, labels)
