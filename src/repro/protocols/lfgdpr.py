"""The LF-GDPR collection protocol (Ye et al., TKDE 2020).

LF-GDPR is the protocol the paper mounts its attacks on.  One collection
round proceeds in four steps:

1. *metric reduction* — the target metric is expressed over the adjacency
   matrix ``M`` and degree vector ``D`` (done by the estimator methods here);
2. *budget allocation* — ``eps`` is split into ``eps1`` (adjacency) and
   ``eps2`` (degree);
3. *local perturbation* — every user perturbs its adjacency bit vector with
   randomized response and its degree with the Laplace mechanism;
4. *calibrated aggregation* — the server estimates the metric, correcting the
   perturbation bias (``repro.protocols.estimators``).

Attack integration: fake users' reports are *overrides* — their adjacency
claims and degree values are taken verbatim, exactly matching the paper's
threat model.  Genuine-user noise derives from named child streams of the
``collect`` seed, so paired runs (same seed, with/without overrides) differ
only by the attacker's action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

from repro.graph.adjacency import Graph
# Unused here: perfbench/layers.py patches ``lfgdpr.should_use_packed`` and
# ``lfgdpr.triangles_per_node_incremental`` by name.
from repro.graph.bitmatrix import should_use_packed  # noqa: F401
from repro.graph.metrics import should_use_incremental, triangles_per_node_cached
from repro.graph.metrics import triangles_per_node_incremental  # noqa: F401
from repro.graph.streaming import (
    block_height,
    iter_packed_row_blocks,
    streaming_intra_community_edges,
)
from repro.ldp.budget import BudgetAllocation, split_budget
from repro.ldp.mechanisms import perturb_degree
from repro.ldp.perturbation import perturb_graph, perturb_graph_batch
from repro.protocols.base import (
    CollectedReports,
    GraphLDPProtocol,
    Overrides,
    PairedCollection,
    SharedGraphPairedCollection,
    apply_degree_overrides,
    apply_overrides,
    paired_edit,
    require_replayable_seed,
)
from repro.protocols.estimators import (
    degrees_from_perturbed_graph,
    estimate_clustering_coefficients,
    estimate_modularity,
)
from repro.utils.rng import RngLike, child_rng
from repro.utils.sparse import decode_pairs
from repro.utils.validation import check_epsilon, check_labels, node_ids


@dataclass(frozen=True)
class ReportBlock:
    """One contiguous user range of an LF-GDPR collection round.

    ``adjacency_rows`` holds users ``start .. stop - 1``'s perturbed
    adjacency bit vectors as packed uint64 rows (bit ``j`` of row ``i - start``
    = perturbed edge ``{i, j}``); ``reported_degrees`` the matching slice of
    Laplace-noised degree reports.  Blocks tile ``[0, N)`` in order.
    """

    start: int
    stop: int
    adjacency_rows: np.ndarray
    reported_degrees: np.ndarray


class LFGDPRProtocol(GraphLDPProtocol):
    """LF-GDPR as the paper attacks it: an even budget split, degrees from
    the bit channel and raw Eq. 15 clustering values.

    Parameters
    ----------
    epsilon:
        Total privacy budget ``eps = eps1 + eps2``, split evenly between the
        adjacency bit vector and the Laplace degree report.

    Degree estimates are calibrated row counts of the collected adjacency
    matrix: fake users influence a target's degree only through the bits
    they claim, and all three degree-centrality attacks in §V act through
    this channel.  Clustering estimates are not clamped to [0, 1]: the
    paper's gain analysis (Eq. 22) works with the raw calibrated values,
    which leave the unit interval at low epsilon.
    """

    def __init__(self, epsilon: float):
        check_epsilon(epsilon)
        self.budget: BudgetAllocation = split_budget(epsilon)

    @property
    def epsilon(self) -> float:
        """Total privacy budget."""
        return self.budget.total

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(
        self, graph: Graph, rng: RngLike, overrides: Overrides | None = None
    ) -> CollectedReports:
        """One collection round; see the module docstring for semantics."""
        perturbed = perturb_graph(
            graph, self.budget.adjacency_epsilon, rng=child_rng(rng, "lfgdpr-adjacency")
        )
        noisy_degrees = perturb_degree(
            graph.degrees(),
            self.budget.degree_epsilon,
            rng=child_rng(rng, "lfgdpr-degree"),
        )
        perturbed, overridden = apply_overrides(perturbed, overrides)
        reported = apply_degree_overrides(noisy_degrees, overrides)
        return CollectedReports(
            perturbed_graph=perturbed,
            reported_degrees=reported,
            adjacency_epsilon=self.budget.adjacency_epsilon,
            degree_epsilon=self.budget.degree_epsilon,
            overridden=overridden,
        )

    def collect_blocks(
        self,
        graph: Graph,
        rng: RngLike,
        *,
        block_rows: int | None = None,
        max_bytes: int | None = None,
    ) -> Iterator[ReportBlock]:
        """One collection round streamed as per-user report blocks.

        The out-of-core counterpart of :meth:`collect` for graphs whose
        packed adjacency matrix (``n^2/8`` bytes — 125 GB at a million
        users) cannot be materialized: the perturbed graph lives only in
        its sparse pair-code form, and each yielded
        :class:`ReportBlock` carries one packed row range sized to
        ``REPRO_DENSE_MAX_BYTES`` (or the explicit ``block_rows`` /
        ``max_bytes``, both validated in this call before any draw).  Peak
        memory is two blocks, not one: the block the consumer still holds
        while the next one is built, on top of the sparse codes and the
        builder's three E-length arrays.

        Seed semantics match :meth:`collect` exactly: all randomness is
        drawn **eagerly in this call** from the same named child streams
        (``"lfgdpr-adjacency"`` then ``"lfgdpr-degree"``), consumed
        draw-for-draw identically — so for any block height, concatenating
        the blocks reproduces ``collect(graph, rng)``'s perturbed adjacency
        matrix and degree reports bit for bit.  Block iteration itself
        draws nothing.
        """
        height = block_height(graph.num_nodes, block_rows, max_bytes)
        perturbed = perturb_graph(
            graph, self.budget.adjacency_epsilon, rng=child_rng(rng, "lfgdpr-adjacency")
        )
        noisy_degrees = np.asarray(
            perturb_degree(
                graph.degrees(),
                self.budget.degree_epsilon,
                rng=child_rng(rng, "lfgdpr-degree"),
            ),
            dtype=np.float64,
        )

        def blocks() -> Iterator[ReportBlock]:
            for start, stop, rows in iter_packed_row_blocks(perturbed, height):
                yield ReportBlock(
                    start=start,
                    stop=stop,
                    adjacency_rows=rows,
                    reported_degrees=noisy_degrees[start:stop],
                )

        return blocks()

    def collect_paired(self, graph: Graph, rng: RngLike) -> PairedCollection:
        """One honest perturbation shared across before/after views.

        LF-GDPR's honest randomness is exactly the perturbed graph and the
        noisy degree vector, both pure functions of the seed — so the paired
        run draws them once and manufactures after-views by override
        application alone, bit-identical to :meth:`collect` under the same
        seed but at half the collection cost per pair.  A paired run is a
        batch of one: :meth:`collect_paired_batch` is the only body.
        """
        return self.collect_paired_batch(graph, [rng])[0]

    def collect_paired_batch(
        self, graph: Graph, seeds: Sequence[RngLike]
    ) -> List[SharedGraphPairedCollection]:
        """All trials of one figure point collected as paired runs.

        Entry ``t`` of the result is bit-identical to two seed-replayed
        :meth:`collect` calls with ``seeds[t]``: every per-trial RNG stream
        is derived with the same ``child_rng`` keys and consumed in the same
        order.  :func:`perturb_graph_batch` hoists the perturbation setup
        shared by the trials; everything the estimators derive from a
        run's honest view (the decoded plane, the packed matrix and the
        intra-community counts) is computed lazily, once, in that run's
        paired cache.
        """
        seeds = [require_replayable_seed(seed) for seed in seeds]
        adjacency_rngs = [child_rng(seed, "lfgdpr-adjacency") for seed in seeds]
        perturbed = perturb_graph_batch(
            graph, self.budget.adjacency_epsilon, adjacency_rngs
        )
        honest_degrees = graph.degrees()
        runs: List[SharedGraphPairedCollection] = []
        for seed, plane_graph in zip(seeds, perturbed):
            noisy_degrees = perturb_degree(
                honest_degrees,
                self.budget.degree_epsilon,
                rng=child_rng(seed, "lfgdpr-degree"),
            )
            honest = CollectedReports(
                perturbed_graph=plane_graph,
                reported_degrees=np.asarray(noisy_degrees, dtype=np.float64),
                adjacency_epsilon=self.budget.adjacency_epsilon,
                degree_epsilon=self.budget.degree_epsilon,
            )
            runs.append(SharedGraphPairedCollection(honest))
        return runs

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_degrees(self, reports: CollectedReports) -> np.ndarray:
        """Per-node degree estimates from the collected adjacency bits."""
        return degrees_from_perturbed_graph(
            reports.perturbed_graph, reports.adjacency_epsilon, excluded=reports.excluded
        )

    def estimate_degree_centrality(self, reports: CollectedReports) -> np.ndarray:
        """Normalized degree centrality ``d_hat / (N - 1)`` per node."""
        n = reports.num_nodes
        if n <= 1:
            return np.zeros(n, dtype=np.float64)
        return self.estimate_degrees(reports) / (n - 1)

    def estimate_clustering_coefficient(
        self, reports: CollectedReports, nodes: np.ndarray | None = None
    ) -> np.ndarray:
        """Clustering-coefficient estimates via the triangle calibration, at
        ``nodes`` or at every node (``None``).

        When a defense excluded users, estimation runs on the induced
        subgraph of the remaining users (with its own N and edge density) —
        treating removed rows as all-zero bits of the full graph would bias
        every correction term of Eq. 16.  Excluded users estimate to 0.
        """
        if reports.excluded.size == 0:
            return estimate_clustering_coefficients(
                reports.perturbed_graph,
                reports.adjacency_epsilon,
                observed_triangles=self._paired_triangles(reports, nodes),
                nodes=nodes,
            )
        n = reports.num_nodes
        kept = np.setdiff1d(np.arange(n), reports.excluded)
        local = np.full(n, -1, dtype=np.int64)  # subgraph id; -1 = excluded
        local[kept] = np.arange(kept.size)
        at = local if nodes is None else local[node_ids(nodes, n)]
        estimates = np.zeros(at.size, dtype=np.float64)
        estimates[at >= 0] = estimate_clustering_coefficients(
            reports.perturbed_graph.subgraph(kept), reports.adjacency_epsilon,
            nodes=None if nodes is None else at[at >= 0],
        )
        return estimates

    def estimate_modularity(self, reports: CollectedReports, labels: np.ndarray) -> float:
        """Modularity estimate for a server-held community labelling."""
        return estimate_modularity(
            reports.perturbed_graph,
            labels,
            reports.adjacency_epsilon,
            self.estimate_degrees(reports),
            observed_intra=self._paired_intra(reports, labels),
        )

    # ------------------------------------------------------------------
    # Paired-run estimation
    # ------------------------------------------------------------------
    def _paired_triangles(
        self, reports: CollectedReports, nodes: np.ndarray | None
    ) -> np.ndarray | None:
        """Perturbed-graph triangle counts at ``nodes`` (all when ``None``)
        through the paired run's cache: the honest plane is packed once and
        an after-view counted on it patched with the view's net edits
        (:func:`repro.graph.metrics.triangles_per_node_cached`).  ``None``
        when the reports carry no usable baseline.
        """
        plane, cache, added, removed = paired_edit(reports)
        if cache is None:
            return None
        edits = None if plane is reports else (added, removed)
        return triangles_per_node_cached(reports.perturbed_graph, cache, nodes, edits)

    def _paired_intra(self, reports: CollectedReports, labels: np.ndarray) -> np.ndarray | None:
        """Observed intra-community edge counts via the paired baseline.

        The honest counts are cached per labelling; an after-view adjusts
        them by bucketing only the net added/removed same-label edges —
        exact integer updates, bit-identical to recounting the whole graph.
        """
        plane, cache, added, removed = paired_edit(reports)
        if cache is None:
            return None
        n = reports.num_nodes
        labels = check_labels(labels, n)
        num_communities = int(labels.max()) + 1 if n else 0
        cached = cache.get("intra")
        if cached is None or not np.array_equal(cached[0], labels):
            honest_counts = streaming_intra_community_edges(
                plane.perturbed_graph, labels, num_communities
            )
            cache["intra"] = (labels, honest_counts)
        else:
            honest_counts = cached[1]
        if plane is reports:
            return honest_counts
        touched = reports.baseline.touched
        if touched is None or not should_use_incremental(n, touched.size):
            return None
        counts = np.array(honest_counts, copy=True)
        for codes, sign in ((added, 1), (removed, -1)):
            if codes.size:
                rows, cols = decode_pairs(codes, n)
                same = labels[rows] == labels[cols]
                counts += sign * np.bincount(
                    labels[rows[same]], minlength=num_communities
                )
        return counts
