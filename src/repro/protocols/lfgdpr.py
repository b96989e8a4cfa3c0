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
# Unused here: perfbench/layers.py patches ``lfgdpr.should_use_packed`` by name.
from repro.graph.bitmatrix import should_use_packed  # noqa: F401
from repro.graph.metrics import (
    should_use_incremental,
    triangles_per_node_cached,
    triangles_per_node_incremental,
)
from repro.graph.streaming import iter_packed_row_blocks, streaming_intra_community_edges
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
    require_replayable_seed,
)
from repro.protocols.estimators import (
    degrees_from_perturbed_graph,
    estimate_clustering_coefficients,
    estimate_modularity,
    fuse_degree_estimates,
)
from repro.utils.rng import RngLike, child_rng
from repro.utils.sparse import decode_pairs
from repro.utils.validation import check_labels, check_positive


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
    """LF-GDPR with an explicit budget split and pluggable degree fusion.

    Parameters
    ----------
    epsilon:
        Total privacy budget ``eps = eps1 + eps2``.
    adjacency_fraction:
        Fraction of ``epsilon`` spent on the adjacency bit vector.
    degree_mode:
        Where degree estimates come from:

        * ``"bits"`` (default) — calibrated row counts of the collected
          adjacency matrix.  This is the estimator the paper's attack model
          implies: fake users influence a target's degree only through the
          bits they claim, and all three degree-centrality attacks in §V act
          through this channel.
        * ``"reported"`` — the Laplace self-report only.  An ablation that
          is immune to bit poisoning (but trivially attackable by the fake
          users' own reports and blind to report/bit inconsistencies).
        * ``"fused"`` — inverse-variance combination of both.  The
          minimum-variance honest-world estimator; because the self-report
          variance does not grow with N, it almost ignores the bit channel
          and therefore largely resists the paper's attacks — an ablation,
          not the estimator the paper's attack analysis assumes.
    clustering_degree_plugin:
        Degree plug-in for the clustering estimator: ``"perturbed"``
        (paper-faithful Eq. 15/16 default) or ``"calibrated"`` (lower-bias
        ablation).  See ``estimate_clustering_coefficients``.
    clip_clustering:
        Clamp clustering estimates to [0, 1].  Off by default: the paper's
        gain analysis (Eq. 22) works with the raw calibrated values, and
        clamping saturates at low epsilon where the raw estimates leave the
        unit interval, hiding attack effects entirely.
    """

    def __init__(
        self,
        epsilon: float,
        adjacency_fraction: float = 0.5,
        degree_mode: str = "bits",
        clustering_degree_plugin: str = "perturbed",
        clip_clustering: bool = False,
    ):
        check_positive(epsilon, "epsilon")
        if degree_mode not in ("bits", "reported", "fused"):
            raise ValueError(
                f"degree_mode must be 'bits', 'reported' or 'fused', got {degree_mode!r}"
            )
        self.budget: BudgetAllocation = split_budget(epsilon, adjacency_fraction)
        self.degree_mode = degree_mode
        self.clustering_degree_plugin = clustering_degree_plugin
        self.clip_clustering = bool(clip_clustering)

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
        ``max_bytes``) that drops when the consumer advances.

        Seed semantics match :meth:`collect` exactly: all randomness is
        drawn **eagerly in this call** from the same named child streams
        (``"lfgdpr-adjacency"`` then ``"lfgdpr-degree"``), consumed
        draw-for-draw identically — so for any block height, concatenating
        the blocks reproduces ``collect(graph, rng)``'s perturbed adjacency
        matrix and degree reports bit for bit.  Block iteration itself
        draws nothing.
        """
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
            for start, stop, rows in iter_packed_row_blocks(
                perturbed, block_rows, max_bytes=max_bytes
            ):
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
        run's honest view (packed matrix, triangle and intra-community
        counts) is computed lazily, once, in that run's paired cache.
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
        """Per-node degree estimates under the configured ``degree_mode``."""
        if self.degree_mode == "reported":
            return np.asarray(reports.reported_degrees, dtype=np.float64)
        from_bits = degrees_from_perturbed_graph(
            reports.perturbed_graph, reports.adjacency_epsilon, excluded=reports.excluded
        )
        if self.degree_mode == "bits":
            return from_bits
        return fuse_degree_estimates(
            reports.reported_degrees,
            from_bits,
            reports.num_nodes,
            reports.adjacency_epsilon,
            reports.degree_epsilon,
        )

    def estimate_degree_centrality(self, reports: CollectedReports) -> np.ndarray:
        """Normalized degree centrality ``d_hat / (N - 1)`` per node."""
        n = reports.num_nodes
        if n <= 1:
            return np.zeros(n, dtype=np.float64)
        return self.estimate_degrees(reports) / (n - 1)

    def estimate_clustering_coefficient(self, reports: CollectedReports) -> np.ndarray:
        """Clustering-coefficient estimates via the triangle calibration.

        When a defense excluded users, estimation runs on the induced
        subgraph of the remaining users (with its own N and edge density) —
        treating removed rows as all-zero bits of the full graph would bias
        every correction term of Eq. 16.  Excluded users estimate to 0.
        """
        excluded = np.asarray(reports.excluded, dtype=np.int64)
        if excluded.size == 0:
            return estimate_clustering_coefficients(
                reports.perturbed_graph,
                reports.adjacency_epsilon,
                clip=self.clip_clustering,
                degree_plugin=self.clustering_degree_plugin,
                observed_triangles=self._paired_triangles(reports),
            )
        n = reports.num_nodes
        kept = np.setdiff1d(np.arange(n), excluded)
        subgraph = reports.perturbed_graph.subgraph(kept)
        sub_estimates = estimate_clustering_coefficients(
            subgraph,
            reports.adjacency_epsilon,
            clip=self.clip_clustering,
            degree_plugin=self.clustering_degree_plugin,
        )
        estimates = np.zeros(n, dtype=np.float64)
        estimates[kept] = sub_estimates
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
    # Incremental paired-run estimation
    # ------------------------------------------------------------------
    def _paired_triangles(self, reports: CollectedReports) -> np.ndarray | None:
        """Perturbed-graph triangle counts via the paired baseline, if any.

        Honest view: computed once and cached on the shared run.  After
        view: the honest counts are updated over the touched rows only
        (exact integers, bit-identical to a full recount — see
        :func:`repro.graph.metrics.triangles_per_node_incremental`), falling
        back to a full recount past
        :data:`~repro.graph.metrics.DELTA_THRESHOLD`.  Returns
        ``None`` when the reports carry no usable baseline, letting the
        caller recompute from scratch.
        """
        base = reports.baseline
        if base is None:
            return None
        honest_graph = base.honest.perturbed_graph
        if reports is base.honest:
            return triangles_per_node_cached(honest_graph, base.cache)
        if base.touched is None:
            return None
        return triangles_per_node_incremental(
            honest_graph,
            reports.perturbed_graph,
            base.touched,
            triangles_per_node_cached(honest_graph, base.cache),
            cache=base.cache,
            added_codes=base.added_codes,
            removed_codes=base.removed_codes,
        )

    def _paired_intra(self, reports: CollectedReports, labels: np.ndarray) -> np.ndarray | None:
        """Observed intra-community edge counts via the paired baseline.

        The honest counts are cached per labelling; an after-view adjusts
        them by bucketing only the net added/removed same-label edges —
        exact integer updates, bit-identical to recounting the whole graph.
        """
        base = reports.baseline
        if base is None:
            return None
        n = reports.num_nodes
        labels = check_labels(labels, n)
        num_communities = int(labels.max()) + 1 if n else 0
        cached = base.cache.get("intra")
        if cached is None or not np.array_equal(cached[0], labels):
            honest_counts = streaming_intra_community_edges(
                base.honest.perturbed_graph, labels, num_communities
            )
            base.cache["intra"] = (labels, honest_counts)
        else:
            honest_counts = cached[1]
        if reports is base.honest:
            return honest_counts
        if base.touched is None or base.added_codes is None or base.removed_codes is None:
            return None
        if not should_use_incremental(n, base.touched.size):
            return None
        counts = np.array(honest_counts, copy=True)
        for codes, sign in ((base.added_codes, 1), (base.removed_codes, -1)):
            if codes.size:
                rows, cols = decode_pairs(codes, n)
                same = labels[rows] == labels[cols]
                counts += sign * np.bincount(
                    labels[rows[same]], minlength=num_communities
                )
        return counts
