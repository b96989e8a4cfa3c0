"""Frequent-itemsets-based detection (Detect1, §VII-A).

MGA's fake users claim overlapping sets of targets (and, for the clustering
attack, each other), so pairs of nodes co-occur in many reported bit vectors
far beyond what perturbation noise produces.  The countermeasure:

1. mine node *pairs* that co-occur in suspiciously many bit vectors
   (frequent 2-itemsets — the level Apriori reaches first and the one the
   attack pattern manifests at);
2. flag every user whose bit vector contains more than ``threshold``
   frequent itemsets;
3. reconstruct flagged users' connections (here: re-drawn at ambient
   density; see ``repro.defenses.base.resample_flagged_rows``).

Mining runs vectorised over the sparse report matrix rather than through the
generic :mod:`repro.defenses.apriori` miner — same semantics (validated in
tests), graph-scale performance.  The Apriori property is still what makes
it tractable: only *individually* popular columns can participate in a
frequent pair, so co-occurrence is computed on the candidate columns only.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense, resample_flagged_rows
from repro.protocols.base import CollectedReports
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive


class FrequentItemsetDefense(Defense):
    """Detect1: frequent co-occurring claim pairs expose coordinated fakes.

    Parameters
    ----------
    threshold:
        A user is flagged when its bit vector contains more than this many
        frequent pairs (the x-axis of Figs. 12(a)/13(a)).
    item_support / pair_support:
        Minimum column count for candidate items and minimum co-occurrence
        for a frequent pair.  ``None`` (default) derives both from the data:
        items need counts above mean + 2 std of the column counts; pairs
        need co-occurrence above the independence expectation plus
        3 binomial standard deviations.
    rng:
        Seed for the reconstruction redraw.
    """

    name = "Detect1"

    def __init__(
        self,
        threshold: int = 100,
        item_support: int | None = None,
        pair_support: int | None = None,
        rng: RngLike = 0,
    ):
        check_positive(threshold, "threshold")
        self.threshold = int(threshold)
        self.item_support = item_support
        self.pair_support = pair_support
        self.rng = rng

    # ------------------------------------------------------------------
    def frequent_pair_counts(self, reports: CollectedReports) -> np.ndarray:
        """Per-user count of frequent pairs contained in their bit vector."""
        import scipy.sparse as sp

        adjacency = reports.perturbed_graph.csr().astype(np.int64)
        n = adjacency.shape[0]
        column_counts = np.asarray(adjacency.sum(axis=0)).ravel()

        if self.item_support is not None:
            item_support = self.item_support
        else:
            # Apriori prune: only above-average columns can be part of a
            # suspicious pair (fake coordination always *adds* claims).
            item_support = column_counts.mean()
        candidates = np.flatnonzero(column_counts >= item_support)
        if candidates.size < 2:
            return np.zeros(n, dtype=np.int64)

        submatrix = adjacency[:, candidates].tocsc()
        cooccurrence = (submatrix.T @ submatrix).toarray()
        np.fill_diagonal(cooccurrence, 0)

        if self.pair_support is not None:
            frequent = cooccurrence >= self.pair_support
        else:
            # Independence baseline: co-occurrence of columns a, b is
            # Binomial(n, (cnt_a/n)(cnt_b/n)) under no coordination.
            rates = column_counts[candidates] / n
            expected = n * np.outer(rates, rates)
            sigma = np.sqrt(np.maximum(expected * (1.0 - np.outer(rates, rates)), 1e-12))
            frequent = cooccurrence > expected + 3.0 * sigma
        frequent = sp.csr_matrix(frequent.astype(np.int64))

        # count_i = (1/2) sum_{(a,b) frequent} S[i,a] S[i,b]
        per_row = submatrix.multiply(submatrix @ frequent).sum(axis=1)
        return (np.asarray(per_row).ravel() // 2).astype(np.int64)

    def detect(self, reports: CollectedReports) -> np.ndarray:
        counts = self.frequent_pair_counts(reports)
        return np.flatnonzero(counts > self.threshold).astype(np.int64)

    def repair(self, reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
        return resample_flagged_rows(reports, flagged, rng=self.rng)
