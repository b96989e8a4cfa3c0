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

Mining runs on the packed plane (:func:`repro.protocols.base.packed_plane`)
of the symmetric reported graph, so every count is a popcount: a column's
count is the view's degree, the co-occurrence of columns ``a`` and ``b`` is
``popcount(row_a & row_b)``, and a row contains ``(a, b)`` iff its user is
a common neighbour of both.  The Apriori property keeps it tractable: only
*individually* popular columns can be in a frequent pair, so co-occurrence
is computed on the candidate columns' rows only (checked against an Apriori
miner in the tests).  Above ``REPRO_DENSE_MAX_BYTES`` no plane is packed:
the same counts run block pair by block pair over bounded row blocks built
from the view's edge codes (:class:`repro.graph.streaming.RowBlockBuilder`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.defenses.base import Defense, resample_flagged_rows
from repro.graph.bitmatrix import common_neighbor_counts, max_packed_bytes, pair_popcounts
from repro.graph.streaming import RowBlockBuilder, rows_per_block
from repro.protocols.base import CollectedReports, packed_plane
from repro.utils.rng import RngLike
from repro.utils.validation import check_non_negative_int, check_positive_int

#: Candidate grid cells per pair chunk: bounds the pair transients (tens of MB).
_PAIR_CHUNK = 1 << 18


class FrequentItemsetDefense(Defense):
    """Detect1: frequent co-occurring claim pairs expose coordinated fakes.

    Parameters
    ----------
    threshold:
        A user is flagged when its bit vector contains more than this many
        frequent pairs (the x-axis of Figs. 12(a)/13(a)); a positive integer.
    item_support / pair_support:
        Minimum column count for candidate items and minimum co-occurrence
        for a frequent pair, each ``None`` or a non-negative integer.
        ``None`` (default) derives both from the data: items need counts of
        at least the mean column count; pairs need co-occurrence above the
        independence expectation plus 3 binomial standard deviations.
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
        self.threshold = check_positive_int(threshold, "threshold")
        self.item_support = (
            None if item_support is None else check_non_negative_int(item_support, "item_support")
        )
        self.pair_support = (
            None if pair_support is None else check_non_negative_int(pair_support, "pair_support")
        )
        self.rng = rng

    # ------------------------------------------------------------------
    def frequent_pair_counts(self, reports: CollectedReports) -> np.ndarray:
        """Per-user count of frequent pairs contained in their bit vector."""
        n = reports.num_nodes
        counts = np.zeros(n, dtype=np.int64)
        if n < 2:  # no pair of columns
            return counts
        column_counts = reports.perturbed_graph.degrees()
        if self.item_support is not None:
            item_support = self.item_support
        else:
            # Apriori prune: only above-average columns can be part of a
            # suspicious pair (fake coordination always *adds* claims).
            item_support = column_counts.mean()
        candidates = np.flatnonzero(column_counts >= item_support)
        if candidates.size < 2:
            return counts
        rates = column_counts[candidates] / n
        for (a_lo, rows_a, columns_a), (b_lo, rows_b, columns_b), first, second in (
            _candidate_pairs(reports, candidates)
        ):
            cooccurrence = pair_popcounts(
                columns_a, first - a_lo, second - b_lo, v_columns=columns_b
            )
            if self.pair_support is not None:
                frequent = cooccurrence >= self.pair_support
            else:
                # Independence baseline: co-occurrence of columns a, b is
                # Binomial(n, (cnt_a/n)(cnt_b/n)) under no coordination.
                product = rates[first] * rates[second]
                expected = n * product
                sigma = np.sqrt(np.maximum(expected * (1.0 - product), 1e-12))
                frequent = cooccurrence > expected + 3.0 * sigma
            counts += common_neighbor_counts(
                rows_a, first[frequent] - a_lo, second[frequent] - b_lo, n, v_rows=rows_b
            )
        return counts

    def detect(self, reports: CollectedReports) -> np.ndarray:
        counts = self.frequent_pair_counts(reports)
        return np.flatnonzero(counts > self.threshold).astype(np.int64)

    def repair(self, reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
        return resample_flagged_rows(reports, flagged, rng=self.rng)


def _candidate_pairs(reports: CollectedReports, candidates: np.ndarray) -> Iterator[tuple]:
    """Every candidate pair ``a < b`` once, as ``(side_a, side_b, first,
    second)``: ``first`` and ``second`` index ``candidates``, ``first`` in
    runs of equal ids, at most :data:`_PAIR_CHUNK` grid cells a chunk; a
    side ``(lo, rows, columns)`` holds the packed rows of the candidates
    from ``lo`` on and their transpose (a column's bits are its row's).

    The rows are read from :func:`packed_plane`, one slice, when the plane
    fits the packing cap.  Above it no plane is packed: a slice is the
    candidates of one node-range block built from the view's edge codes, a
    fifth of the cap high, so two sides and a block being built fit in it.
    """
    n = reports.num_nodes
    plane = packed_plane(reports)
    if plane is not None:
        height, build = n, lambda start, stop: plane.rows[start:stop]
    else:
        height = rows_per_block(n, max_packed_bytes() // 5)
        build = RowBlockBuilder(n, reports.perturbed_graph.edge_codes).build
    cuts = np.searchsorted(candidates, np.append(np.arange(0, n, height), n)).tolist()
    bounds = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if lo < hi]

    def side(lo: int, hi: int) -> tuple:
        start = int(candidates[lo]) // height * height
        rows = build(start, min(n, start + height))[candidates[lo:hi] - start]
        return lo, rows, np.ascontiguousarray(rows.T)

    for index, (a_lo, a_hi) in enumerate(bounds):
        side_a = side(a_lo, a_hi)
        for b_lo, b_hi in bounds[index:]:
            side_b = side_a if b_lo == a_lo else side(b_lo, b_hi)
            step = max(1, _PAIR_CHUNK // (b_hi - b_lo))
            for start in range(a_lo, a_hi, step):
                stop = min(a_hi, start + step)
                first = np.repeat(np.arange(start, stop), b_hi - b_lo)
                second = np.tile(np.arange(b_lo, b_hi), stop - start)
                keep = first < second
                yield side_a, side_b, first[keep], second[keep]
