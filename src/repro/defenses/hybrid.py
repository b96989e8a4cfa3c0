"""A hybrid countermeasure (extension — the "new defense" the paper calls for).

The paper's conclusion is that neither countermeasure alone suffices:
Detect1 sees coordinated claim *patterns* (MGA) but not inconsistent
*values* (RVA); Detect2 sees value inconsistencies but not coordination.
This extension combines both signals and adds a third that neither uses —
the *noise-level* check: a verbatim crafted bit vector has no randomized-
response noise in it, so its 1-count sits far below (or above) the
perturbed-degree distribution genuine rows follow.

Flagging is evidence-weighted: the consistency and coordination signals
carry two votes each — each is the *only* signal able to see an entire
attack family (consistency for RVA, whose claim count blends into the
perturbed-degree distribution by construction; coordination for the
consistency-evading MGA variant, ``DegreeMGA(evade_consistency=True)``) —
while the noise-level check carries one vote as a confirmation signal.
Users reaching ``min_votes`` are flagged.  Repair redraws flagged rows at
ambient density
(Detect1's reconstruction) rather than removing them: removal shrinks the
estimation universe, and the benchmark comparison
(``bench_ext_hybrid_defense``) shows its collateral damage on the clustering
estimator exceeds the attacks themselves, while resampling keeps every node
in place at honest-looking noise levels.
"""

from __future__ import annotations

import numpy as np

from repro.defenses.base import Defense, resample_flagged_rows
from repro.defenses.degree_consistency import DegreeConsistencyDefense
from repro.defenses.frequent_itemset import FrequentItemsetDefense
from repro.ldp.mechanisms import rr_keep_probability
from repro.protocols.base import CollectedReports
from repro.utils.validation import check_positive, check_positive_int


class HybridDefense(Defense):
    """Vote-based combination of coordination, consistency and noise checks.

    Parameters
    ----------
    itemset_threshold:
        Detect1 threshold for the coordination vote.
    min_votes:
        Votes required to flag a user (1 = union of signals, 3 = unanimous).
    noise_z:
        Width of the acceptance band for the noise-level vote, in standard
        deviations of the perturbed-degree distribution.
    """

    name = "Hybrid"

    def __init__(
        self,
        itemset_threshold: int = 100,
        min_votes: int = 2,
        noise_z: float = 3.0,
    ):
        min_votes = check_positive_int(min_votes, "min_votes")
        check_positive(noise_z, "noise_z")
        if min_votes > 5:
            raise ValueError(
                f"the maximum attainable vote count is 5; min_votes={min_votes}"
            )
        self.coordination = FrequentItemsetDefense(threshold=itemset_threshold)
        self.consistency = DegreeConsistencyDefense()
        self.min_votes = min_votes
        self.noise_z = float(noise_z)

    def noise_level_votes(self, reports: CollectedReports) -> np.ndarray:
        """Vote for rows whose 1-count is implausible under honest RR.

        An honest perturbed row's 1-count is approximately normal around
        ``d p + (N-1-d)(1-p)``; without knowing ``d`` the server can still
        bound it using the population of observed rows: rows outside
        ``median +/- z * sigma`` (sigma from the binomial noise floor plus
        the empirical spread) are suspicious.
        """
        n = reports.num_nodes
        keep = rr_keep_probability(reports.adjacency_epsilon)
        row_counts = reports.perturbed_graph.degrees().astype(np.float64)
        center = np.median(row_counts)
        binomial_sigma = np.sqrt((n - 1) * keep * (1.0 - keep))
        sigma = max(binomial_sigma, np.std(row_counts))
        return np.abs(row_counts - center) > self.noise_z * sigma

    def detect(self, reports: CollectedReports) -> np.ndarray:
        votes = np.zeros(reports.num_nodes, dtype=np.int64)
        votes[self.coordination.detect(reports)] += 2
        votes[self.consistency.detect(reports)] += 2
        votes[self.noise_level_votes(reports)] += 1
        return np.flatnonzero(votes >= self.min_votes).astype(np.int64)

    def repair(self, reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
        return resample_flagged_rows(reports, flagged, rng=0)
