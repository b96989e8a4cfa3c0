"""Degree-consistency detection (Detect2, §VII-B).

A genuine user's two reports are consistent: its Laplace-perturbed degree
centres on the same value its randomized-response bit vector encodes.  RVA
breaks that link — the degree is drawn uniformly from the whole degree space
— so a large gap between the degree calculated from the perturbed bit vector
and the directly reported degree marks a fake user.  Detected users have
their claimed connections removed, restoring genuine nodes' degrees.
"""

from __future__ import annotations

import math

import numpy as np

from repro.defenses.base import Defense, remove_flagged_pairs
from repro.protocols.base import CollectedReports
from repro.protocols.estimators import (
    degree_estimate_variance_bits,
    degree_estimate_variance_laplace,
    degrees_from_perturbed_graph,
)
from repro.utils.validation import check_epsilon


class DegreeConsistencyDefense(Defense):
    """Detect2: flag users whose two degree channels disagree.

    Parameters
    ----------
    threshold:
        Flag when ``|reported_degree - degree_from_bits| > threshold``, a
        finite positive real.
        Two policies for the default (``None``):

        * ``"sigma"`` rule (default): 3 standard deviations of the honest
          difference — ``3 * sqrt(var_bits + var_laplace)`` — a calibrated
          false-positive rate of ~0.3%.
        * ``"paper"``: the paper's literal rule, the *maximum* bit-vector
          degree plus three Laplace standard deviations.  Far more
          permissive (high false-negative rate), which is exactly the
          weakness Exp 7 reports.
    policy:
        Which automatic threshold to use when ``threshold`` is ``None``.
    """

    name = "Detect2"

    def __init__(self, threshold: float | None = None, policy: str = "sigma"):
        if policy not in ("sigma", "paper"):
            raise ValueError(f"policy must be 'sigma' or 'paper', got {policy!r}")
        # A NaN or infinite threshold would flag no user; True is no threshold.
        self.threshold = None if threshold is None else check_epsilon(threshold, "threshold")
        self.policy = policy

    def consistency_gaps(self, reports: CollectedReports) -> np.ndarray:
        """``|reported - from_bits|`` per user."""
        from_bits = degrees_from_perturbed_graph(
            reports.perturbed_graph, reports.adjacency_epsilon
        )
        return np.abs(np.asarray(reports.reported_degrees, dtype=np.float64) - from_bits)

    def effective_threshold(self, reports: CollectedReports) -> float:
        """The threshold actually used for these reports."""
        if self.threshold is not None:
            return float(self.threshold)
        laplace_sigma = math.sqrt(degree_estimate_variance_laplace(reports.degree_epsilon))
        if self.policy == "paper":
            from_bits = degrees_from_perturbed_graph(
                reports.perturbed_graph, reports.adjacency_epsilon
            )
            return float(from_bits.max() + 3.0 * laplace_sigma)
        bits_sigma = math.sqrt(
            degree_estimate_variance_bits(reports.num_nodes, reports.adjacency_epsilon)
        )
        return 3.0 * math.sqrt(bits_sigma**2 + laplace_sigma**2)

    def detect(self, reports: CollectedReports) -> np.ndarray:
        gaps = self.consistency_gaps(reports)
        return np.flatnonzero(gaps > self.effective_threshold(reports)).astype(np.int64)

    def repair(self, reports: CollectedReports, flagged: np.ndarray) -> CollectedReports:
        return remove_flagged_pairs(reports, flagged)
