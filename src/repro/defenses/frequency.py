"""Countermeasures for frequency-oracle poisoning (Cao et al., §VII there).

The paper's graph countermeasures are adapted from the defenses Cao et al.
proposed for frequency estimation; this module completes the substrate with
the originals:

* **normalization** — project the estimated frequencies onto the probability
  simplex (non-negative, summing to 1), bounding how much mass an attacker
  can add to targets without removing it elsewhere;
* **report-anomaly detection** for OUE — an honest OUE report has
  ``Binomial`` 1-count centred at ``p + (d-1) q``; reports outside a z-score
  band are discarded (Cao's "fake users detection" specialised to the
  oracle whose encoded space makes it well-defined).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ldp.frequency_oracles import OUE
from repro.utils.validation import check_positive


def normalize_frequencies(estimates: np.ndarray) -> np.ndarray:
    """Project frequency estimates onto the probability simplex.

    Euclidean projection (Duchi et al. 2008): the result is the closest
    vector with non-negative entries summing to 1.

    >>> normalize_frequencies(np.array([0.7, 0.5, -0.2])).round(2).tolist()
    [0.6, 0.4, 0.0]
    """
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.ndim != 1:
        raise ValueError("estimates must be a 1-D frequency vector")
    descending = np.sort(estimates)[::-1]
    cumulative = np.cumsum(descending) - 1.0
    indices = np.arange(1, estimates.size + 1)
    support = descending - cumulative / indices > 0
    if not support.any():
        # Degenerate (all mass far negative): fall back to uniform.
        return np.full_like(estimates, 1.0 / estimates.size)
    rho = indices[support][-1]
    theta = cumulative[rho - 1] / rho
    return np.maximum(estimates - theta, 0.0)


@dataclass(frozen=True)
class OUEAnomalyDefense:
    """Discard OUE reports whose 1-count is statistically implausible.

    Attributes
    ----------
    z_threshold:
        Reports are kept when their 1-count lies within ``z_threshold``
        standard deviations of the honest expectation.
    """

    z_threshold: float = 3.0

    def __post_init__(self):
        check_positive(self.z_threshold, "z_threshold")

    def expected_ones(self, oracle: OUE) -> float:
        """Mean 1-count of an honest OUE report."""
        return oracle.support_probability_true + (
            oracle.domain_size - 1
        ) * oracle.support_probability_false

    def ones_std(self, oracle: OUE) -> float:
        """Standard deviation of an honest report's 1-count."""
        p = oracle.support_probability_true
        q = oracle.support_probability_false
        return float(
            np.sqrt(p * (1 - p) + (oracle.domain_size - 1) * q * (1 - q))
        )

    def keep_mask(self, oracle: OUE, reports: np.ndarray) -> np.ndarray:
        """Boolean mask of reports that pass the anomaly check."""
        if not isinstance(oracle, OUE):
            raise TypeError("OUEAnomalyDefense only applies to OUE reports")
        reports = np.asarray(reports)
        ones = reports.sum(axis=1).astype(np.float64)
        center = self.expected_ones(oracle)
        band = self.z_threshold * self.ones_std(oracle)
        return np.abs(ones - center) <= band

    def filter_reports(self, oracle: OUE, reports: np.ndarray) -> np.ndarray:
        """Reports with anomalous rows removed."""
        return np.asarray(reports)[self.keep_mask(oracle, reports)]
