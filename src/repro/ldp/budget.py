"""Privacy-budget allocation between the two atomic graph metrics.

LF-GDPR splits the total budget ``eps`` into ``eps1`` for the adjacency bit
vector (randomized response) and ``eps2`` for the degree (Laplace mechanism),
choosing the split to minimise the estimation error of the target metric.
The paper's attacks assume the attacker knows both sub-budgets, so the split
is an explicit, inspectable object here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_epsilon, check_fraction


@dataclass(frozen=True)
class BudgetAllocation:
    """An (eps1, eps2) split of the total privacy budget.

    Attributes
    ----------
    adjacency_epsilon:
        Budget for randomized response on the adjacency bit vector (eps1).
    degree_epsilon:
        Budget for the Laplace mechanism on the degree (eps2).
    """

    adjacency_epsilon: float
    degree_epsilon: float

    def __post_init__(self):
        check_epsilon(self.adjacency_epsilon, "adjacency_epsilon")
        check_epsilon(self.degree_epsilon, "degree_epsilon")

    @property
    def total(self) -> float:
        """Total budget ``eps = eps1 + eps2`` (sequential composition)."""
        return self.adjacency_epsilon + self.degree_epsilon


def split_budget(epsilon: float, adjacency_fraction: float = 0.5) -> BudgetAllocation:
    """Split ``epsilon`` into (eps1, eps2) by a fixed fraction.

    LF-GDPR derives task-specific optimal fractions; for the metrics studied
    in the paper an even split is the reference point, and the fraction is a
    knob so experiments can sweep it.
    """
    check_epsilon(epsilon)
    check_fraction(adjacency_fraction, "adjacency_fraction")
    return BudgetAllocation(
        adjacency_epsilon=epsilon * adjacency_fraction,
        degree_epsilon=epsilon * (1.0 - adjacency_fraction),
    )
