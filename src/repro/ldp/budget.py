"""Privacy-budget allocation between the two atomic graph metrics.

LF-GDPR splits the total budget ``eps`` into ``eps1`` for the adjacency bit
vector (randomized response) and ``eps2`` for the degree (Laplace mechanism).
The paper mounts every attack on an even split, and its attacks assume the
attacker knows both sub-budgets, so the split is an explicit, inspectable
object here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_epsilon


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


def split_budget(epsilon: float) -> BudgetAllocation:
    """Split ``epsilon`` evenly into (eps1, eps2), the split the paper uses."""
    check_epsilon(epsilon)
    half = epsilon * 0.5
    return BudgetAllocation(adjacency_epsilon=half, degree_epsilon=half)
