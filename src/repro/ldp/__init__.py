"""LDP substrate: mechanisms, sparse RR simulation, budget."""

from repro.ldp.budget import BudgetAllocation, split_budget
from repro.ldp.mechanisms import (
    calibrate_bit_counts,
    laplace_noise,
    perturb_bits,
    perturb_degree,
    rr_keep_probability,
)
from repro.ldp.perturbation import (
    expected_perturbed_degree,
    perturb_graph,
)

__all__ = [
    "BudgetAllocation",
    "split_budget",
    "calibrate_bit_counts",
    "laplace_noise",
    "perturb_bits",
    "perturb_degree",
    "rr_keep_probability",
    "expected_perturbed_degree",
    "perturb_graph",
]
