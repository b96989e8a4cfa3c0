"""Tests for repro.ldp.budget."""

import pytest

from repro.ldp.budget import BudgetAllocation, split_budget


class TestBudgetAllocation:
    def test_total(self):
        allocation = BudgetAllocation(1.5, 2.5)
        assert allocation.total == pytest.approx(4.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            BudgetAllocation(0.0, 1.0)
        with pytest.raises(ValueError):
            BudgetAllocation(1.0, -1.0)

    def test_frozen(self):
        allocation = BudgetAllocation(1.0, 1.0)
        with pytest.raises(AttributeError):
            allocation.adjacency_epsilon = 2.0


class TestSplitBudget:
    def test_even_split_default(self):
        allocation = split_budget(4.0)
        assert allocation.adjacency_epsilon == pytest.approx(2.0)
        assert allocation.degree_epsilon == pytest.approx(2.0)

    def test_total_preserved(self):
        allocation = split_budget(3.7)
        assert allocation.adjacency_epsilon == allocation.degree_epsilon
        assert allocation.total == 3.7

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            split_budget(0.0)
