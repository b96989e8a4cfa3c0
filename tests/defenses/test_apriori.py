"""Tests for the from-scratch Apriori miner, including brute-force checks."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.defenses.apriori import apriori


def brute_force(transactions, min_support, max_size):
    """Reference implementation: enumerate every candidate itemset."""
    items = sorted({item for t in transactions for item in t})
    sets = [frozenset(t) for t in transactions]
    found = {}
    for size in range(1, max_size + 1):
        for candidate in combinations(items, size):
            candidate = frozenset(candidate)
            support = sum(1 for t in sets if candidate <= t)
            if support >= min_support:
                found[candidate] = support
    return found


class TestApriori:
    def test_textbook_example(self):
        transactions = [
            {1, 3, 4},
            {2, 3, 5},
            {1, 2, 3, 5},
            {2, 5},
        ]
        found = apriori(transactions, min_support=2, max_size=3)
        assert found[frozenset({2, 3, 5})] == 2
        assert found[frozenset({1, 3})] == 2
        assert frozenset({1, 2}) not in found  # support 1

    def test_single_items(self):
        found = apriori([{1}, {1}, {2}], min_support=2, max_size=1)
        assert found == {frozenset({1}): 2}

    def test_empty_transactions(self):
        assert apriori([], min_support=1) == {}

    def test_support_threshold_respected(self):
        found = apriori([{1, 2}] * 5 + [{3}], min_support=6)
        assert found == {}

    def test_max_size_respected(self):
        found = apriori([{1, 2, 3}] * 3, min_support=2, max_size=2)
        assert all(len(itemset) <= 2 for itemset in found)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            apriori([{1}], min_support=0)
        with pytest.raises(ValueError):
            apriori([{1}], min_support=1, max_size=0)

    def test_duplicates_in_transaction_ignored(self):
        found = apriori([[1, 1, 2], [1, 2]], min_support=2)
        assert found[frozenset({1, 2})] == 2

    @given(
        data=st.lists(
            st.lists(st.integers(min_value=0, max_value=8), max_size=6),
            min_size=1,
            max_size=12,
        ),
        min_support=st.integers(min_value=1, max_value=4),
        max_size=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, data, min_support, max_size):
        assert apriori(data, min_support, max_size) == brute_force(
            data, min_support, max_size
        )
