"""Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994).

Implemented from scratch as the substrate for the frequent-itemsets-based
countermeasure (§VII-A).  The classic level-wise algorithm: frequent
``k``-itemsets are generated only from frequent ``(k-1)``-itemsets (the
*Apriori property*: every subset of a frequent itemset is frequent), and
support is counted against the transaction database each level.

Transactions here are sets of node ids (the 1-bits of reported adjacency
vectors); the defense only needs small ``max_size``, but the miner is fully
general and tested against brute force.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence

from repro.utils.validation import check_positive

Itemset = FrozenSet[int]


def apriori(
    transactions: Sequence[Iterable[int]],
    min_support: int,
    max_size: int = 2,
) -> Dict[Itemset, int]:
    """Mine all itemsets of size <= ``max_size`` with support >= ``min_support``.

    Parameters
    ----------
    transactions:
        Sequence of item collections (duplicates within one transaction are
        ignored).
    min_support:
        Minimum number of transactions an itemset must appear in.
    max_size:
        Largest itemset size to mine.

    Returns a dict mapping each frequent itemset (frozenset) to its support.

    >>> found = apriori([{1, 2}, {1, 2, 3}, {1, 3}], min_support=2)
    >>> found[frozenset({1, 2})]
    2
    """
    check_positive(min_support, "min_support")
    check_positive(max_size, "max_size")
    transaction_sets = [frozenset(t) for t in transactions]

    # Level 1: frequent single items.
    item_counts: Dict[int, int] = defaultdict(int)
    for transaction in transaction_sets:
        for item in transaction:
            item_counts[item] += 1
    current: Dict[Itemset, int] = {
        frozenset({item}): count
        for item, count in item_counts.items()
        if count >= min_support
    }
    frequent: Dict[Itemset, int] = dict(current)

    size = 1
    while current and size < max_size:
        size += 1
        candidates = _generate_candidates(list(current.keys()), size)
        if not candidates:
            break
        counts: Dict[Itemset, int] = defaultdict(int)
        for transaction in transaction_sets:
            if len(transaction) < size:
                continue
            for candidate in candidates:
                if candidate <= transaction:
                    counts[candidate] += 1
        current = {
            itemset: count for itemset, count in counts.items() if count >= min_support
        }
        frequent.update(current)
    return frequent


def _generate_candidates(previous: List[Itemset], size: int) -> List[Itemset]:
    """Join step + prune step of Apriori.

    Joins pairs of frequent (size-1)-itemsets sharing ``size - 2`` items and
    prunes candidates with an infrequent subset.
    """
    previous_set = set(previous)
    candidates: set[Itemset] = set()
    sorted_prev = [tuple(sorted(itemset)) for itemset in previous]
    sorted_prev.sort()
    for a, b in combinations(sorted_prev, 2):
        if a[:-1] == b[:-1]:
            candidate = frozenset(a) | frozenset(b)
            if len(candidate) != size:
                continue
            if all(
                frozenset(subset) in previous_set
                for subset in combinations(candidate, size - 1)
            ):
                candidates.add(candidate)
    return list(candidates)

