"""Detect1's popcount counts against two oracles.

* The textbook Apriori miner (:mod:`tests.defenses.apriori`): with
  ``item_support = pair_support = s``, a user's count is the number of
  frequent 2-itemsets (at ``min_support = s``) contained in its row.
* The scipy ``Sᵀ S`` formula the popcount counts replaced, for the default
  data-derived supports, whose float tests must flag the same pairs —
  also above the packing cap, where no plane is packed.
"""

import numpy as np
import pytest

from repro.core.degree_attacks import DegreeMGA
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.defenses.frequent_itemset import FrequentItemsetDefense
from repro.graph import bitmatrix
from repro.graph.adjacency import Graph
from repro.graph.generators import powerlaw_cluster_graph
from repro.protocols.base import CollectedReports, packed_plane
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.utils.sparse import pair_count
from tests.defenses.apriori import apriori

SIZES = (0, 1, 2, 63, 64, 65, 200)


def _reports(graph):
    return CollectedReports(
        perturbed_graph=graph,
        reported_degrees=np.zeros(graph.num_nodes),
        adjacency_epsilon=1.0,
        degree_epsilon=1.0,
    )


def _random_graph(n, density, seed):
    rng = np.random.default_rng(seed)
    return Graph.from_codes(n, np.flatnonzero(rng.random(pair_count(n)) < density))


def _apriori_counts(graph, support):
    """Per row, the frequent 2-itemsets it contains (``apriori`` oracle)."""
    rows = [set(graph.neighbors(node).tolist()) for node in range(graph.num_nodes)]
    pairs = [
        tuple(itemset)
        for itemset in apriori(rows, min_support=support, max_size=2)
        if len(itemset) == 2
    ]
    return np.array(
        [sum(a in row and b in row for a, b in pairs) for row in rows], dtype=np.int64
    )


def _sparse_counts(defense, reports):
    """The scipy ``Sᵀ S`` formula Detect1 counted with before the popcounts."""
    import scipy.sparse as sp

    adjacency = reports.perturbed_graph.csr().astype(np.int64)
    n = adjacency.shape[0]
    if n == 0:  # the formula's mean over no columns warns, then flags nothing
        return np.zeros(0, dtype=np.int64)
    column_counts = np.asarray(adjacency.sum(axis=0)).ravel()
    if defense.item_support is not None:
        item_support = defense.item_support
    else:
        item_support = column_counts.mean()
    candidates = np.flatnonzero(column_counts >= item_support)
    if candidates.size < 2:
        return np.zeros(n, dtype=np.int64)
    submatrix = adjacency[:, candidates].tocsc()
    cooccurrence = (submatrix.T @ submatrix).toarray()
    np.fill_diagonal(cooccurrence, 0)
    if defense.pair_support is not None:
        frequent = cooccurrence >= defense.pair_support
    else:
        rates = column_counts[candidates] / n
        expected = n * np.outer(rates, rates)
        sigma = np.sqrt(np.maximum(expected * (1.0 - np.outer(rates, rates)), 1e-12))
        frequent = cooccurrence > expected + 3.0 * sigma
    frequent = sp.csr_matrix(frequent.astype(np.int64))
    per_row = submatrix.multiply(submatrix @ frequent).sum(axis=1)
    return (np.asarray(per_row).ravel() // 2).astype(np.int64)


class TestAprioriOracle:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("density", [0.1, 0.5])
    @pytest.mark.parametrize("support", [1, 3, 8])
    def test_counts_equal_contained_frequent_pairs(self, n, density, support):
        graph = _random_graph(n, density, seed=n + support)
        defense = FrequentItemsetDefense(threshold=1, item_support=support, pair_support=support)
        counts = defense.frequent_pair_counts(_reports(graph))
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _apriori_counts(graph, support))


class TestSparseFormulaOracle:
    """The default supports flag the same pairs as the parent formula."""

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.7, 1.0])
    def test_random_graphs(self, n, density):
        reports = _reports(_random_graph(n, density, seed=n))
        defense = FrequentItemsetDefense(threshold=1)
        assert np.array_equal(
            defense.frequent_pair_counts(reports), _sparse_counts(defense, reports)
        )

    @pytest.mark.parametrize("item_support", [None, 5])
    def test_fewer_than_two_candidates(self, item_support):
        # A star: only the hub's column reaches the mean count (5/3) or an
        # item support of 5, so no pair can be frequent.
        reports = _reports(Graph(6, [(0, node) for node in range(1, 6)]))
        defense = FrequentItemsetDefense(threshold=1, item_support=item_support)
        counts = defense.frequent_pair_counts(reports)
        assert np.array_equal(counts, np.zeros(6, dtype=np.int64))
        assert np.array_equal(counts, _sparse_counts(defense, reports))

    @pytest.mark.parametrize("n", [0, 1, 2, 65])
    def test_empty_and_complete_graphs(self, n):
        for graph in (Graph(n), Graph.from_codes(n, np.arange(pair_count(n)))):
            defense = FrequentItemsetDefense(threshold=1)
            counts = defense.frequent_pair_counts(_reports(graph))
            assert np.array_equal(counts, np.zeros(n, dtype=np.int64))
            assert np.array_equal(counts, _sparse_counts(defense, _reports(graph)))

    @pytest.mark.parametrize("epsilon", [1.0, 4.0, 8.0])
    def test_paired_views_of_an_attacked_run(self, epsilon):
        """The honest view, a paired after-view (honest plane patched with
        the edit) and a plain ``collect`` give the formula's counts."""
        graph = powerlaw_cluster_graph(150, 4, 0.5, rng=0)
        protocol = LFGDPRProtocol(epsilon=epsilon)
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        knowledge = AttackerKnowledge.from_protocol(protocol, graph)
        overrides = DegreeMGA().craft(graph, threat, knowledge, rng=2)
        run = protocol.collect_paired(graph, 3)
        views = (run.before, run.after(overrides), protocol.collect(graph, 3, overrides))
        for defense in (
            FrequentItemsetDefense(threshold=1),
            FrequentItemsetDefense(threshold=1, item_support=10, pair_support=5),
        ):
            for reports in views:
                assert np.array_equal(
                    defense.frequent_pair_counts(reports), _sparse_counts(defense, reports)
                )
        assert "bitmatrix" in run.before.baseline.cache


def _refuse_packing(*args, **kwargs):
    raise AssertionError("a full plane was packed")


class TestAboveThePackingCap:
    """With ``REPRO_DENSE_MAX_BYTES`` below a graph's packing bytes,
    Detect1 packs no plane and parks none: it counts over node-range blocks
    of candidate rows (one row per block at a cap of 1 byte, ten of 200
    nodes' rows at 1,600 bytes), the same integers as the formula."""

    def test_sizes_are_above_the_cap(self):
        assert bitmatrix.packing_bytes(2) > 1 and bitmatrix.packing_bytes(65) > 1600

    DEFENSES = (
        FrequentItemsetDefense(threshold=1),
        FrequentItemsetDefense(threshold=1, item_support=3, pair_support=2),
    )

    @pytest.mark.parametrize(
        "n, cap", [(2, 1), (63, 1), (64, 1), (65, 1), (65, 1600), (200, 1600)]
    )
    @pytest.mark.parametrize("density", [0.05, 0.5])
    def test_counts_equal_formula(self, monkeypatch, cap, n, density):
        reports = _reports(_random_graph(n, density, seed=n + 7))
        expected = [_sparse_counts(defense, reports) for defense in self.DEFENSES]
        monkeypatch.setenv(bitmatrix.MAX_PACKED_BYTES_ENV, str(cap))
        monkeypatch.setattr(bitmatrix, "pack_symmetric_plane", _refuse_packing)
        for defense, counts in zip(self.DEFENSES, expected):
            assert np.array_equal(defense.frequent_pair_counts(reports), counts)

    def test_paired_views_park_no_plane(self, monkeypatch):
        graph = powerlaw_cluster_graph(150, 4, 0.5, rng=0)
        protocol = LFGDPRProtocol(epsilon=2.0)
        threat = ThreatModel.sample(graph, 0.05, 0.05, rng=1)
        knowledge = AttackerKnowledge.from_protocol(protocol, graph)
        overrides = DegreeMGA().craft(graph, threat, knowledge, rng=2)
        run = protocol.collect_paired(graph, 3)
        views = (run.before, run.after(overrides))
        expected = [
            [_sparse_counts(defense, reports) for reports in views] for defense in self.DEFENSES
        ]
        monkeypatch.setenv(bitmatrix.MAX_PACKED_BYTES_ENV, "1600")
        monkeypatch.setattr(bitmatrix, "pack_symmetric_plane", _refuse_packing)
        for defense, counts in zip(self.DEFENSES, expected):
            for reports, view_counts in zip(views, counts):
                assert packed_plane(reports) is None
                assert np.array_equal(defense.frequent_pair_counts(reports), view_counts)
        assert "bitmatrix" not in run.before.baseline.cache
