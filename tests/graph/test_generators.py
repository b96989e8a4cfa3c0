"""Tests for repro.graph.generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    surrogate_social_graph,
)
from repro.graph.metrics import average_degree, local_clustering_coefficients


class TestErdosRenyi:
    def test_deterministic(self):
        assert erdos_renyi_graph(100, 0.05, rng=0) == erdos_renyi_graph(100, 0.05, rng=0)

    def test_seed_changes_graph(self):
        assert erdos_renyi_graph(100, 0.05, rng=0) != erdos_renyi_graph(100, 0.05, rng=1)

    def test_edge_count_near_expectation(self):
        g = erdos_renyi_graph(400, 0.1, rng=0)
        expected = 0.1 * 400 * 399 / 2
        assert abs(g.num_edges - expected) < 0.15 * expected

    def test_p_zero(self):
        assert erdos_renyi_graph(50, 0.0, rng=0).num_edges == 0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5, rng=0)


class TestBarabasiAlbert:
    def test_node_count(self):
        g = barabasi_albert_graph(200, 3, rng=0)
        assert g.num_nodes == 200

    def test_heavy_tail(self):
        g = barabasi_albert_graph(500, 3, rng=0)
        degrees = g.degrees()
        assert degrees.max() > 4 * degrees.mean()

    def test_deterministic(self):
        assert barabasi_albert_graph(100, 2, rng=5) == barabasi_albert_graph(100, 2, rng=5)


class TestPowerlawCluster:
    def test_clustering_higher_than_ba(self):
        clustered = powerlaw_cluster_graph(400, 4, 0.9, rng=0)
        plain = barabasi_albert_graph(400, 4, rng=0)
        assert (
            local_clustering_coefficients(clustered).mean()
            > local_clustering_coefficients(plain).mean()
        )

    def test_deterministic(self):
        a = powerlaw_cluster_graph(100, 3, 0.5, rng=2)
        b = powerlaw_cluster_graph(100, 3, 0.5, rng=2)
        assert a == b

    @pytest.mark.parametrize("n,m,p", [
        (10, 1, 0.0), (30, 2, 0.3), (100, 3, 0.5), (80, 10, 0.9), (50, 49, 0.5),
        (300, 100, 0.4),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_replica_matches_networkx_exactly(self, n, m, p, seed):
        """The inlined Holme–Kim loop is a draw-for-draw replica of
        ``nx.powerlaw_cluster_graph`` — identical edge *sets* for any seed,
        so surrogate graphs (and everything cached downstream) are unchanged
        by the generator inlining."""
        import networkx as nx

        from repro.graph.generators import _holme_kim_edges
        import random

        edges = _holme_kim_edges(n, m, p, random.Random(seed))
        reference = nx.powerlaw_cluster_graph(n, m, p, seed=seed)
        assert {frozenset(e) for e in edges} == {
            frozenset(e) for e in reference.edges()
        }
        assert len(edges) == reference.number_of_edges()

    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="at least"):
            powerlaw_cluster_graph(3, 5, 0.5, rng=0)


class TestSurrogateSocialGraph:
    def test_average_degree_close_to_target(self):
        g = surrogate_social_graph(1000, 20.0, rng=0)
        assert average_degree(g) == pytest.approx(20.0, rel=0.15)

    def test_small_target_degree(self):
        g = surrogate_social_graph(200, 1.0, rng=0)
        assert g.num_edges >= 199 - 1  # m=1 yields a tree-ish graph

    def test_rejects_degree_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            surrogate_social_graph(10, 25.0, rng=0)

    def test_nonzero_clustering(self):
        g = surrogate_social_graph(500, 10.0, triangle_probability=0.7, rng=0)
        assert local_clustering_coefficients(g).mean() > 0.05

    def test_deterministic(self):
        a = surrogate_social_graph(300, 8.0, rng=9)
        b = surrogate_social_graph(300, 8.0, rng=9)
        assert a == b


def test_generators_produce_valid_graphs():
    """Degree-sum invariant across all generators."""
    graphs = [
        erdos_renyi_graph(120, 0.05, rng=0),
        barabasi_albert_graph(120, 3, rng=0),
        powerlaw_cluster_graph(120, 3, 0.5, rng=0),
        surrogate_social_graph(120, 6.0, rng=0),
    ]
    for g in graphs:
        assert g.degrees().sum() == 2 * g.num_edges
        assert np.all(g.degrees() >= 0)
