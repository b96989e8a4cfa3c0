"""Tests for the sparse graph randomized-response simulator."""

import numpy as np
import pytest

from repro.core.threat_model import AttackerKnowledge
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.ldp.mechanisms import rr_keep_probability
from repro.ldp.perturbation import (
    expected_perturbed_degree,
    perturb_graph,
    perturb_graph_batch,
)
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.utils.sparse import pair_count


class TestPerturbGraph:
    def test_node_count_preserved(self):
        g = powerlaw_cluster_graph(100, 3, 0.5, rng=0)
        assert perturb_graph(g, 2.0, rng=0).num_nodes == 100

    def test_deterministic(self):
        g = powerlaw_cluster_graph(100, 3, 0.5, rng=0)
        assert perturb_graph(g, 2.0, rng=5) == perturb_graph(g, 2.0, rng=5)

    def test_high_epsilon_identity_like(self):
        g = powerlaw_cluster_graph(200, 3, 0.5, rng=0)
        perturbed = perturb_graph(g, 40.0, rng=0)
        assert perturbed == g

    def test_zero_epsilon_is_a_fair_coin(self):
        """At epsilon = 0 every pair is an edge with probability one half."""
        g = erdos_renyi_graph(200, 0.05, rng=0)
        assert rr_keep_probability(0.0) == pytest.approx(0.5)
        perturbed = perturb_graph(g, 0.0, rng=3)
        assert perturbed.num_edges / pair_count(200) == pytest.approx(0.5, abs=0.01)

    def test_edge_survival_rate(self):
        g = erdos_renyi_graph(300, 0.2, rng=0)
        epsilon = 2.0
        keep = rr_keep_probability(epsilon)
        rng = np.random.default_rng(1)
        survival_rates = []
        for _ in range(10):
            perturbed = perturb_graph(g, epsilon, rng=rng)
            kept = np.intersect1d(g.edge_codes, perturbed.edge_codes).size
            survival_rates.append(kept / g.num_edges)
        assert np.mean(survival_rates) == pytest.approx(keep, rel=0.02)

    def test_flip_rate_on_non_edges(self):
        g = erdos_renyi_graph(300, 0.2, rng=0)
        epsilon = 2.0
        keep = rr_keep_probability(epsilon)
        non_edges = pair_count(300) - g.num_edges
        rng = np.random.default_rng(2)
        flip_counts = []
        for _ in range(10):
            perturbed = perturb_graph(g, epsilon, rng=rng)
            new_edges = np.setdiff1d(perturbed.edge_codes, g.edge_codes).size
            flip_counts.append(new_edges)
        assert np.mean(flip_counts) == pytest.approx(non_edges * (1 - keep), rel=0.05)

    def test_expected_degree_matches_simulation(self):
        g = erdos_renyi_graph(400, 0.1, rng=0)
        epsilon = 1.0
        rng = np.random.default_rng(3)
        simulated = np.mean(
            [perturb_graph(g, epsilon, rng=rng).degrees().mean() for _ in range(5)]
        )
        knowledge = AttackerKnowledge.from_protocol(LFGDPRProtocol(2 * epsilon), g)
        predicted = knowledge.perturbed_average_degree
        assert simulated == pytest.approx(predicted, rel=0.02)

    def test_empty_graph(self):
        g = Graph(50)
        perturbed = perturb_graph(g, 1.0, rng=0)
        # Every edge present is a flipped non-edge.
        expected = pair_count(50) * (1 - rr_keep_probability(1.0))
        assert perturbed.num_edges == pytest.approx(expected, rel=0.5)

    def test_single_node(self):
        assert perturb_graph(Graph(1), 1.0, rng=0).num_edges == 0


class TestPerturbGraphBatch:
    """The batched kernel must be bit-identical, plane for plane, to the
    scalar path: trial ``t`` of ``perturb_graph_batch(graph, eps, rngs)``
    and ``perturb_graph(graph, eps, rng=rngs[t])`` consume the same RNG
    stream and must produce the same edge codes.  The engine's batched
    dispatch relies on this to reuse the scalar path's cache entries."""

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 4.0, 40.0])
    def test_planes_bit_identical_to_scalar(self, epsilon):
        graph = powerlaw_cluster_graph(120, 4, 0.5, rng=0)
        seeds = [0, 1, 7, 12345]
        batched = perturb_graph_batch(
            graph, epsilon, [np.random.default_rng(seed) for seed in seeds]
        )
        assert len(batched) == len(seeds)
        for seed, plane in zip(seeds, batched):
            scalar = perturb_graph(graph, epsilon, rng=np.random.default_rng(seed))
            assert np.array_equal(plane.edge_codes, scalar.edge_codes)
            assert plane.num_nodes == scalar.num_nodes

    def test_dense_graph_planes_identical(self):
        graph = erdos_renyi_graph(150, 0.4, rng=3)
        batched = perturb_graph_batch(
            graph, 1.0, [np.random.default_rng(seed) for seed in (2, 9)]
        )
        for seed, plane in zip((2, 9), batched):
            scalar = perturb_graph(graph, 1.0, rng=np.random.default_rng(seed))
            assert np.array_equal(plane.edge_codes, scalar.edge_codes)

    def test_empty_and_tiny_graphs(self):
        for graph in (Graph(0), Graph(1), Graph(2), Graph(2, [(0, 1)])):
            batched = perturb_graph_batch(
                graph, 1.0, [np.random.default_rng(seed) for seed in (0, 1)]
            )
            for seed, plane in zip((0, 1), batched):
                scalar = perturb_graph(graph, 1.0, rng=np.random.default_rng(seed))
                assert np.array_equal(plane.edge_codes, scalar.edge_codes)

    def test_single_trial(self):
        graph = powerlaw_cluster_graph(80, 3, 0.5, rng=1)
        (plane,) = perturb_graph_batch(graph, 2.0, [np.random.default_rng(5)])
        scalar = perturb_graph(graph, 2.0, rng=np.random.default_rng(5))
        assert np.array_equal(plane.edge_codes, scalar.edge_codes)

    def test_int_seeds_accepted(self):
        graph = powerlaw_cluster_graph(60, 3, 0.5, rng=2)
        batched = perturb_graph_batch(graph, 2.0, [4, 11])
        for seed, plane in zip((4, 11), batched):
            scalar = perturb_graph(graph, 2.0, rng=seed)
            assert np.array_equal(plane.edge_codes, scalar.edge_codes)

    def test_no_rngs_returns_empty(self):
        assert perturb_graph_batch(Graph(5), 1.0, []) == []


class TestExpectedDegrees:
    def test_formula(self):
        epsilon = 2.0
        p = rr_keep_probability(epsilon)
        value = expected_perturbed_degree(10.0, 101, epsilon)
        assert value == pytest.approx(10 * p + 90 * (1 - p))

    def test_epsilon_zero(self):
        # At eps=0 everything is random: expected degree = (N-1)/2.
        assert expected_perturbed_degree(5.0, 101, 0.0) == pytest.approx(50.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            expected_perturbed_degree(-1.0, 10, 1.0)

