"""Tests for the LDPGen protocol."""

import warnings

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.metrics import average_degree
from repro.protocols.base import FakeReport
from repro.protocols.ldpgen import LDPGenProtocol, _sample_bipartite_edges


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(250, 5, 0.6, rng=0)


class TestSampleBipartiteEdges:
    def test_count_and_distinctness(self):
        rng = np.random.default_rng(0)
        group_a = np.array([0, 1, 2])
        group_b = np.array([10, 11, 12, 13])
        edges = _sample_bipartite_edges(group_a, group_b, 5, rng)
        assert len(edges) == 5
        assert len(set(edges)) == 5
        for u, v in edges:
            assert u in group_a and v in group_b

    def test_saturation_returns_all(self):
        rng = np.random.default_rng(1)
        edges = _sample_bipartite_edges(np.array([0, 1]), np.array([2, 3]), 100, rng)
        assert sorted(edges) == [(0, 2), (0, 3), (1, 2), (1, 3)]


class TestCollection:
    def test_synthetic_graph_size(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0)
        reports = protocol.collect(graph, rng=0)
        assert reports.perturbed_graph.num_nodes == graph.num_nodes

    def test_deterministic(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0)
        a = protocol.collect(graph, rng=5)
        b = protocol.collect(graph, rng=5)
        assert a.perturbed_graph == b.perturbed_graph
        assert np.array_equal(a.reported_degrees, b.reported_degrees)

    def test_synthetic_density_tracks_original(self, graph):
        protocol = LDPGenProtocol(epsilon=8.0)
        densities = [
            average_degree(protocol.collect(graph, rng=seed).perturbed_graph)
            for seed in range(5)
        ]
        assert np.mean(densities) == pytest.approx(average_degree(graph), rel=0.35)

    def test_phase_epsilon_split(self):
        protocol = LDPGenProtocol(epsilon=4.0)
        assert protocol.phase_epsilon == pytest.approx(2.0)

    def test_overrides_recorded_and_used(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0)
        overrides = {
            3: FakeReport(claimed_neighbors=np.arange(10, 40), reported_degree=30.0)
        }
        reports = protocol.collect(graph, rng=0, overrides=overrides)
        assert reports.overridden.tolist() == [3]
        clean = protocol.collect(graph, rng=0)
        # A fake user claiming 30 edges must change the synthetic graph.
        assert reports.perturbed_graph != clean.perturbed_graph

    def test_dense_refined_group_collects(self):
        """gplus at scale 0.01 (n = 1076), eps 1, seed 0: one refined group
        of 45 users asks for all 990 of its intra pairs, and rejection
        sampling still misses 5 of them after its rounds."""
        graph = load_dataset("gplus", scale=0.01)
        reports = LDPGenProtocol(epsilon=1.0).collect(graph, rng=0)
        assert reports.perturbed_graph.num_nodes == graph.num_nodes == 1076

    def test_empty_refined_group_collects_without_warning(self):
        """Twenty fake users with one identical claim leave k-means groups
        empty; that is a normal outcome, not a warning."""
        graph = powerlaw_cluster_graph(40, 2, 0.3, rng=0)
        overrides = {
            user: FakeReport(claimed_neighbors=np.array([0, 1, 2]), reported_degree=3.0)
            for user in range(20, 40)
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = LDPGenProtocol(epsilon=4.0).collect(graph, rng=0, overrides=overrides)
        assert reports.overridden.tolist() == list(range(20, 40))

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            LDPGenProtocol(epsilon=0.0)
        with pytest.raises(ValueError):
            LDPGenProtocol(epsilon=1.0, initial_groups=0)

    @pytest.mark.parametrize("argument", ["initial_groups", "refined_groups"])
    @pytest.mark.parametrize("count", [True, 2.7, 0])
    def test_group_counts_must_be_positive_integers(self, argument, count):
        """A boolean or fractional group count is rejected, not truncated."""
        with pytest.raises((TypeError, ValueError), match=argument):
            LDPGenProtocol(epsilon=1.0, **{argument: count})


class TestEstimation:
    def test_degree_centrality_shape_and_range(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0)
        reports = protocol.collect(graph, rng=0)
        centrality = protocol.estimate_degree_centrality(reports)
        assert centrality.shape == (graph.num_nodes,)
        assert np.all(centrality >= 0) and np.all(centrality <= 1)

    def test_clustering_in_unit_interval(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0)
        reports = protocol.collect(graph, rng=0)
        estimates = protocol.estimate_clustering_coefficient(reports)
        assert np.all((estimates >= 0) & (estimates <= 1))

    def test_modularity_finite(self, graph):
        protocol = LDPGenProtocol(epsilon=4.0)
        reports = protocol.collect(graph, rng=0)
        labels = (np.arange(graph.num_nodes) // 50).astype(np.int64)
        value = protocol.estimate_modularity(reports, labels)
        assert -1.0 <= value <= 1.0


def _generate_reference(protocol, noisy_vectors, labels, clusters, rng):
    """The pre-vectorization scalar `_generate` loop, kept as the oracle for
    bit-identical equivalence of the NumPy index-arithmetic version."""
    from repro.graph.adjacency import Graph
    from repro.utils.sparse import decode_pairs, pair_count, sample_pairs_excluding

    n = noisy_vectors.shape[0]
    members = [np.flatnonzero(labels == g) for g in range(clusters)]
    claims = np.zeros((clusters, clusters), dtype=np.float64)
    for g in range(clusters):
        if members[g].size:
            claims[g] = noisy_vectors[members[g]].sum(axis=0)
    edges = []
    for g in range(clusters):
        size_g = members[g].size
        intra_pairs = pair_count(size_g)
        if intra_pairs > 0:
            estimated = max(0.0, claims[g, g] / 2.0)
            probability = min(1.0, estimated / intra_pairs)
            count = int(rng.binomial(intra_pairs, probability))
            if count:
                codes = sample_pairs_excluding(size_g, count, np.empty(0, dtype=np.int64), rng)
                local_rows, local_cols = decode_pairs(codes, size_g)
                edges.extend(
                    zip(members[g][local_rows].tolist(), members[g][local_cols].tolist())
                )
        for h in range(g + 1, clusters):
            size_h = members[h].size
            total_pairs = size_g * size_h
            if total_pairs == 0:
                continue
            estimated = max(0.0, (claims[g, h] + claims[h, g]) / 2.0)
            probability = min(1.0, estimated / total_pairs)
            count = int(rng.binomial(total_pairs, probability))
            if count:
                edges.extend(_sample_bipartite_edges(members[g], members[h], count, rng))
    return Graph(n, edges)


class TestVectorizedGenerate:
    def test_identical_to_scalar_reference_on_fixed_seed(self, graph):
        """The vectorized group-pair arithmetic must not change the sampled
        synthetic graph: same seed, same edges, bit for bit."""
        protocol = LDPGenProtocol(epsilon=2.0, refined_groups=6)
        rng = np.random.default_rng(7)
        clusters = 6
        labels = rng.integers(0, clusters, size=graph.num_nodes).astype(np.int64)
        noisy = rng.normal(3.0, 4.0, size=(graph.num_nodes, clusters))

        vectorized = protocol._generate(noisy, labels, clusters, np.random.default_rng(123))
        reference = _generate_reference(protocol, noisy, labels, clusters, np.random.default_rng(123))

        assert vectorized.num_nodes == reference.num_nodes
        assert vectorized == reference

    def test_collect_unchanged_by_vectorization(self, graph, monkeypatch):
        """Full-pipeline check: `collect` with the vectorized `_generate`
        matches `collect` with the scalar reference draw-for-draw, in an
        empty-cluster-prone configuration."""
        protocol = LDPGenProtocol(epsilon=4.0, refined_groups=12)
        vectorized = protocol.collect(graph, rng=42)
        monkeypatch.setattr(LDPGenProtocol, "_generate", _generate_reference)
        reference = protocol.collect(graph, rng=42)
        assert vectorized.perturbed_graph == reference.perturbed_graph
        assert np.array_equal(vectorized.reported_degrees, reference.reported_degrees)
