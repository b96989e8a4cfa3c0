"""Tests for the LF-GDPR protocol."""

import numpy as np
import pytest

from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.metrics import (
    degree_centrality,
    local_clustering_coefficients,
    modularity_from_labels,
)
from repro.protocols.base import FakeReport
from repro.protocols.lfgdpr import LFGDPRProtocol


@pytest.fixture(scope="module")
def graph():
    return powerlaw_cluster_graph(300, 5, 0.6, rng=0)


class TestCollection:
    def test_budget_split(self):
        protocol = LFGDPRProtocol(epsilon=4.0)
        assert protocol.budget.adjacency_epsilon == pytest.approx(2.0)
        assert protocol.budget.degree_epsilon == pytest.approx(2.0)
        assert protocol.epsilon == pytest.approx(4.0)

    def test_reports_structure(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        reports = protocol.collect(graph, rng=0)
        assert reports.num_nodes == graph.num_nodes
        assert reports.reported_degrees.shape == (graph.num_nodes,)
        assert reports.overridden.size == 0

    def test_common_random_numbers(self, graph):
        """Same seed, no overrides -> bit-identical reports."""
        protocol = LFGDPRProtocol(epsilon=4.0)
        a = protocol.collect(graph, rng=7)
        b = protocol.collect(graph, rng=7)
        assert a.perturbed_graph == b.perturbed_graph
        assert np.array_equal(a.reported_degrees, b.reported_degrees)

    def test_paired_runs_differ_only_at_fake_pairs(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        clean = protocol.collect(graph, rng=7)
        overrides = {0: FakeReport(claimed_neighbors=[5, 6], reported_degree=2.0)}
        attacked = protocol.collect(graph, rng=7, overrides=overrides)

        clean_rows, clean_cols = clean.perturbed_graph.edge_arrays()
        attacked_rows, attacked_cols = attacked.perturbed_graph.edge_arrays()
        clean_genuine = {
            (u, v) for u, v in zip(clean_rows.tolist(), clean_cols.tolist()) if 0 not in (u, v)
        }
        attacked_genuine = {
            (u, v)
            for u, v in zip(attacked_rows.tolist(), attacked_cols.tolist())
            if 0 not in (u, v)
        }
        assert clean_genuine == attacked_genuine
        # Degree reports of genuine users identical.
        assert np.array_equal(clean.reported_degrees[1:], attacked.reported_degrees[1:])
        assert attacked.reported_degrees[0] == 2.0

    def test_different_seeds_differ(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        assert protocol.collect(graph, rng=1).perturbed_graph != protocol.collect(
            graph, rng=2
        ).perturbed_graph

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            LFGDPRProtocol(epsilon=0.0)


class TestDegreeEstimation:
    def test_centrality_tracks_truth(self, graph):
        protocol = LFGDPRProtocol(epsilon=6.0)
        rng = np.random.default_rng(0)
        estimates = np.mean(
            [
                protocol.estimate_degree_centrality(protocol.collect(graph, rng=int(rng.integers(2**31))))
                for _ in range(10)
            ],
            axis=0,
        )
        truth = degree_centrality(graph)
        assert np.abs(estimates - truth).mean() < 0.02


class TestClusteringEstimation:
    def test_estimates_finite(self, graph):
        protocol = LFGDPRProtocol(epsilon=4.0)
        reports = protocol.collect(graph, rng=0)
        estimates = protocol.estimate_clustering_coefficient(reports)
        assert np.all(np.isfinite(estimates))

    def test_high_epsilon_accuracy(self, graph):
        protocol = LFGDPRProtocol(epsilon=40.0)
        reports = protocol.collect(graph, rng=0)
        estimates = protocol.estimate_clustering_coefficient(reports)
        truth = local_clustering_coefficients(graph)
        assert np.abs(estimates - truth).mean() < 0.02


class TestModularityEstimation:
    def test_high_epsilon_accuracy(self, graph):
        protocol = LFGDPRProtocol(epsilon=40.0)
        labels = (np.arange(graph.num_nodes) // 75).astype(np.int64)
        reports = protocol.collect(graph, rng=0)
        estimate = protocol.estimate_modularity(reports, labels)
        truth = modularity_from_labels(graph, labels)
        assert estimate == pytest.approx(truth, abs=0.05)
