"""Tests for the protocol interfaces and override plumbing."""

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.protocols.base import (
    CollectedReports,
    FakeReport,
    GraphLDPProtocol,
    apply_degree_overrides,
    apply_overrides,
)


@pytest.fixture
def perturbed():
    """A 6-node graph standing in for RR output."""
    return Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)])


class TestFakeReport:
    def test_neighbors_deduplicated_and_sorted(self):
        report = FakeReport(claimed_neighbors=np.array([3, 1, 3]), reported_degree=2.0)
        assert report.claimed_neighbors.tolist() == [1, 3]

    def test_accepts_list(self):
        report = FakeReport(claimed_neighbors=[2, 0], reported_degree=2.0)
        assert report.claimed_neighbors.tolist() == [0, 2]

    def test_frozen(self):
        report = FakeReport(claimed_neighbors=[1], reported_degree=1.0)
        with pytest.raises(AttributeError):
            report.reported_degree = 5.0


class TestApplyOverrides:
    def test_no_overrides_is_identity(self, perturbed):
        graph, overridden = apply_overrides(perturbed, None)
        assert graph is perturbed
        assert overridden.size == 0

    def test_fake_pairs_replaced(self, perturbed):
        overrides = {0: FakeReport(claimed_neighbors=[2, 3], reported_degree=2.0)}
        graph, overridden = apply_overrides(perturbed, overrides)
        # Old edges incident to node 0 are dropped...
        assert not graph.has_edge(0, 1)
        assert not graph.has_edge(0, 5)
        # ...and the claimed edges inserted.
        assert graph.has_edge(0, 2)
        assert graph.has_edge(0, 3)
        assert overridden.tolist() == [0]

    def test_genuine_pairs_untouched(self, perturbed):
        overrides = {0: FakeReport(claimed_neighbors=[2], reported_degree=1.0)}
        graph, _ = apply_overrides(perturbed, overrides)
        for u, v in [(1, 2), (2, 3), (3, 4), (4, 5)]:
            assert graph.has_edge(u, v)

    def test_two_fake_users_claiming_each_other(self, perturbed):
        overrides = {
            0: FakeReport(claimed_neighbors=[1], reported_degree=1.0),
            1: FakeReport(claimed_neighbors=[0], reported_degree=1.0),
        }
        graph, overridden = apply_overrides(perturbed, overrides)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(1, 2)
        assert overridden.tolist() == [0, 1]

    def test_self_loop_claim_rejected(self, perturbed):
        overrides = {0: FakeReport(claimed_neighbors=[0], reported_degree=1.0)}
        with pytest.raises(ValueError, match="self-loop"):
            apply_overrides(perturbed, overrides)

    def test_out_of_range_claim_rejected(self, perturbed):
        overrides = {0: FakeReport(claimed_neighbors=[99], reported_degree=1.0)}
        with pytest.raises(ValueError, match="out-of-range"):
            apply_overrides(perturbed, overrides)

    def test_out_of_range_fake_id_rejected(self, perturbed):
        overrides = {99: FakeReport(claimed_neighbors=[0], reported_degree=1.0)}
        with pytest.raises(ValueError, match="out of range"):
            apply_overrides(perturbed, overrides)


class TestApplyDegreeOverrides:
    def test_replacement(self):
        degrees = np.array([1.0, 2.0, 3.0])
        overrides = {1: FakeReport(claimed_neighbors=[0], reported_degree=42.0)}
        result = apply_degree_overrides(degrees, overrides)
        assert result.tolist() == [1.0, 42.0, 3.0]

    def test_original_untouched(self):
        degrees = np.array([1.0, 2.0])
        overrides = {0: FakeReport(claimed_neighbors=[1], reported_degree=9.0)}
        apply_degree_overrides(degrees, overrides)
        assert degrees.tolist() == [1.0, 2.0]

    def test_no_overrides(self):
        degrees = np.array([1.0, 2.0])
        assert apply_degree_overrides(degrees, None).tolist() == [1.0, 2.0]


class TestProtocolInterface:
    def test_collect_paired_has_no_default(self):
        """A protocol must pair its own views; there is no re-collecting
        fallback."""

        class CollectOnly(GraphLDPProtocol):
            def collect(self, graph, rng, overrides=None):
                raise NotImplementedError

            def estimate_degree_centrality(self, reports):
                raise NotImplementedError

            def estimate_clustering_coefficient(self, reports):
                raise NotImplementedError

            def estimate_modularity(self, reports, labels):
                raise NotImplementedError

        with pytest.raises(TypeError, match="collect_paired"):
            CollectOnly()


class TestExcludedValidation:
    """``CollectedReports.excluded`` is a validated set of node ids, so every
    estimator reads the same removed users."""

    @staticmethod
    def reports(perturbed, excluded):
        return CollectedReports(
            perturbed_graph=perturbed,
            reported_degrees=np.zeros(perturbed.num_nodes),
            adjacency_epsilon=2.0,
            degree_epsilon=2.0,
            excluded=excluded,
        )

    @pytest.mark.parametrize("bad", [6, 7, -1])
    def test_out_of_range_ids_raise_naming_excluded(self, perturbed, bad):
        with pytest.raises(ValueError, match="excluded must be node ids in 0..5"):
            self.reports(perturbed, [1, bad])

    def test_normalised_to_sorted_distinct_ids(self, perturbed):
        reports = self.reports(perturbed, [4, 1, 4, 1])
        assert reports.excluded.dtype == np.int64
        assert reports.excluded.tolist() == [1, 4]
        assert self.reports(perturbed, []).excluded.tolist() == []

    def test_repeated_ids_do_not_change_degree_estimates(self, perturbed):
        from repro.protocols.lfgdpr import LFGDPRProtocol

        protocol = LFGDPRProtocol(epsilon=4.0)
        once = protocol.estimate_degrees(self.reports(perturbed, [1]))
        twice = protocol.estimate_degrees(self.reports(perturbed, [1, 1]))
        assert np.array_equal(twice, once)
