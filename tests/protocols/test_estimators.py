"""Tests for the LF-GDPR estimators and triangle calibration."""

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.graph.streaming import streaming_intra_community_edges
from repro.graph.generators import powerlaw_cluster_graph
from repro.graph.metrics import (
    local_clustering_coefficients,
    modularity_from_labels,
    triangles_per_node,
)
from repro.ldp.perturbation import perturb_graph
from repro.protocols.estimators import (
    degree_estimate_variance_bits,
    degree_estimate_variance_laplace,
    degrees_from_perturbed_graph,
    estimate_clustering_coefficients,
    estimate_modularity,
    fuse_degree_estimates,
    triangle_calibration,
)
from repro.protocols import lfgdpr
from repro.protocols.base import FakeReport
from repro.protocols.lfgdpr import LFGDPRProtocol


class TestDegreeFromBits:
    def test_unbiased(self):
        g = powerlaw_cluster_graph(300, 5, 0.5, rng=0)
        epsilon = 2.0
        rng = np.random.default_rng(0)
        estimates = np.mean(
            [
                degrees_from_perturbed_graph(perturb_graph(g, epsilon, rng=rng), epsilon)
                for _ in range(30)
            ],
            axis=0,
        )
        errors = np.abs(estimates - g.degrees())
        assert errors.mean() < 2.0

    def test_identity_at_high_epsilon(self):
        g = powerlaw_cluster_graph(100, 3, 0.5, rng=0)
        perturbed = perturb_graph(g, 40.0, rng=0)
        estimates = degrees_from_perturbed_graph(perturbed, 40.0)
        assert np.allclose(estimates, g.degrees(), atol=1e-6)


class TestVariancesAndFusion:
    def test_bits_variance_positive_and_decreasing_in_eps(self):
        variances = [degree_estimate_variance_bits(1000, eps) for eps in (1, 2, 4)]
        assert all(v > 0 for v in variances)
        assert variances == sorted(variances, reverse=True)

    def test_laplace_variance(self):
        assert degree_estimate_variance_laplace(2.0) == pytest.approx(0.5)

    def test_fusion_between_inputs(self):
        fused = fuse_degree_estimates(
            reported=np.array([10.0]),
            from_bits=np.array([20.0]),
            num_nodes=1000,
            adjacency_epsilon=2.0,
            degree_epsilon=2.0,
        )
        assert 10.0 < fused[0] < 20.0

    def test_fusion_weights_favor_laplace_for_large_n(self):
        # Bit-vector variance grows with N, so the self-report dominates.
        fused = fuse_degree_estimates(
            reported=np.array([10.0]),
            from_bits=np.array([20.0]),
            num_nodes=100_000,
            adjacency_epsilon=2.0,
            degree_epsilon=2.0,
        )
        assert fused[0] < 11.0

    def test_fusion_identical_inputs_fixed_point(self):
        fused = fuse_degree_estimates(
            np.array([7.0]), np.array([7.0]), 100, 2.0, 2.0
        )
        assert fused[0] == pytest.approx(7.0)


class TestTriangleCalibration:
    def test_low_bias_with_calibrated_degrees(self):
        """With true-degree plug-ins, R() recovers triangle mass on ER graphs.

        An Erdos-Renyi graph is used because the theta~ plug-in of Eq. 16
        assumes pair-independence, which clustered graphs violate.
        """
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.metrics import edge_density
        from repro.protocols.estimators import degrees_from_perturbed_graph

        g = erdos_renyi_graph(250, 0.08, rng=0)
        epsilon = 3.0
        rng = np.random.default_rng(1)
        true_triangles = triangles_per_node(g).astype(np.float64)
        estimates = []
        for _ in range(15):
            perturbed = perturb_graph(g, epsilon, rng=rng)
            plugin = np.clip(
                degrees_from_perturbed_graph(perturbed, epsilon), 0.0, g.num_nodes - 1.0
            )
            estimates.append(
                triangle_calibration(
                    triangles_per_node(perturbed).astype(np.float64),
                    plugin,
                    g.num_nodes,
                    epsilon,
                    edge_density(perturbed),
                )
            )
        mean_estimate = np.mean(estimates, axis=0)
        assert mean_estimate.sum() == pytest.approx(true_triangles.sum(), rel=0.3)

    def test_perturbed_plugin_tracks_attack_differences(self):
        """The paper's estimator: correction terms cancel in before/after
        differences, so adding triangles raises corrected counts linearly."""
        from repro.graph.metrics import edge_density
        from repro.ldp.mechanisms import rr_keep_probability

        g = powerlaw_cluster_graph(120, 4, 0.6, rng=3)
        epsilon = 3.0
        perturbed = perturb_graph(g, epsilon, rng=4)
        observed = triangles_per_node(perturbed).astype(np.float64)
        degrees = perturbed.degrees().astype(np.float64)
        density = edge_density(perturbed)
        base = triangle_calibration(observed, degrees, g.num_nodes, epsilon, density)
        bumped = triangle_calibration(observed + 5, degrees, g.num_nodes, epsilon, density)
        keep = rr_keep_probability(epsilon)
        expected_delta = 5.0 / (keep**2 * (2 * keep - 1))
        assert np.allclose(bumped - base, expected_delta)

    def test_epsilon_zero_rejected(self):
        with pytest.raises(ValueError, match="no signal"):
            triangle_calibration(np.array([1.0]), np.array([2.0]), 10, 0.0, 0.1)

    def test_identity_at_high_epsilon(self):
        g = powerlaw_cluster_graph(150, 4, 0.6, rng=2)
        perturbed = perturb_graph(g, 40.0, rng=0)  # identical to g
        from repro.graph.metrics import edge_density

        corrected = triangle_calibration(
            triangles_per_node(perturbed).astype(np.float64),
            perturbed.degrees().astype(np.float64),
            g.num_nodes,
            40.0,
            edge_density(perturbed),
        )
        assert np.allclose(corrected, triangles_per_node(g), atol=1e-3)


class TestClusteringEstimator:
    def test_range_clipped(self):
        g = powerlaw_cluster_graph(200, 4, 0.6, rng=0)
        perturbed = perturb_graph(g, 2.0, rng=0)
        estimates = estimate_clustering_coefficients(perturbed, 2.0)
        assert np.all(estimates >= 0.0) and np.all(estimates <= 1.0)

    def test_tracks_truth_at_high_epsilon(self):
        g = powerlaw_cluster_graph(200, 4, 0.6, rng=1)
        perturbed = perturb_graph(g, 40.0, rng=0)
        estimates = estimate_clustering_coefficients(perturbed, 40.0)
        truth = local_clustering_coefficients(g)
        assert np.abs(estimates - truth).mean() < 0.01

    def test_degree_below_two_yields_zero(self):
        g = Graph(4, [(0, 1)])
        estimates = estimate_clustering_coefficients(g, 4.0)
        assert estimates.tolist() == [0.0, 0.0, 0.0, 0.0]


class TestModularityEstimator:
    def test_tracks_truth_at_high_epsilon(self):
        g = powerlaw_cluster_graph(200, 4, 0.5, rng=3)
        labels = (np.arange(200) // 50).astype(np.int64)
        perturbed = perturb_graph(g, 40.0, rng=0)
        estimate = estimate_modularity(
            perturbed, labels, 40.0, g.degrees().astype(np.float64)
        )
        truth = modularity_from_labels(g, labels)
        assert estimate == pytest.approx(truth, abs=0.02)

    def test_labels_shape_checked(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ValueError, match="one entry per node"):
            estimate_modularity(g, np.zeros(2, dtype=np.int64), 2.0, np.zeros(3))

    def test_zero_degrees_graph(self):
        g = Graph(4)
        value = estimate_modularity(g, np.zeros(4, dtype=np.int64), 2.0, np.zeros(4))
        assert value == 0.0


    def test_paired_intra_counted_once_per_run(self, call_counts):
        """The before and after views of one paired run share a single
        honest intra count; the after view only adjusts it, to the bits a
        seed-replayed collect gives."""
        g = powerlaw_cluster_graph(150, 4, 0.5, rng=5)
        labels = (np.arange(150) % 6).astype(np.int64)
        protocol = LFGDPRProtocol(epsilon=0.8)
        overrides = {
            3: FakeReport(claimed_neighbors=[7, 40, 99], reported_degree=3.0),
            8: FakeReport(claimed_neighbors=[2, 41], reported_degree=2.0),
        }
        counts, spy = call_counts
        spy(lfgdpr, "streaming_intra_community_edges", "intra")
        run = protocol.collect_paired(g, 1)
        paired = [
            protocol.estimate_modularity(view, labels)
            for view in (run.before, run.after(overrides), run.before)
        ]
        assert counts == {"intra": 1}
        replayed = [
            protocol.estimate_modularity(protocol.collect(g, 1, overrides=o), labels)
            for o in (None, overrides, None)
        ]
        assert paired == replayed


class TestClusteringDispatchEquality:
    def test_every_backend_bit_identical(self, force_backend):
        """Same floats out of Eq. 15 whichever triangle backend runs."""
        g = powerlaw_cluster_graph(150, 4, 0.5, rng=6)
        perturbed = perturb_graph(g, 0.6, rng=2)
        estimates = {}
        for backend in ("packed", "sparse", "stream"):
            ran = force_backend(backend)
            ran.clear()
            estimates[backend] = estimate_clustering_coefficients(perturbed, 0.6)
            assert ran == {backend: 1}
        assert np.array_equal(estimates["packed"], estimates["sparse"])
        assert np.array_equal(estimates["packed"], estimates["stream"])


def _modularity_entry_points():
    graph = powerlaw_cluster_graph(60, 3, 0.3, rng=1)
    protocol = LFGDPRProtocol(epsilon=2.0)
    degrees = graph.degrees().astype(np.float64)
    return {
        "intra_counter": lambda labels: streaming_intra_community_edges(graph, labels, 3),
        "modularity_from_labels": lambda labels: modularity_from_labels(graph, labels),
        "estimate_modularity": lambda labels: estimate_modularity(graph, labels, 2.0, degrees),
        "protocol": lambda labels: protocol.estimate_modularity(
            protocol.collect(graph, 4), labels
        ),
        "protocol_paired": lambda labels: protocol.estimate_modularity(
            protocol.collect_paired(graph, 4).before, labels
        ),
    }


class TestModularityLabelsValidation:
    BAD_LABELS = {
        "short": (np.arange(59) % 3, "one entry per node"),
        "negative": (np.r_[-1, np.arange(59) % 3], "non-negative"),
        "non_integer": (np.full(60, 0.5), "integer"),
    }

    @pytest.mark.parametrize("entry", sorted(_modularity_entry_points()))
    @pytest.mark.parametrize("bad", sorted(BAD_LABELS))
    def test_bad_labels_raise_naming_labels(self, entry, bad):
        labels, message = self.BAD_LABELS[bad]
        with pytest.raises(ValueError, match=f"labels must .*{message}"):
            _modularity_entry_points()[entry](labels)

    @pytest.mark.parametrize("entry", sorted(_modularity_entry_points()))
    def test_valid_labels_accepted(self, entry):
        _modularity_entry_points()[entry](np.arange(60) % 3)
