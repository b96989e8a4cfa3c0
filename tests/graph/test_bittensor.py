"""Tests for the trial-stacked bit-plane tensor behind the batched kernels.

Every batched quantity must be an *exact integer* equal to what the
per-trial :class:`~repro.graph.bitmatrix.BitMatrix` computes plane by plane
(and what networkx computes from scratch) — the engine's batched execution
path substitutes these kernels for the scalar ones without a cache-version
bump, so any discrepancy would silently corrupt recorded results.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, accumulate_bits
from repro.graph.bittensor import BitTensor
from tests.graph.test_bitmatrix import PACK_SIZES, reference_pack


def random_graphs(n, trials, density, seed):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(trials):
        mask = np.triu(rng.random((n, n)) < density, 1)
        rows, cols = np.nonzero(mask)
        graphs.append(Graph(n, list(zip(rows.tolist(), cols.tolist()))))
    return graphs


def nx_triangles(graph):
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_nodes))
    nx_graph.add_edges_from(graph.edges())
    return np.array(
        [nx.triangles(nx_graph, node) for node in range(graph.num_nodes)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("trials", [1, 2, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 64, 65])
def test_degrees_match_per_plane_bitmatrix(trials, n):
    # Per-plane triangle identity lives in tests/graph/test_triangle_identity.py.
    for density in (0.0, 0.1, 0.5, 0.9):
        graphs = random_graphs(n, trials, density, seed=n * 31 + trials)
        tensor = BitTensor.from_graphs(graphs)
        assert tensor.num_trials == trials
        assert tensor.num_nodes == n
        degrees = tensor.degrees()
        assert degrees.shape == (trials, n)
        assert tensor.triangles_per_node().shape == (trials, n)
        for trial, graph in enumerate(graphs):
            assert np.array_equal(degrees[trial], BitMatrix.from_graph(graph).degrees())


@pytest.mark.parametrize("n", PACK_SIZES)
def test_stack_mixing_empty_and_full_planes_matches_reference(n):
    complete = Graph.from_codes(n, np.arange(n * (n - 1) // 2, dtype=np.int64))
    graphs = [Graph(n), complete] + random_graphs(n, 2, 0.05, seed=n) + [Graph(n)]
    graphs += random_graphs(n, 2, 0.5, seed=n + 1) + [complete]
    tensor = BitTensor.from_graphs(graphs)
    assert tensor.planes.shape == (len(graphs), n, (n + 63) >> 6)
    for trial, graph in enumerate(graphs):
        assert np.array_equal(
            tensor.planes[trial], reference_pack(n, *graph.edge_arrays())
        )
    triangles = tensor.triangles_per_node()
    expected = (n - 1) * (n - 2) // 2
    assert triangles[0].tolist() == [0] * n
    assert triangles[1].tolist() == [expected] * n
    for trial, graph in enumerate(graphs):
        if n:
            assert np.array_equal(triangles[trial], nx_triangles(graph))


def test_triangles_without_stored_edges_rederives_from_planes():
    graphs = random_graphs(65, 3, 0.4, seed=5)
    packed = BitTensor.from_graphs(graphs)
    bare = BitTensor(65, packed.planes.copy())
    assert np.array_equal(bare.triangles_per_node(), packed.triangles_per_node())


def test_trial_edges_stored_and_derived_agree():
    graphs = random_graphs(70, 2, 0.3, seed=9)
    packed = BitTensor.from_graphs(graphs)
    bare = BitTensor(70, packed.planes.copy())
    for trial, graph in enumerate(graphs):
        rows, cols = packed.trial_edges(trial)
        drows, dcols = bare.trial_edges(trial)
        grows, gcols = graph.edge_arrays()
        assert np.array_equal(np.sort(rows), np.sort(drows))
        assert np.array_equal(rows, grows) and np.array_equal(cols, gcols)
        assert np.array_equal(np.sort(cols), np.sort(dcols))


def test_edge_endpoints_roundtrip():
    (graph,) = random_graphs(130, 1, 0.25, seed=3)
    plane = BitMatrix.from_graph(graph)
    rows, cols = plane.edge_endpoints()
    expected_rows, expected_cols = graph.edge_arrays()
    order = np.lexsort((cols, rows))
    expected_order = np.lexsort((expected_cols, expected_rows))
    assert np.array_equal(rows[order], expected_rows[expected_order])
    assert np.array_equal(cols[order], expected_cols[expected_order])


def test_plane_views_are_zero_copy():
    graphs = random_graphs(64, 2, 0.3, seed=1)
    tensor = BitTensor.from_graphs(graphs)
    view = tensor.plane(1)
    assert isinstance(view, BitMatrix)
    assert view.rows.base is tensor.planes or np.shares_memory(
        view.rows, tensor.planes
    )
    assert np.array_equal(view.degrees(), tensor.degrees()[1])


def test_intra_community_edges_matches_per_plane():
    graphs = random_graphs(90, 3, 0.4, seed=11)
    tensor = BitTensor.from_graphs(graphs)
    labels = np.arange(90, dtype=np.int64) % 4
    batched = tensor.intra_community_edges(labels, 4)
    assert batched.shape == (3, 4)
    for trial, graph in enumerate(graphs):
        rows, cols = graph.edge_arrays()
        same = labels[rows] == labels[cols]
        expected = np.bincount(labels[rows[same]], minlength=4)
        assert np.array_equal(batched[trial], expected)


def test_with_edits_matches_per_plane_bitmatrix():
    graphs = random_graphs(80, 3, 0.3, seed=21)
    tensor = BitTensor.from_graphs(graphs)
    rng = np.random.default_rng(4)
    edits = []
    expected = []
    for trial, graph in enumerate(graphs):
        if trial == 1:
            edits.append(None)
            expected.append(BitMatrix.from_graph(graph))
            continue
        rows, cols = graph.edge_arrays()
        drop = rng.choice(rows.size, size=min(5, rows.size), replace=False)
        drop_rows, drop_cols = rows[drop], cols[drop]
        add_rows = np.array([0, 2, 4], dtype=np.int64)
        add_cols = np.array([79, 77, 75], dtype=np.int64)
        present = set(zip(rows.tolist(), cols.tolist()))
        keep = [
            (r, c)
            for r, c in zip(add_rows.tolist(), add_cols.tolist())
            if (min(r, c), max(r, c)) not in present
        ]
        add_rows = np.array([r for r, _ in keep], dtype=np.int64)
        add_cols = np.array([c for _, c in keep], dtype=np.int64)
        edits.append((add_rows, add_cols, drop_rows, drop_cols))
        expected.append(
            BitMatrix.from_graph(graph).with_edits(
                add_rows, add_cols, drop_rows, drop_cols
            )
        )
    edited = tensor.with_edits(edits)
    for trial in range(3):
        assert np.array_equal(edited.planes[trial], expected[trial].rows)
    # the original tensor is untouched
    for trial, graph in enumerate(graphs):
        assert np.array_equal(tensor.planes[trial], BitMatrix.from_graph(graph).rows)


def test_with_edits_validates_length():
    tensor = BitTensor.from_graphs(random_graphs(10, 2, 0.3, seed=2))
    with pytest.raises(ValueError, match="edit sets"):
        tensor.with_edits([None])


def test_from_graphs_validates_node_counts():
    with pytest.raises(ValueError, match="share one node count"):
        BitTensor.from_graphs([Graph(3), Graph(4)])
    with pytest.raises(ValueError, match="at least one graph"):
        BitTensor.from_graphs([])


def test_shape_and_edges_validated():
    with pytest.raises(ValueError, match="expected"):
        BitTensor(4, np.zeros((2, 3), dtype=np.uint64))
    with pytest.raises(ValueError, match="edge lists"):
        BitTensor(4, np.zeros((2, 4, 1), dtype=np.uint64), edges=[None])


def test_repr():
    tensor = BitTensor.from_graphs([Graph(4, [(0, 1)])])
    assert "num_trials=1" in repr(tensor)


class TestAccumulateBits:
    def test_matches_bitwise_or_reference(self):
        rng = np.random.default_rng(0)
        size = 50
        positions = rng.permutation(np.repeat(np.arange(size), 3))[:90]
        # make (position, bit) pairs unique
        seen = set()
        keep_positions, keep_bits = [], []
        for position in positions.tolist():
            for bit in rng.integers(0, 64, size=4).tolist():
                if (position, bit) not in seen:
                    seen.add((position, bit))
                    keep_positions.append(position)
                    keep_bits.append(bit)
        positions = np.array(keep_positions, dtype=np.int64)
        bits = np.array(keep_bits, dtype=np.int64)
        reference = np.zeros(size, dtype=np.uint64)
        np.bitwise_or.at(reference, positions, np.uint64(1) << bits.astype(np.uint64))
        assert np.array_equal(accumulate_bits(positions, bits, size), reference)

    def test_empty(self):
        out = accumulate_bits(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4
        )
        assert np.array_equal(out, np.zeros(4, dtype=np.uint64))
