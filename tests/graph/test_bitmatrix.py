"""Tests for the bit-packed dense adjacency backend and its dispatch.

The packed and sparse backends must be *bit-identical* — exact integer
triangle counts, degrees and edge counts — across the whole density range,
because the cost-adaptive dispatch in ``repro.graph.metrics`` silently
routes between them (and engine cache entries rely on results never
changing).
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import bittensor, metrics
from repro.graph.adjacency import Graph
from repro.graph import bitmatrix
from repro.graph.bitmatrix import (
    BitMatrix,
    accumulate_bits,
    max_packed_bytes,
    pack_symmetric_plane,
    packed_bytes,
    packing_bytes,
    pair_popcounts,
    should_use_packed,
    triangle_backend,
)
from repro.graph.bittensor import BitTensor
from repro.graph.generators import erdos_renyi_graph, powerlaw_cluster_graph
from repro.graph.metrics import edge_density, triangles_per_node
from repro.graph.streaming import rows_per_block, streaming_intra_community_edges
from repro.ldp.perturbation import perturb_graph
from repro.telemetry.core import Tracer, use_tracer
from repro.utils.sparse import pair_count


def reference_pack(num_nodes, rows, cols):
    """The split-bincount packer that byte-scatter + packbits replaced."""
    n = int(num_nodes)
    words = (n + 63) >> 6
    if n == 0 or rows.size == 0:
        return np.zeros((n, words), dtype=np.uint64)
    sym_rows = np.concatenate([rows, cols])
    sym_cols = np.concatenate([cols, rows])
    flat = sym_rows * words + (sym_cols >> 6)
    return accumulate_bits(flat, sym_cols & 63, n * words).reshape(n, words)


def random_code_graph(n, density, seed):
    total = pair_count(n)
    count = int(round(density * total))
    rng = np.random.default_rng(seed)
    codes = rng.choice(total, size=count, replace=False) if count else np.empty(0)
    return Graph.from_codes(n, np.asarray(codes, dtype=np.int64))


PACK_SIZES = [0, 1, 2, 63, 64, 65, 127, 128, 129, 200]
PACK_DENSITIES = [0.0, 0.01, 0.05, 0.5, 0.9, 1.0]


class TestPacking:
    def test_triangle_graph(self):
        bm = BitMatrix.from_graph(Graph(4, [(0, 1), (1, 2), (2, 0)]))
        assert bm.degrees().tolist() == [2, 2, 2, 0]
        assert bm.triangles_per_node().tolist() == [1, 1, 1, 0]
        assert bm.num_edges == 3

    def test_empty_graph(self):
        bm = BitMatrix.from_graph(Graph(0))
        assert bm.degrees().size == 0
        assert bm.triangles_per_node().size == 0
        assert bm.num_edges == 0
        assert bm.edge_density() == 0.0

    def test_single_node(self):
        bm = BitMatrix.from_graph(Graph(1))
        assert bm.degrees().tolist() == [0]
        assert bm.triangles_per_node().tolist() == [0]
        assert bm.edge_density() == 0.0

    def test_two_nodes(self):
        bm = BitMatrix.from_graph(Graph(2, [(0, 1)]))
        assert bm.degrees().tolist() == [1, 1]
        assert bm.triangles_per_node().tolist() == [0, 0]
        assert bm.num_edges == 1
        assert bm.edge_density() == 1.0

    def test_word_boundary_nodes(self):
        # Nodes 63/64/65 straddle the uint64 word boundary.
        g = Graph(66, [(63, 64), (64, 65), (63, 65), (0, 63)])
        bm = BitMatrix.from_graph(g)
        assert np.array_equal(bm.degrees(), g.degrees())
        assert bm.triangles_per_node().tolist() == triangles_per_node(g).tolist()

    def test_complete_graph(self):
        k8 = Graph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        bm = BitMatrix.from_graph(k8)
        assert bm.edge_density() == 1.0
        # Each node of K8 is in C(7, 2) = 21 triangles.
        assert bm.triangles_per_node().tolist() == [21] * 8

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="expected"):
            BitMatrix(4, np.zeros((4, 2), dtype=np.uint64))

    def test_repr(self):
        assert repr(BitMatrix.from_graph(Graph(65))) == "BitMatrix(num_nodes=65, num_words=2)"


@pytest.mark.parametrize("density", [0.001, 0.01, 0.05, 0.2, 0.5, 0.9])
def test_backends_bit_identical_across_densities(density):
    """Packed == sparse == networkx, exactly, from near-empty to near-complete."""
    g = erdos_renyi_graph(130, density, rng=int(density * 1000))
    packed = metrics._triangles_packed(g)
    sparse = metrics._triangles_sparse(g)
    assert np.array_equal(packed, sparse)
    theirs = nx.triangles(g.to_networkx())
    assert packed.tolist() == [theirs[i] for i in range(g.num_nodes)]
    bm = BitMatrix.from_graph(g)
    assert np.array_equal(bm.degrees(), g.degrees())
    assert bm.num_edges == g.num_edges
    assert bm.edge_density() == edge_density(g)


@given(
    n=st.integers(min_value=0, max_value=70),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    density=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_backend_equality_property(n, seed, density):
    """Exact packed/sparse agreement on arbitrary random graphs, n=0 included."""
    total = pair_count(n)
    rng = np.random.default_rng(seed)
    count = int(round(density * total))
    codes = rng.choice(total, size=count, replace=False) if count else np.empty(0, np.int64)
    g = Graph.from_codes(n, np.asarray(codes, dtype=np.int64))
    bm = BitMatrix.from_graph(g)
    assert np.array_equal(bm.degrees(), g.degrees())
    assert bm.num_edges == g.num_edges
    if n > 0:
        assert np.array_equal(metrics._triangles_packed(g), metrics._triangles_sparse(g))


def test_chunked_popcount_passes_match_single_pass(monkeypatch):
    """Bounding the gather/AND temporaries must not change any count."""
    from repro.graph import bitmatrix

    g = erdos_renyi_graph(100, 0.5, rng=9)
    labels = np.arange(100) % 3
    reference = BitMatrix.from_graph(g)
    expected_triangles = reference.triangles_per_node()
    expected_intra = streaming_intra_community_edges(g, labels, 3)
    monkeypatch.setattr(bitmatrix, "_CHUNK_WORDS", 4)  # force many tiny chunks
    monkeypatch.setattr(bittensor, "_CHUNK_WORDS", 4)
    assert np.array_equal(reference.triangles_per_node(), expected_triangles)
    tensor = BitTensor.from_graphs([g, g])
    assert np.array_equal(tensor.intra_community_edges(labels, 3)[1], expected_intra)


class TestIntraCommunityEdges:
    """The packed intra counter (on already-packed planes) equals the
    edge bucketing of the one unpacked counter."""

    def test_matches_edge_bucketing(self):
        g = erdos_renyi_graph(90, 0.4, rng=3)
        labels = np.arange(90) % 4
        rows, cols = g.edge_arrays()
        same = labels[rows] == labels[cols]
        expected = np.bincount(labels[rows[same]], minlength=4)
        assert np.array_equal(streaming_intra_community_edges(g, labels, 4), expected)
        packed = BitTensor.from_graphs([g]).intra_community_edges(labels, 4)[0]
        assert np.array_equal(packed, expected)

    def test_singleton_and_empty_communities(self):
        g = Graph(5, [(0, 1), (1, 2)])
        labels = np.array([0, 0, 1, 2, 2])
        assert streaming_intra_community_edges(g, labels, 4).tolist() == [1, 0, 0, 0]
        counts = BitTensor.from_graphs([g]).intra_community_edges(labels, 4)[0]
        assert counts.tolist() == [1, 0, 0, 0]


class TestDispatch:
    def _count_backends(self, monkeypatch):
        calls = {"packed": 0, "sparse": 0}
        real_packed, real_sparse = metrics._triangles_packed, metrics._triangles_sparse

        def packed(graph, *args):
            calls["packed"] += 1
            return real_packed(graph, *args)

        def sparse(graph):
            calls["sparse"] += 1
            return real_sparse(graph)

        monkeypatch.setattr(metrics, "_triangles_packed", packed)
        monkeypatch.setattr(metrics, "_triangles_sparse", sparse)
        return calls

    def test_low_epsilon_perturbed_graph_takes_packed_path(self, monkeypatch):
        calls = self._count_backends(monkeypatch)
        g = powerlaw_cluster_graph(150, 4, 0.5, rng=0)
        perturbed = perturb_graph(g, 0.5, rng=1)
        assert should_use_packed(perturbed)
        triangles_per_node(perturbed)
        assert calls == {"packed": 1, "sparse": 0}

    def test_sparse_power_law_graph_takes_packed_path(self, monkeypatch):
        # 2% density: a hub-heavy wedge count makes the word sweep cheaper.
        calls = self._count_backends(monkeypatch)
        g = powerlaw_cluster_graph(400, 4, 0.5, rng=0)
        assert edge_density(g) < 0.05
        assert should_use_packed(g)
        triangles_per_node(g)
        assert calls == {"packed": 1, "sparse": 0}

    def test_large_low_degree_graph_takes_csr_path(self, monkeypatch):
        calls = self._count_backends(monkeypatch)
        g = random_code_graph(5000, 0.0004, seed=0)  # mean degree 2
        assert triangle_backend(g) == "sparse"
        triangles_per_node(g)
        assert calls == {"packed": 0, "sparse": 1}

    def test_both_paths_equal_on_same_graph(self):
        g = perturb_graph(powerlaw_cluster_graph(150, 4, 0.5, rng=0), 0.8, rng=2)
        assert np.array_equal(metrics._triangles_packed(g), metrics._triangles_sparse(g))

    def test_memory_cap_env_override(self, monkeypatch):
        dense = perturb_graph(powerlaw_cluster_graph(100, 4, 0.5, rng=0), 0.5, rng=0)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        assert not should_use_packed(dense)
        assert triangle_backend(dense) == "stream"

    def test_tiny_and_edgeless_graphs_stay_sparse(self):
        assert triangle_backend(Graph(2, [(0, 1)])) == "sparse"
        assert triangle_backend(Graph(0)) == "sparse"
        assert triangle_backend(Graph(50)) == "sparse"


class TestTriangleBackend:
    @pytest.mark.parametrize(
        "expected,nodes,density,cap",
        [("packed", 100, 0.5, None), ("sparse", 5000, 0.0004, None), ("stream", 100, 0.5, "64")],
    )
    def test_records_one_counter_per_decision(
        self, expected, nodes, density, cap, monkeypatch
    ):
        graph = random_code_graph(nodes, density, seed=1)
        if cap is not None:
            monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", cap)
        with use_tracer(Tracer()) as tracer:
            assert triangle_backend(graph) == expected
        assert tracer.counters == {f"backend.{expected}": 1}

    def test_cost_model_boundary(self, monkeypatch):
        graph = random_code_graph(3000, 0.002, seed=2)
        degrees = graph.degrees().astype(np.float64)
        words_per_wedge = graph.num_edges * ((3000 + 63) >> 6) / float(degrees @ degrees)
        monkeypatch.setattr(bitmatrix, "PACKED_WORDS_PER_WEDGE", words_per_wedge * 1.01)
        assert triangle_backend(graph) == "packed"
        monkeypatch.setattr(bitmatrix, "PACKED_WORDS_PER_WEDGE", words_per_wedge * 0.99)
        assert triangle_backend(graph) == "sparse"

    def test_dense_graph_decided_without_reading_degrees(self, monkeypatch):
        dense = random_code_graph(300, 0.3, seed=3)

        def no_degrees(self):
            raise AssertionError("the (2E)^2/n bound must settle a dense graph")

        monkeypatch.setattr(Graph, "degrees", no_degrees)
        assert triangle_backend(dense) == "packed"


class TestMaxPackedBytes:
    @pytest.mark.parametrize("bad", ["0", "-1", "garbage", "1.5", ""])
    def test_rejects_non_positive_integer(self, bad, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", bad)
        with pytest.raises(ValueError, match="REPRO_DENSE_MAX_BYTES"):
            max_packed_bytes()

    def test_bad_cap_rejected_at_dispatch(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "0")
        with pytest.raises(ValueError, match="REPRO_DENSE_MAX_BYTES"):
            triangles_per_node(random_code_graph(50, 0.5, seed=4))

    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_DENSE_MAX_BYTES", raising=False)
        assert max_packed_bytes() == 1 << 30
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "4096")
        assert max_packed_bytes() == 4096


class TestPackSymmetricPlane:
    @pytest.mark.parametrize("density", PACK_DENSITIES)
    @pytest.mark.parametrize("n", PACK_SIZES)
    def test_equals_split_bincount_reference(self, n, density):
        graph = random_code_graph(n, density, seed=n * 7 + int(density * 100))
        rows, cols = graph.edge_arrays()
        packed = BitMatrix.from_edge_arrays(n, rows, cols)
        assert packed.rows.dtype == np.uint64
        assert packed.rows.shape == (n, (n + 63) >> 6)
        assert np.array_equal(packed.rows, reference_pack(n, rows, cols))
        assert np.array_equal(packed.degrees(), graph.degrees())

    def test_bit_layout_is_word_j_over_64_position_j_mod_64(self):
        packed = BitMatrix.from_edge_arrays(130, np.array([0, 64]), np.array([129, 65]))
        assert packed.rows[0].tolist() == [0, 0, 1 << 1]
        assert packed.rows[129].tolist() == [1, 0, 0]
        assert packed.rows[64].tolist() == [0, 1 << 1, 0]
        assert packed.rows[65].tolist() == [0, 1, 0]

    def test_reused_scratch_is_zero_again_and_planes_independent(self):
        n = 129
        scratch = np.zeros((n, ((n + 63) >> 6) << 6), dtype=np.uint8)
        out = np.empty((n, (n + 63) >> 6), dtype=np.uint64)
        for density in (1.0, 0.0, 0.3):
            rows, cols = random_code_graph(n, density, seed=3).edge_arrays()
            pack_symmetric_plane(rows, cols, n, out, scratch)
            assert not scratch.any()
            assert np.array_equal(out, reference_pack(n, rows, cols))

    def test_duplicate_edges_are_an_or(self):
        rows = np.array([0, 0, 1, 0])
        cols = np.array([1, 1, 2, 1])
        packed = BitMatrix.from_edge_arrays(3, rows, cols)
        assert packed.degrees().tolist() == [1, 2, 1]


def reference_pair_popcounts(matrix, u, v, mask=None):
    anded = matrix[u] & matrix[v]
    full = bitmatrix._row_popcounts(anded)
    if mask is None:
        return full
    return full, bitmatrix._row_popcounts(anded & mask)


class TestPairPopcounts:
    @pytest.mark.parametrize("n", [1, 64, 65, 200])
    @pytest.mark.parametrize("sort_u", [True, False])
    def test_matches_row_major_reference(self, n, sort_u, monkeypatch):
        rng = np.random.default_rng(n)
        words = (n + 63) >> 6
        matrix = rng.integers(0, 2**64, size=(n, words), dtype=np.uint64)
        u = rng.integers(0, n, size=500)
        if sort_u:
            u.sort()
        v = rng.integers(0, n, size=500)
        mask = rng.integers(0, 2**64, size=words, dtype=np.uint64)
        columns = np.ascontiguousarray(matrix.T)
        # Blocks of 64 pairs: runs of u straddle block edges.
        monkeypatch.setattr(bitmatrix, "_PAIR_BLOCK", 64)
        full = pair_popcounts(columns, u, v)
        assert np.array_equal(full, reference_pair_popcounts(matrix, u, v))
        both = pair_popcounts(columns, u, v, mask)
        expected = reference_pair_popcounts(matrix, u, v, mask)
        assert np.array_equal(both[0], expected[0])
        assert np.array_equal(both[1], expected[1])

    @pytest.mark.parametrize("n", [1, 65, 200])
    def test_v_side_from_a_second_block(self, n, monkeypatch):
        rng = np.random.default_rng(n + 1)
        words = (n + 63) >> 6
        block_u = rng.integers(0, 2**64, size=(n, words), dtype=np.uint64)
        block_v = rng.integers(0, 2**64, size=(n + 3, words), dtype=np.uint64)
        u = np.sort(rng.integers(0, n, size=300))
        v = rng.integers(0, n + 3, size=300)
        mask = rng.integers(0, 2**64, size=words, dtype=np.uint64)
        monkeypatch.setattr(bitmatrix, "_PAIR_BLOCK", 64)
        anded = block_u[u] & block_v[v]
        full, masked = pair_popcounts(
            np.ascontiguousarray(block_u.T),
            u,
            v,
            mask,
            v_columns=np.ascontiguousarray(block_v.T),
        )
        assert np.array_equal(full, bitmatrix._row_popcounts(anded))
        assert np.array_equal(masked, bitmatrix._row_popcounts(anded & mask))

    def test_no_pairs(self):
        columns = np.zeros((2, 70), dtype=np.uint64)
        empty = np.empty(0, dtype=np.int64)
        assert pair_popcounts(columns, empty, empty).size == 0
        full, masked = pair_popcounts(columns, empty, empty, np.zeros(2, np.uint64))
        assert full.size == masked.size == 0


class TestTrianglesTouchingValidation:
    @pytest.mark.parametrize("bad", [5, -1])
    def test_out_of_range_ids_raise_naming_nodes(self, bad):
        matrix = BitMatrix.from_graph(Graph(5, [(0, 1), (1, 2), (2, 0)]))
        with pytest.raises(ValueError, match="nodes must be node ids in 0..4"):
            matrix.triangles_touching([1, bad])
        with pytest.raises(ValueError, match="nodes"):
            matrix.triangles_touching([bad])

    def test_method_and_dispatcher_raise_the_same_error(self):
        graph = Graph(5, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(ValueError) as method_error:
            BitMatrix.from_graph(graph).triangles_touching([5])
        with pytest.raises(ValueError) as dispatch_error:
            metrics.triangles_touching(graph, [5])
        assert str(method_error.value) == str(dispatch_error.value)


class TestPackedBytes:
    @pytest.mark.parametrize(
        "n,expected", [(0, 0), (1, 8), (64, 512), (65, 1040), (92681, 1074358152)]
    )
    def test_values(self, n, expected):
        assert packed_bytes(n) == expected

    def test_rows_are_padded_to_words(self):
        # n*n//8 undercounts every n that is not a multiple of 64.
        assert packed_bytes(92681) > 1 << 30 >= 92681 * 92681 // 8

    def test_packing_counts_the_byte_scratch(self):
        # The n x 64 ceil(n/64) byte scratch is 8x the packed plane.
        assert packing_bytes(65) == packed_bytes(65) + 65 * 128 == 9 * packed_bytes(65)
        assert packing_bytes(0) == 0
        # Under the 1 GiB default, in-memory packing tops out at 30,875 nodes.
        assert packing_bytes(30875) <= 1 << 30 < packing_bytes(30876)

    def test_cap_boundary_packed_to_stream(self, monkeypatch):
        graph = random_code_graph(65, 0.5, seed=0)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(packing_bytes(65)))
        assert should_use_packed(graph) and triangle_backend(graph) == "packed"
        # One byte short: the packed plane alone would still fit.
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(packing_bytes(65) - 1))
        assert not should_use_packed(graph) and triangle_backend(graph) == "stream"

    def test_row_block_boundary(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(packed_bytes(65)))
        assert rows_per_block(65) == 65
        # One byte short: the n*n//8 = 528-byte estimate would still admit it.
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(packed_bytes(65) - 1))
        assert rows_per_block(65) == 64
