"""Streaming out-of-core path: bit-identity against the in-memory backends.

Every assertion here is an *exact equality*: the streaming module's contract
is that chunking changes peak memory only, never a single bit of any result.
"""

import hashlib

import numpy as np
import pytest

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, packing_bytes, triangle_backend
from repro.graph.metrics import triangles_per_node
from repro.graph.streaming import (
    RowBlockBuilder,
    iter_packed_row_blocks,
    rows_per_block,
    streaming_degrees,
    streaming_intra_community_edges,
    streaming_triangles_per_node,
)
from repro.ldp.perturbation import perturb_graph
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.telemetry.core import Tracer, use_tracer
from repro.utils.sparse import decode_pairs, pair_count


def random_graph(n: int, density: float, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    if n < 2 or density == 0.0:
        return Graph(n, [])
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Graph(n, edges)


def assemble(graph: Graph, block_rows) -> np.ndarray:
    blocks = [
        rows for _, _, rows in iter_packed_row_blocks(graph, block_rows)
    ]
    words = (graph.num_nodes + 63) >> 6
    if not blocks:
        return np.zeros((0, words), dtype=np.uint64)
    return np.concatenate(blocks, axis=0)


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 2, 64, 65, 130])
    @pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
    def test_blocks_equal_packed_matrix(self, n, density):
        graph = random_graph(n, density, seed=n + 1)
        full = BitMatrix.from_graph(graph).rows
        for block_rows in (1, 7, max(1, n), n + 13):
            assert np.array_equal(assemble(graph, block_rows), full)

    def test_block_ranges_tile_the_matrix(self):
        graph = random_graph(40, 0.2, seed=2)
        spans = [
            (start, stop) for start, stop, _ in iter_packed_row_blocks(graph, 9)
        ]
        assert spans[0][0] == 0
        assert spans[-1][1] == graph.num_nodes
        for (_, prev_stop), (start, _) in zip(spans, spans[1:]):
            assert start == prev_stop

    def test_builder_rejects_bad_range(self):
        builder = RowBlockBuilder.from_graph(random_graph(10, 0.5))
        with pytest.raises(ValueError, match="row range"):
            builder.build(3, 11)
        with pytest.raises(ValueError, match="row range"):
            builder.build(-1, 2)

    def test_bad_block_rows_rejected(self):
        with pytest.raises(ValueError, match="block_rows"):
            list(iter_packed_row_blocks(random_graph(5, 0.5), 0))

    def test_ten_thousand_node_graph(self):
        # n = 10^4, sparse codes sampled directly (listcomp generation would
        # visit 5e7 pairs).  Blocks must tile to the exact packed matrix and
        # the chunked estimators must agree with the in-memory backends.
        n = 10_000
        rng = np.random.default_rng(9)
        codes = np.unique(
            rng.integers(0, pair_count(n), size=60_000, dtype=np.int64)
        )[:50_000]
        graph = Graph.from_codes(n, codes, assume_sorted_unique=True)
        full = BitMatrix.from_graph(graph).rows
        assert np.array_equal(assemble(graph, 1553), full)
        assert np.array_equal(streaming_degrees(graph, 4099), graph.degrees())
        assert np.array_equal(
            streaming_triangles_per_node(graph, 2048),
            BitMatrix.from_graph(graph).triangles_per_node(),
        )


def sampled_codes(n: int, density: float, seed: int) -> np.ndarray:
    """Sorted codes of ``round(density * C(n, 2))`` distinct random pairs."""
    total = pair_count(n)
    count = int(round(density * total))
    return np.sort(np.random.default_rng(seed).choice(total, size=count, replace=False))


def reference_block(n: int, codes: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Packed rows ``[start, stop)`` through the stable column argsort the
    builder used to keep — a permutation array beside four E-length arrays —
    and a dense bool block packed little-endian."""
    rows, cols = decode_pairs(codes, n)
    order = np.argsort(cols, kind="stable")
    cols_sorted, rows_by_col = cols[order], rows[order]
    lo, hi = np.searchsorted(rows, [start, stop])
    clo, chi = np.searchsorted(cols_sorted, [start, stop])
    words = (n + 63) >> 6
    dense = np.zeros((stop - start, words * 64), dtype=bool)
    dense[rows[lo:hi] - start, cols[lo:hi]] = True
    dense[cols_sorted[clo:chi] - start, rows_by_col[clo:chi]] = True
    packed = np.packbits(dense, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64).reshape(stop - start, words)


class TestBuilderMatchesColumnArgsort:
    """The sorted transposed keys decode to the old column-sorted permutation,
    so every block equals the argsort builder's and the in-memory matrix's."""

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 130])
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
    def test_every_block_height(self, n, density):
        codes = sampled_codes(n, density, seed=n)
        builder = RowBlockBuilder(n, codes)
        rows, cols = decode_pairs(codes, n)
        order = np.argsort(cols, kind="stable")
        upper, lower = np.divmod(builder._col_keys, max(n, 1))
        assert np.array_equal(upper, cols[order])
        assert np.array_equal(lower, rows[order])
        full = BitMatrix.from_graph(Graph.from_codes(n, codes)).rows
        for height in range(1, n + 2):
            for start in range(0, n, height):
                stop = min(n, start + height)
                block = builder.build(start, stop)
                assert np.array_equal(block, reference_block(n, codes, start, stop))
                assert np.array_equal(block, full[start:stop])

    @pytest.mark.parametrize("density", [0.0, 0.01, 0.5, 1.0])
    def test_ranges_off_block_boundaries(self, density):
        n = 130
        codes = sampled_codes(n, density, seed=7)
        builder = RowBlockBuilder(n, codes)
        full = BitMatrix.from_graph(Graph.from_codes(n, codes)).rows
        for start, stop in [(1, 2), (3, 70), (63, 65), (64, 130), (129, 130), (50, 50)]:
            assert np.array_equal(builder.build(start, stop), full[start:stop])
            assert np.array_equal(
                builder.build(start, stop), reference_block(n, codes, start, stop)
            )

    @pytest.mark.parametrize("density", [0.0, 1e-6, 1e-5])
    def test_keys_past_32_bits(self, density):
        """n = 2^16 + 1 puts transposed keys past 2^32; the last pair
        (n - 2, n - 1) holds the largest key.  Packing the whole matrix
        would take gigabytes, so blocks are checked against the reference."""
        n = (1 << 16) + 1
        codes = np.union1d(sampled_codes(n, density, seed=3), [pair_count(n) - 1])
        builder = RowBlockBuilder(n, codes)
        assert builder._col_keys[-1] == (n - 1) * n + (n - 2)
        for start, stop in [(0, 64), (64, 200), (1000, 1001), (n - 129, n), (n - 1, n)]:
            assert np.array_equal(
                builder.build(start, stop), reference_block(n, codes, start, stop)
            )


class TestRowsPerBlock:
    def test_honours_cap(self):
        n = 1000
        row_bytes = ((n + 63) >> 6) << 3
        assert rows_per_block(n, max_bytes=10 * row_bytes) == 10
        assert rows_per_block(n, max_bytes=1) == 1  # floor of one row

    def test_default_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "1024")
        assert rows_per_block(64) == 1024 // 8


class TestStreamBackend:
    def test_streams_only_past_the_byte_cap(self, monkeypatch):
        dense = random_graph(64, 0.9, seed=3)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(packing_bytes(64)))
        assert triangle_backend(dense) == "packed"  # packing still fits
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(packing_bytes(64) - 1))
        assert triangle_backend(dense) == "stream"

    def test_large_low_degree_graphs_never_stream(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        rng = np.random.default_rng(4)
        codes = rng.choice(5000 * 4999 // 2, size=5000, replace=False)
        sparse = Graph.from_codes(5000, codes)  # mean degree 2
        assert triangle_backend(sparse) == "sparse"


class TestStreamingEstimators:
    @pytest.mark.parametrize("chunk_edges", [1, 7, 1 << 22])
    def test_degrees_identical(self, chunk_edges):
        graph = random_graph(90, 0.4, seed=5)
        assert np.array_equal(
            streaming_degrees(graph, chunk_edges), graph.degrees()
        )

    @pytest.mark.parametrize("chunk_edges", [1, 13, 1 << 22])
    def test_intra_community_identical(self, chunk_edges):
        graph = random_graph(80, 0.3, seed=6)
        labels = np.random.default_rng(0).integers(0, 5, graph.num_nodes)
        rows, cols = graph.edge_arrays()
        same = labels[rows] == labels[cols]
        assert np.array_equal(
            streaming_intra_community_edges(graph, labels, 5, chunk_edges),
            np.bincount(labels[rows[same]], minlength=5),
        )

    # Triangle identity per block height lives in
    # tests/graph/test_triangle_identity.py.

    @pytest.mark.parametrize("graph", [Graph(5, []), Graph(0, []), Graph(5, [(0, 1)])])
    def test_triangles_reject_bad_block_rows_on_any_graph(self, graph):
        with pytest.raises(ValueError, match="block_rows"):
            streaming_triangles_per_node(graph, 0)


class TestDispatch:
    def test_metrics_dispatch_identical_past_cap(self, monkeypatch):
        graph = random_graph(70, 0.6, seed=8)
        expected = triangles_per_node(graph)
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        with use_tracer(Tracer()) as tracer:
            assert np.array_equal(triangles_per_node(graph), expected)
        assert tracer.counters == {"backend.stream": 1}

    def test_paired_intra_identical_past_cap(self, monkeypatch):
        """A paired run counts its honest intra edges lazily, once, into its
        cache by edge bucketing — the same bits in memory and past the cap."""
        graph = random_graph(70, 0.3, seed=8)
        labels = np.random.default_rng(1).integers(0, 4, graph.num_nodes)
        protocol = LFGDPRProtocol(epsilon=1.0)

        def estimate():
            before = protocol.collect_paired_batch(graph, [5])[0].before
            assert "intra" not in before.baseline.cache  # nothing eager
            value = protocol.estimate_modularity(before, labels)
            rows, cols = before.perturbed_graph.edge_arrays()
            same = labels[rows] == labels[cols]
            assert np.array_equal(
                before.baseline.cache["intra"][1],
                np.bincount(labels[rows[same]], minlength=4),
            )
            return value

        in_memory = estimate()
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", "64")
        assert estimate() == in_memory


class TestPerturbStream:
    """Perturbed reports served as packed row blocks."""

    def test_draw_for_draw_identity(self):
        graph = random_graph(120, 0.1, seed=10)
        for block_rows in (1, 17, None):
            reference = perturb_graph(graph, 1.2, rng=99)
            perturbed = perturb_graph(graph, 1.2, rng=99)
            assert np.array_equal(perturbed.edge_codes, reference.edge_codes)
            assembled = np.concatenate(
                [rows for _, _, rows in iter_packed_row_blocks(perturbed, block_rows)],
                axis=0,
            )
            assert np.array_equal(
                assembled, BitMatrix.from_graph(reference).rows
            )

    def test_seed_replay_sha256_pin(self):
        """Golden digest: the streamed report bytes for a fixed seed.

        Pins the whole chain — RNG stream keys, sampling order, code merge,
        block assembly — so any accidental draw-order change breaks loudly.
        """
        graph = random_graph(100, 0.15, seed=11)
        digest = hashlib.sha256()
        for _, _, rows in iter_packed_row_blocks(perturb_graph(graph, 2.0, rng=1234), 23):
            digest.update(np.ascontiguousarray(rows, dtype="<u8").tobytes())
        # Independent of block height: block iteration draws nothing, and
        # the assembled bytes are block-size invariant.
        other = hashlib.sha256()
        for _, _, rows in iter_packed_row_blocks(perturb_graph(graph, 2.0, rng=1234), 100):
            other.update(np.ascontiguousarray(rows, dtype="<u8").tobytes())
        assert digest.hexdigest() == other.hexdigest()
        assert digest.hexdigest() == (
            "e34fe179d8f1d3b00692da436974f8a6cc6898ef747037f06a72dd1f1c2daac5"
        )


class TestCollectBlocks:
    def test_blocks_reproduce_collect(self):
        graph = random_graph(110, 0.12, seed=12)
        protocol = LFGDPRProtocol(epsilon=2.0)
        reference = protocol.collect(graph, rng=7)
        for block_rows in (1, 19, None):
            blocks = list(protocol.collect_blocks(graph, rng=7, block_rows=block_rows))
            assert blocks[0].start == 0
            assert blocks[-1].stop == graph.num_nodes
            rows = np.concatenate([b.adjacency_rows for b in blocks], axis=0)
            degrees = np.concatenate([b.reported_degrees for b in blocks])
            assert np.array_equal(
                rows, BitMatrix.from_graph(reference.perturbed_graph).rows
            )
            assert np.array_equal(
                degrees, np.asarray(reference.reported_degrees, dtype=np.float64)
            )

    def test_empty_graph_yields_nothing(self):
        protocol = LFGDPRProtocol(epsilon=1.0)
        assert list(protocol.collect_blocks(Graph(0, []), rng=0)) == []
