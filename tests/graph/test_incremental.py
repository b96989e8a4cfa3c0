"""Tests for incremental before/after triangle estimation.

The paired-run contract: when an after graph differs from its before graph
only on pairs incident to a touched node set, the incremental update must be
*bit-identical* (exact integers) to a full recount — across backends,
override fractions, densities and both sides of the ``DELTA_THRESHOLD``
crossover.  Ground truth is networkx.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph import bitmatrix, metrics
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, _row_popcounts
from repro.graph.generators import erdos_renyi_graph
from repro.graph.metrics import (
    should_use_incremental,
    triangles_per_node,
    triangles_per_node_cached,
    triangles_per_node_incremental,
    triangles_touching,
)
from repro.telemetry.core import Tracer, use_tracer


def networkx_triangles(graph: Graph) -> np.ndarray:
    counts = nx.triangles(graph.to_networkx())
    return np.array([counts[node] for node in range(graph.num_nodes)], dtype=np.int64)


def touch_rows(graph: Graph, touched: np.ndarray, rng: np.random.Generator) -> Graph:
    """An after-graph differing from ``graph`` only on pairs incident to
    ``touched``: drop roughly half the incident edges, add fresh claims."""
    rows, cols = graph.edge_arrays()
    incident = np.isin(rows, touched) | np.isin(cols, touched)
    drop = incident & (rng.random(rows.size) < 0.5)
    after = graph.without_edges(
        list(zip(rows[drop].tolist(), cols[drop].tolist()))
    )
    n = graph.num_nodes
    additions = []
    for node in touched.tolist():
        for neighbor in rng.choice(n, size=min(n - 1, 4), replace=False).tolist():
            if neighbor != node:
                additions.append((node, neighbor))
    return after.with_edges(additions)


class TestTrianglesTouching:
    @pytest.mark.parametrize("density", [0.02, 0.15, 0.5])
    @pytest.mark.parametrize("backend", ["packed", "sparse"])
    def test_matches_brute_force_both_backends(self, density, backend, force_backend):
        ran = force_backend(backend)
        rng = np.random.default_rng(7)
        graph = erdos_renyi_graph(40, density, rng=3)
        nx_graph = graph.to_networkx()
        touched = np.sort(rng.choice(40, size=8, replace=False))
        touched_set = set(touched.tolist())
        brute = np.zeros(40, dtype=np.int64)
        for clique in nx.enumerate_all_cliques(nx_graph):
            if len(clique) == 3 and touched_set & set(clique):
                for vertex in clique:
                    brute[vertex] += 1
        assert triangles_touching(graph, touched).tolist() == brute.tolist()
        assert ran == {backend: 1}

    def test_full_touched_set_equals_total_counts(self):
        graph = erdos_renyi_graph(25, 0.3, rng=0)
        everyone = np.arange(25)
        assert np.array_equal(
            triangles_touching(graph, everyone), triangles_per_node(graph)
        )

    def test_empty_touched_set(self):
        graph = erdos_renyi_graph(10, 0.5, rng=0)
        assert triangles_touching(graph, np.empty(0, dtype=np.int64)).tolist() == [0] * 10


def reference_touching(packed: BitMatrix, nodes: np.ndarray) -> np.ndarray:
    """The per-node row loop that the single pair-popcount sweep replaced."""
    n = packed.num_nodes
    counts = np.zeros(n, dtype=np.int64)
    nodes = np.asarray(nodes, dtype=np.int64)
    if n == 0 or nodes.size == 0:
        return counts
    one = np.uint64(1)
    mask = np.zeros(packed.num_words, dtype=np.uint64)
    np.bitwise_or.at(mask, nodes >> 6, one << (nodes & 63).astype(np.uint64))
    positions = np.arange(n)
    word_index, bit_shift = positions >> 6, (positions & 63).astype(np.uint64)
    term = np.zeros(n, dtype=np.int64)
    for node in nodes.tolist():
        row = packed.rows[node]
        neighbors = np.nonzero((row[word_index] >> bit_shift) & one)[0]
        if not neighbors.size:
            continue
        anded = packed.rows[neighbors] & row
        pop_full = _row_popcounts(anded)
        counts[node] = int(pop_full.sum()) // 2
        term[neighbors] += 2 * pop_full - _row_popcounts(anded & mask)
    outside = np.ones(n, dtype=bool)
    outside[nodes] = False
    counts[outside] = term[outside] // 2
    return counts


class TestPackedTouchingKernel:
    @pytest.mark.parametrize("n", [3, 63, 64, 65, 130])
    @pytest.mark.parametrize("density", [0.0, 0.05, 0.5, 1.0])
    def test_matches_per_node_reference(self, n, density):
        rng = np.random.default_rng(n)
        graph = erdos_renyi_graph(n, density, rng=n + 1)
        packed = BitMatrix.from_graph(graph)
        for size in (1, 2, n // 3, n):
            touched = np.sort(rng.choice(n, size=max(1, size), replace=False))
            assert np.array_equal(
                packed.triangles_touching(touched), reference_touching(packed, touched)
            )

    def test_row_blocks_and_pair_blocks_do_not_change_counts(self, monkeypatch):
        graph = erdos_renyi_graph(150, 0.4, rng=2)
        packed = BitMatrix.from_graph(graph)
        touched = np.arange(0, 150, 4)
        expected = reference_touching(packed, touched)
        # 150 unpacked bytes per row: one touched row per block, and pair
        # blocks far shorter than a row's neighbour run.
        monkeypatch.setattr(bitmatrix, "_CHUNK_WORDS", 200)
        monkeypatch.setattr(bitmatrix, "_PAIR_BLOCK", 7)
        assert np.array_equal(packed.triangles_touching(touched), expected)

    def test_full_touched_set_equals_networkx(self):
        graph = erdos_renyi_graph(70, 0.3, rng=8)
        counts = BitMatrix.from_graph(graph).triangles_touching(np.arange(70))
        assert np.array_equal(counts, networkx_triangles(graph))


class TestTouchingNodeSet:
    @pytest.mark.parametrize("backend", ["packed", "sparse"])
    def test_repeated_ids_count_once(self, backend, force_backend):
        ran = force_backend(backend)
        graph = erdos_renyi_graph(60, 0.3, rng=4)
        once = triangles_touching(graph, np.array([3, 7, 20]))
        assert np.array_equal(triangles_touching(graph, np.array([3, 7, 7, 20])), once)
        assert np.array_equal(triangles_touching(graph, np.array([20, 3, 7, 3])), once)
        assert ran == {backend: 3}

    @pytest.mark.parametrize("backend", ["packed", "sparse"])
    @pytest.mark.parametrize("bad", [-1, 60])
    def test_out_of_range_ids_raise(self, backend, bad, force_backend):
        ran = force_backend(backend)
        graph = erdos_renyi_graph(60, 0.3, rng=4)
        with pytest.raises(ValueError, match="nodes"):
            triangles_touching(graph, np.array([3, bad]))
        assert not ran  # rejected before either backend runs

    def test_incremental_validates_touched(self):
        graph = erdos_renyi_graph(20, 0.3, rng=4)
        with pytest.raises(ValueError, match="touched"):
            triangles_per_node_incremental(
                graph, graph, np.array([-1]), triangles_per_node(graph)
            )


class TestIncrementalEquality:
    @pytest.mark.parametrize("fraction", [0.0, 0.05, 0.1, 0.25, 0.5])
    @pytest.mark.parametrize("backend", ["packed", "sparse"])
    def test_incremental_equals_full_equals_networkx(
        self, fraction, backend, force_backend, monkeypatch
    ):
        ran = force_backend(backend)
        # Keep the crossover out of the way: this test checks equality, the
        # threshold behaviour is covered separately below.
        monkeypatch.setattr(metrics, "DELTA_THRESHOLD", 1.0)
        rng = np.random.default_rng(int(fraction * 100))
        n = 48
        graph = erdos_renyi_graph(n, 0.25, rng=5)
        count = max(0, round(fraction * n))
        touched = np.sort(rng.choice(n, size=count, replace=False)) if count else np.empty(0, dtype=np.int64)
        after = touch_rows(graph, touched, rng) if count else graph
        before_triangles = triangles_per_node(graph)
        incremental = triangles_per_node_incremental(graph, after, touched, before_triangles)
        full = triangles_per_node(after)
        assert np.array_equal(incremental, full)
        assert np.array_equal(full, networkx_triangles(after))
        # Full counts plus, when rows were touched, the two touching passes.
        assert ran == {backend: 2 + (2 if count else 0)}

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_degenerate_graphs(self, n):
        graph = Graph(n, [(0, 1)] if n == 2 else [])
        touched = np.arange(min(n, 1))
        result = triangles_per_node_incremental(
            graph, graph, touched, triangles_per_node(graph)
        )
        assert result.tolist() == [0] * n

    def test_with_edits_patch_path_bit_identical(self, force_backend, monkeypatch):
        """added/removed codes route through BitMatrix.with_edits."""
        ran = force_backend("packed")
        monkeypatch.setattr(metrics, "DELTA_THRESHOLD", 1.0)
        rng = np.random.default_rng(11)
        graph = erdos_renyi_graph(30, 0.3, rng=2)
        touched = np.array([1, 5, 9])
        after = touch_rows(graph, touched, rng)
        added = after.edge_codes[~np.isin(after.edge_codes, graph.edge_codes)]
        removed = graph.edge_codes[~np.isin(graph.edge_codes, after.edge_codes)]
        cache = {}
        patched = triangles_per_node_incremental(
            graph, after, touched, triangles_per_node(graph),
            cache=cache, added_codes=added, removed_codes=removed,
        )
        assert np.array_equal(patched, triangles_per_node(after))
        assert "bitmatrix" in cache  # packed honest matrix parked for reuse
        # Two full packed counts and the before/after packed touching passes.
        assert ran == {"packed": 4}


class TestDeltaThreshold:
    def test_predicate_both_sides(self):
        assert metrics.DELTA_THRESHOLD == 0.25
        assert should_use_incremental(100, 25)
        assert not should_use_incremental(100, 26)
        assert not should_use_incremental(2, 1)  # too small to matter
        assert not should_use_incremental(100, 0)  # nothing changed

    @pytest.mark.parametrize("threshold,expected", [(1.0, "incremental"), (0.0, "fallback")])
    def test_stats_record_the_decision(self, threshold, expected, monkeypatch):
        monkeypatch.setattr(metrics, "DELTA_THRESHOLD", threshold)
        rng = np.random.default_rng(3)
        graph = erdos_renyi_graph(40, 0.3, rng=1)
        touched = np.array([0, 7])
        after = touch_rows(graph, touched, rng)
        with use_tracer(Tracer()) as tracer:
            result = triangles_per_node_incremental(
                graph, after, touched, triangles_per_node(graph)
            )
        other = "incremental" if expected == "fallback" else "fallback"
        assert tracer.counters.get(f"delta.{expected}", 0) == 1
        assert tracer.counters.get(f"delta.{other}", 0) == 0
        # Both sides of the crossover return the exact same integers.
        assert np.array_equal(result, triangles_per_node(after))


class TestCachedCounts:
    def test_cache_filled_and_reused(self, force_backend):
        ran = force_backend("packed")
        graph = erdos_renyi_graph(20, 0.4, rng=4)
        cache = {}
        first = triangles_per_node_cached(graph, cache)
        assert ran == {"packed": 1}
        assert np.array_equal(first, triangles_per_node(graph))
        assert isinstance(cache.get("bitmatrix"), BitMatrix)
        # The reuse counts on the parked plane: no new pack or dispatch.
        assert np.array_equal(triangles_per_node_cached(graph, cache), first)
        assert ran == {"packed": 2}


class TestWithEdits:
    def test_patch_equals_repack(self):
        rng = np.random.default_rng(9)
        graph = erdos_renyi_graph(50, 0.2, rng=6)
        touched = np.array([2, 3, 30])
        after = touch_rows(graph, touched, rng)
        added = after.edge_codes[~np.isin(after.edge_codes, graph.edge_codes)]
        removed = graph.edge_codes[~np.isin(graph.edge_codes, after.edge_codes)]
        from repro.utils.sparse import decode_pairs

        add_rows, add_cols = decode_pairs(added, 50)
        drop_rows, drop_cols = decode_pairs(removed, 50)
        patched = BitMatrix.from_graph(graph).with_edits(
            add_rows, add_cols, drop_rows, drop_cols
        )
        assert np.array_equal(patched.rows, BitMatrix.from_graph(after).rows)

    def test_noop_edit_returns_equal_matrix(self):
        graph = erdos_renyi_graph(10, 0.5, rng=0)
        packed = BitMatrix.from_graph(graph)
        empty = np.empty(0, dtype=np.int64)
        assert np.array_equal(packed.with_edits(empty, empty, empty, empty).rows, packed.rows)

    def test_repeated_edits_apply_once(self):
        """A pair listed twice toggles its bit once; the neighbouring bits of
        the same word are untouched."""
        graph = Graph(70, [(0, 1), (0, 3), (2, 65)])
        packed = BitMatrix.from_graph(graph)
        twice = np.array([0, 0])
        patched = packed.with_edits(twice, np.array([2, 2]), twice, np.array([1, 1]))
        expected = BitMatrix.from_graph(Graph(70, [(0, 2), (0, 3), (2, 65)]))
        assert np.array_equal(patched.rows, expected.rows)
