"""Target-restricted triangle counts: ``triangles_per_node(graph, nodes)``.

Counting at ``nodes`` must return exactly ``triangles_per_node(graph)[nodes]``
— in the given order, repeats kept — on every backend, both on an honest
plane and on a paired after-view, whose packed plane is the honest one
patched by :meth:`BitMatrix.with_edits`.  networkx is the reference.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import bitmatrix
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix
from repro.graph.generators import erdos_renyi_graph
from repro.graph.metrics import (
    local_clustering_coefficients,
    paired_plane,
    triangles_per_node,
    triangles_per_node_cached,
)
from repro.protocols.base import FakeReport, apply_overrides
from repro.telemetry.core import Tracer, use_tracer
from repro.utils.sparse import pair_count

BACKENDS = ["packed", "sparse", "stream"]


def networkx_triangles(graph: Graph) -> np.ndarray:
    counts = nx.triangles(graph.to_networkx())
    return np.array([counts[node] for node in range(graph.num_nodes)], dtype=np.int64)


def code_graph(n: int, density: float, seed: int) -> Graph:
    total = pair_count(n)
    count = int(round(density * total))
    rng = np.random.default_rng(seed)
    codes = rng.choice(total, size=count, replace=False) if count else np.empty(0)
    return Graph.from_codes(n, np.asarray(codes, dtype=np.int64))


def after_view(graph: Graph, seed: int):
    """A paired after-view of ``graph``: up to two fake users replace their
    rows with fresh claims; the result is an edit of ``graph``."""
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    overrides = {}
    if n >= 2:
        for fake in rng.choice(n, size=min(2, n - 1), replace=False).tolist():
            claims = rng.choice(n, size=min(n - 1, 5), replace=False)
            overrides[fake] = FakeReport(claims[claims != fake], 0.0)
    return apply_overrides(graph, overrides)[0]


@pytest.mark.parametrize("backend", BACKENDS)
@given(
    n=st.integers(min_value=0, max_value=90),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    density=st.floats(min_value=0.0, max_value=1.0),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
)
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_counts_at_nodes_equal_full_counts(backend, force_backend, n, seed, density, picks):
    """Honest and after-view counts at arbitrary (unsorted, repeated, empty)
    ``nodes`` equal the full counts indexed by them, on every backend."""
    graph = code_graph(n, density, seed)
    after = after_view(graph, seed)
    nodes = np.array([pick % n for pick in picks] if n else [], dtype=np.int64)
    honest_expected = networkx_triangles(graph)[nodes]
    after_expected = networkx_triangles(after)[nodes]
    ran = force_backend(backend)
    assert np.array_equal(triangles_per_node(graph, nodes), honest_expected)
    cache = {}
    assert np.array_equal(triangles_per_node_cached(graph, cache, nodes), honest_expected)
    assert np.array_equal(
        triangles_per_node_cached(after, cache, nodes), after_expected
    )
    assert set(ran) <= {backend}


class TestTargetCountShape:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_order_and_repeats_kept(self, backend, force_backend):
        graph = erdos_renyi_graph(70, 0.3, rng=3)
        nodes = np.array([65, 2, 65, 0, 33, 2])
        full = networkx_triangles(graph)
        ran = force_backend(backend)
        counts = triangles_per_node(graph, nodes)
        assert counts.dtype == np.int64
        assert counts.tolist() == full[nodes].tolist()
        assert ran == {backend: 1}

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 40])
    def test_empty_nodes(self, backend, n, force_backend):
        graph = erdos_renyi_graph(n, 0.5, rng=1) if n >= 3 else Graph(n, [(0, 1)] if n == 2 else [])
        force_backend(backend)
        counts = triangles_per_node(graph, np.empty(0, dtype=np.int64))
        assert counts.dtype == np.int64 and counts.shape == (0,)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_graphs_below_three_nodes(self, backend, n, force_backend):
        graph = Graph(n, [(0, 1)] if n == 2 else [])
        force_backend(backend)
        nodes = np.array([0] * 3 + [n - 1])
        assert triangles_per_node(graph, nodes).tolist() == [0, 0, 0, 0]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("bad", [-1, 60])
    def test_out_of_range_ids_raise_naming_nodes(self, backend, bad, force_backend):
        graph = erdos_renyi_graph(60, 0.3, rng=4)
        ran = force_backend(backend)
        with pytest.raises(ValueError, match="nodes must be node ids in 0..59"):
            triangles_per_node(graph, np.array([3, bad]))
        with pytest.raises(ValueError, match="nodes"):
            triangles_per_node_cached(graph, {}, np.array([bad]))
        assert not ran  # rejected before any backend runs

    @pytest.mark.parametrize("bad", [-1, 60])
    def test_packed_kernel_validates_nodes_itself(self, bad):
        graph = erdos_renyi_graph(60, 0.3, rng=4)
        with pytest.raises(ValueError, match="nodes"):
            BitMatrix.from_graph(graph).triangles_per_node(nodes=[bad])

    def test_packed_kernel_blocks_do_not_change_counts(self, monkeypatch):
        graph = erdos_renyi_graph(150, 0.4, rng=2)
        nodes = np.arange(149, 0, -3)
        expected = networkx_triangles(graph)[nodes]
        # 150 unpacked bytes per row: one target row per block, and pair
        # blocks far shorter than a row's neighbour run.
        monkeypatch.setattr(bitmatrix, "_CHUNK_WORDS", 200)
        monkeypatch.setattr(bitmatrix, "_PAIR_BLOCK", 7)
        assert np.array_equal(BitMatrix.from_graph(graph).triangles_per_node(nodes=nodes), expected)

    def test_local_clustering_at_nodes(self):
        graph = erdos_renyi_graph(50, 0.2, rng=8)
        nodes = np.array([7, 3, 7, 49])
        assert np.array_equal(
            local_clustering_coefficients(graph, nodes),
            local_clustering_coefficients(graph)[nodes],
        )


class TestPairedViews:
    def test_after_view_patches_the_parked_honest_plane(self, force_backend, call_counts):
        ran = force_backend("packed")
        _, spy = call_counts
        spy(BitMatrix, "with_edits", "with_edits")
        spy(bitmatrix, "pack_symmetric_plane", "pack")
        graph = erdos_renyi_graph(80, 0.4, rng=5)
        after = after_view(graph, 5)
        nodes = np.array([4, 9, 77])
        cache = {}
        triangles_per_node_cached(graph, cache, nodes)
        assert isinstance(cache.get("bitmatrix"), BitMatrix)
        counts = triangles_per_node_cached(after, cache, nodes)
        assert np.array_equal(counts, networkx_triangles(after)[nodes])
        assert ran == {"packed": 1, "with_edits": 1, "pack": 1}

    def test_after_view_without_parked_plane_counts_from_scratch(self):
        graph = erdos_renyi_graph(80, 0.4, rng=5)
        after = after_view(graph, 5)
        cache = {}
        counts = triangles_per_node_cached(after, cache, None)
        assert np.array_equal(counts, networkx_triangles(after))
        assert cache == {}  # the after-view parks nothing

    def test_after_view_full_counts_on_patched_plane(self, force_backend):
        force_backend("packed")
        graph = erdos_renyi_graph(80, 0.4, rng=5)
        after = after_view(graph, 5)
        cache = {}
        triangles_per_node_cached(graph, cache)
        assert np.array_equal(
            triangles_per_node_cached(after, cache, None), networkx_triangles(after)
        )

    def test_no_plane_is_packed_above_the_cap(self, monkeypatch):
        """Above ``REPRO_DENSE_MAX_BYTES`` :func:`paired_plane` packs and
        parks nothing, so the honest view streams and the after-view counts
        on its own graph."""
        graph = erdos_renyi_graph(80, 0.4, rng=5)
        after = after_view(graph, 5)
        monkeypatch.setenv(bitmatrix.MAX_PACKED_BYTES_ENV, str(bitmatrix.packing_bytes(80) - 1))
        cache = {}
        assert paired_plane(graph, cache) is None
        assert paired_plane(after, cache) is None
        assert "bitmatrix" not in cache
        nodes = np.array([4, 9, 77])
        with use_tracer(Tracer()) as tracer:
            honest = triangles_per_node_cached(graph, cache, nodes)
            counts = triangles_per_node_cached(after, cache, nodes)
        assert tracer.counters["backend.stream"] == 2
        assert "bitmatrix" not in cache
        assert np.array_equal(honest, networkx_triangles(graph)[nodes])
        assert np.array_equal(counts, networkx_triangles(after)[nodes])

    def test_tracer_counts_each_target_count(self):
        graph = erdos_renyi_graph(40, 0.3, rng=1)
        after = after_view(graph, 1)
        cache = {}
        with use_tracer(Tracer()) as tracer:
            triangles_per_node(graph)
            assert "triangles.at_nodes" not in tracer.counters
            triangles_per_node(graph, [1, 2])
            triangles_per_node_cached(graph, cache, [3])
            triangles_per_node_cached(after, cache, [3])
        assert tracer.counters["triangles.at_nodes"] == 3
        assert not any(name.startswith("delta.") for name in tracer.counters)
