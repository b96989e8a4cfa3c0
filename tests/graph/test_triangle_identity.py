"""One triangle-identity suite: every per-node triangle backend against networkx.

The packed backends (:class:`BitMatrix`, each plane of :class:`BitTensor`,
the out-of-core block-pair sweep at several block heights) all count through
:func:`repro.graph.bitmatrix.pair_popcounts`; the sparse backend counts closed
walks.  Dispatch between them must never change a result, so each one must
equal the networkx reference exactly on every fixture — word boundaries
(63/64/65 and 127/128/129), three- and four-word graphs (130, 200), the
degenerate n < 3 graphs, and densities from edgeless to complete.
"""

import networkx as nx
import numpy as np
import pytest

from repro.graph import metrics
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, packed_bytes
from repro.graph.bittensor import BitTensor
from repro.graph.streaming import RowBlockBuilder, streaming_triangles_per_node
from repro.utils.sparse import pair_count

SIZES = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129, 130, 200]
DENSITIES = [0.0, 0.01, 0.05, 0.5, 0.9, 1.0]


def code_graph(n: int, density: float, seed: int) -> Graph:
    total = pair_count(n)
    count = int(round(density * total))
    rng = np.random.default_rng(seed)
    codes = rng.choice(total, size=count, replace=False) if count else np.empty(0)
    return Graph.from_codes(n, np.asarray(codes, dtype=np.int64))


def networkx_triangles(graph: Graph) -> np.ndarray:
    theirs = nx.triangles(graph.to_networkx())
    return np.array([theirs[i] for i in range(graph.num_nodes)], dtype=np.int64)


def stream_block_heights(n: int):
    """block_rows in {1, 7, ceil(n/2), n}, each at least one row, one taller
    than the graph, then the default (None: derived from the byte cap)."""
    return sorted({1, 7, max(1, -(-n // 2)), max(1, n), 2 * n + 1}) + [None]


def backends(graph: Graph):
    """``(name, counts)`` for every triangle backend on ``graph``."""
    n = graph.num_nodes
    yield "bitmatrix", BitMatrix.from_graph(graph).triangles_per_node()
    # The graph sits between an edgeless and a complete plane, so the
    # per-plane sweep cannot lean on its neighbours' edges.
    complete = Graph.from_codes(n, np.arange(pair_count(n), dtype=np.int64))
    planes = BitTensor.from_graphs([Graph(n), graph, complete]).triangles_per_node()
    yield "bittensor", planes[1]
    for block_rows in stream_block_heights(n):
        yield f"stream-{block_rows}", streaming_triangles_per_node(graph, block_rows)
    yield "sparse", metrics._triangles_sparse(graph)


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("n", SIZES)
def test_every_backend_matches_networkx(n, density):
    graph = code_graph(n, density, seed=n * 7 + int(density * 100))
    expected = networkx_triangles(graph)
    for name, counts in backends(graph):
        assert counts.dtype == np.int64, name
        assert counts.tolist() == expected.tolist(), name


@pytest.mark.parametrize("n", [64, 130])
def test_default_block_height_keeps_three_blocks_within_the_cap(n, monkeypatch):
    """Three blocks are live at once in the sweep: all must fit max_bytes."""
    row_bytes = packed_bytes(n) // n
    max_bytes = 10 * row_bytes + 5
    heights = []
    build = RowBlockBuilder.build

    def recording_build(self, start, stop):
        heights.append(stop - start)
        return build(self, start, stop)

    monkeypatch.setattr(RowBlockBuilder, "build", recording_build)
    graph = code_graph(n, 0.5, seed=n)
    counts = streaming_triangles_per_node(graph, max_bytes=max_bytes)
    assert np.array_equal(counts, networkx_triangles(graph))
    assert heights and max(heights) == 3
    assert 3 * max(heights) * row_bytes <= max_bytes
