"""Microbenchmark — the triangle backend cost model on a crossover grid.

Runs in the CI smoke job so backend perf regressions show up in the log.
Every grid point times the sparse and packed backends (which must agree
bit-for-bit) and prints the cost ratio ``E ceil(n/64) / sum_i d_i^2`` that
``repro.graph.bitmatrix.triangle_backend`` compares with
``PACKED_WORDS_PER_WEDGE``, the backend it picks and the measured winner.
The grid is the fit's crossover grid trimmed to a CI-sized subset: uniform
random graphs across size and mean degree plus power-law graphs shaped like
the paper's datasets.
"""

import functools
import time

import numpy as np
import pytest
from conftest import emit

from repro.graph import metrics
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import PACKED_WORDS_PER_WEDGE, packing_bytes, triangle_backend
from repro.graph.generators import powerlaw_cluster_graph
from repro.utils.sparse import pair_count

#: ``(nodes, mean degrees)`` of the uniform random graphs.
UNIFORM_GRID = [
    (2000, [5, 10, 20, 40, 80, 160]),
    (4000, [5, 10, 20, 40, 80]),
    (10000, [5, 10, 20, 40]),
    (20000, [5, 20]),
]

#: ``(nodes, edges per node, triangle probability)`` of the power-law graphs.
POWERLAW_GRID = [(2000, 10, 0.3), (4039, 22, 0.5), (10000, 5, 0.5)]


@functools.lru_cache(maxsize=None)
def uniform_graph(nodes: int, mean_degree: int) -> Graph:
    """A uniform random graph with ``nodes * mean_degree / 2`` edges."""
    rng = np.random.default_rng(nodes + mean_degree)
    edges = nodes * mean_degree // 2
    codes = np.unique(rng.integers(0, pair_count(nodes), size=int(edges * 1.02)))
    return Graph.from_codes(nodes, rng.permutation(codes)[:edges])


@functools.lru_cache(maxsize=None)
def powerlaw_graph(nodes: int, edges_per_node: int, triangle_p: float) -> Graph:
    return powerlaw_cluster_graph(nodes, edges_per_node, triangle_p, rng=1)


def grid():
    for nodes, degrees in UNIFORM_GRID:
        for degree in degrees:
            yield f"uniform n={nodes} d={degree}", uniform_graph(nodes, degree)
    for nodes, per_node, triangle_p in POWERLAW_GRID:
        yield f"powerlaw n={nodes} m={per_node}", powerlaw_graph(nodes, per_node, triangle_p)


def words_per_wedge(graph: Graph) -> float:
    degrees = graph.degrees().astype(np.float64)
    return graph.num_edges * ((graph.num_nodes + 63) >> 6) / float(degrees @ degrees)


def _best_of(callable_, repeats):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_triangle_backends_timing(monkeypatch):
    monkeypatch.delenv("REPRO_DENSE_MAX_BYTES", raising=False)
    lines = [
        f"triangles_per_node backends (best of 3 for n <= 4000, else 1); "
        f"packed when words/wedge <= {PACKED_WORDS_PER_WEDGE}",
        f"{'graph':<26} {'sparse_s':>9} {'packed_s':>9} {'words/wedge':>11} "
        f"{'chosen':>7} {'winner':>7} {'miss':>6}",
    ]
    hits, worst = 0, 1.0
    points = list(grid())
    for label, graph in points:
        repeats = 3 if graph.num_nodes <= 4000 else 1
        sparse_time, sparse_counts = _best_of(lambda: metrics._triangles_sparse(graph), repeats)
        packed_time, packed_counts = _best_of(lambda: metrics._triangles_packed(graph), repeats)
        assert np.array_equal(sparse_counts, packed_counts), f"backend mismatch at {label}"
        chosen = triangle_backend(graph)
        winner = "packed" if packed_time < sparse_time else "sparse"
        times = {"packed": packed_time, "sparse": sparse_time}
        miss = times[chosen] / times[winner]
        hits += chosen == winner
        worst = max(worst, miss)
        lines.append(
            f"{label:<26} {sparse_time:>9.4f} {packed_time:>9.4f} "
            f"{words_per_wedge(graph):>11.2f} {chosen:>7} {winner:>7} {miss:>5.2f}x"
        )
    lines.append(
        f"chosen == winner on {hits}/{len(points)} points; worst miss {worst:.2f}x"
    )
    emit("bench_triangles", "\n".join(lines))


def _facebook_shaped():
    return powerlaw_graph(4039, 22, 0.5)


def _large_low_degree():
    return uniform_graph(20000, 5)


def _packed_cheaper_over_cap():
    return uniform_graph(2000, 80)


@pytest.mark.parametrize(
    "make,cap,expected",
    [
        (_facebook_shaped, None, "packed"),
        (_large_low_degree, None, "sparse"),
        (_packed_cheaper_over_cap, packing_bytes(2000) - 1, "stream"),
    ],
    ids=["facebook-shaped", "n20k-mean-degree-5", "packed-cheaper-over-cap"],
)
def test_dispatch_routes_as_documented(make, cap, expected, monkeypatch):
    monkeypatch.delenv("REPRO_DENSE_MAX_BYTES", raising=False)
    if cap is not None:
        monkeypatch.setenv("REPRO_DENSE_MAX_BYTES", str(cap))
    assert triangle_backend(make()) == expected
