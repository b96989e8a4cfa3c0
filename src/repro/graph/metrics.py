"""Exact (non-private) graph metrics.

These are the ground-truth counterparts of the LDP estimators in
``repro.protocols``: normalized degree centrality (Eq. 8 of the paper), the
local clustering coefficient (Eq. 12), per-node triangle counts, edge density
and Newman modularity.  All operate on :class:`repro.graph.Graph`.
"""

from __future__ import annotations

from typing import MutableMapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, node_set, should_use_packed, triangle_backend
from repro.graph.streaming import streaming_triangles_per_node
from repro.telemetry.core import current_tracer
from repro.utils.sparse import decode_pairs, pair_count
from repro.utils.validation import check_labels, node_ids

#: Touched-row fraction above which incremental before/after estimation loses
#: to a full recompute (the delta pass costs ~4x the touched fraction of a
#: full pass, so the theoretical crossover sits near 0.25).
DELTA_THRESHOLD = 0.25


def should_use_incremental(num_nodes: int, touched_count: int) -> bool:
    """Whether a paired after-run with ``touched_count`` changed rows should
    be estimated incrementally rather than from scratch.

    Pure predicate (no side effects); both paths are exact, so this only
    affects speed, never results.
    """
    if num_nodes < 3 or touched_count == 0:
        return False
    return touched_count <= DELTA_THRESHOLD * num_nodes


def degree_centrality(graph: Graph) -> np.ndarray:
    """Normalized degree centrality ``c_i = d_i / (N - 1)`` for every node.

    >>> g = Graph(3, [(0, 1), (0, 2)])
    >>> degree_centrality(g).tolist()
    [1.0, 0.5, 0.5]
    """
    n = graph.num_nodes
    if n <= 1:
        return np.zeros(n, dtype=np.float64)
    return graph.degrees().astype(np.float64) / (n - 1)


def triangles_per_node(graph: Graph, nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """Number of triangles incident to each node (``tau_i`` in the paper).

    Cost-adaptive (:func:`repro.graph.bitmatrix.triangle_backend`): graphs
    whose packed word sweep beats the sparse wedge count (e.g. the
    near-dense output of low-epsilon randomized response) are counted via
    bit-packed row-AND + popcount (:class:`repro.graph.bitmatrix.BitMatrix`),
    or by streaming packed row blocks when packing would exceed
    ``REPRO_DENSE_MAX_BYTES``
    (:func:`repro.graph.streaming.streaming_triangles_per_node`); the rest go
    via ``diag(A @ A @ A) / 2`` on scipy CSR matrices.  All three backends
    produce exact integer counts, so the dispatch never changes a result.

    ``nodes`` (ids in any order, repeats kept) returns the counts at
    ``nodes`` from their rows alone, traced as ``triangles.at_nodes``.
    """
    return triangles_per_node_cached(graph, {}, nodes)


def _dispatch_triangles(
    graph: Graph, cache: Optional[MutableMapping], nodes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Count on :func:`triangle_backend`'s choice; a packed matrix is parked
    in ``cache`` (when given) under ``"bitmatrix"``."""
    backend = triangle_backend(graph)
    if backend == "packed":
        return _triangles_packed(graph, cache, nodes)
    if backend == "stream":  # no target restriction: sweep everything, then index
        counts = streaming_triangles_per_node(graph)
        return counts if nodes is None else counts[nodes]
    return _triangles_sparse(graph, nodes)


def _triangles_packed(
    graph: Graph, cache: Optional[MutableMapping] = None, nodes: Optional[np.ndarray] = None
) -> np.ndarray:
    """Packed backend: edge-gather row-AND + popcount sweep."""
    edges = graph.edge_arrays() if cache is None else paired_edge_arrays(graph, cache)
    packed = BitMatrix.from_edge_arrays(graph.num_nodes, *edges)
    if cache is not None:
        cache["bitmatrix"] = packed
    return packed.triangles_per_node(edges=edges, nodes=nodes)


def _triangles_sparse(graph: Graph, nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """Sparse backend: each triangle at node *i* corresponds to two closed
    walks of length 3 (one per orientation)."""
    adjacency = graph.csr().astype(np.int64)
    rows = adjacency if nodes is None else adjacency[nodes]
    # diag(A @ A @ A)[i] = sum_j A[i, j] * (A @ A)[i, j], A being symmetric
    closed_walks = np.asarray(rows.multiply(rows @ adjacency).sum(axis=1)).ravel()
    return closed_walks // 2


def paired_edge_arrays(graph: Graph, cache: MutableMapping) -> Tuple[np.ndarray, np.ndarray]:
    """``graph.edge_arrays()``, decoded once into ``cache["edges"]``.

    The one decode of a paired run's honest plane: override application,
    the packed triangle sweep and the honest degrees all read it.  The
    first call seeds ``graph``'s degrees from the same decode (the
    bincounts :meth:`Graph.degrees` would take), so the plane is never
    decoded a second time for them.
    """
    edges = cache.get("edges")
    if edges is None:
        rows, cols = edges = graph.edge_arrays()
        n = graph.num_nodes
        graph._seed_degrees(np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n))
        cache["edges"] = edges
    return edges


def triangles_per_node_cached(
    graph: Graph,
    cache: MutableMapping,
    nodes: Optional[np.ndarray] = None,
    edits: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """:func:`triangles_per_node` over the views of one paired run.

    Every view passes the run's shared ``cache``.  The honest view
    (``edits=None``) parks its packed :class:`BitMatrix` there under
    ``"bitmatrix"``, so the plane is packed once per run.  An after view
    passes its net ``edits = (added_codes, removed_codes)`` and is counted
    on the parked plane patched by :meth:`BitMatrix.with_edits`.
    """
    if nodes is not None:
        nodes = node_ids(nodes, graph.num_nodes)
        current_tracer().counter("triangles.at_nodes")
    packed = cache.get("bitmatrix")
    if packed is None:
        return _dispatch_triangles(graph, cache if edits is None else None, nodes)
    if edits is not None:
        n = graph.num_nodes
        packed = packed.with_edits(*decode_pairs(edits[0], n), *decode_pairs(edits[1], n))
    return packed.triangles_per_node(nodes=nodes)


def triangles_touching(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Per-node count of triangles with at least one vertex in ``nodes``.

    Packed row-AND + popcount when :func:`should_use_packed`, otherwise
    sparse matmul restricted to the touched rows; both backends return the
    same exact integers.  ``nodes`` is a set: repeated ids count
    once, and ids outside ``0..n-1`` raise :class:`ValueError`.
    """
    nodes = node_set(nodes, graph.num_nodes)
    if graph.num_nodes == 0 or nodes.size == 0:
        return np.zeros(graph.num_nodes, dtype=np.int64)
    if should_use_packed(graph):
        return BitMatrix.from_graph(graph).triangles_touching(nodes)
    return _triangles_touching_sparse(graph, nodes)


def _triangles_touching_sparse(graph: Graph, nodes: np.ndarray) -> np.ndarray:
    """Sparse backend of :func:`triangles_touching`.

    Neighbour-set intersections restricted to the touched rows, phrased as
    sparse matmuls: ``P = A[S] @ A`` holds ``|N(s) & N(u)|`` for touched
    ``s`` and ``Q = A[S][:, S] @ A[S]`` the same intersection restricted to
    touched third vertices.  A touched node's count is its plain triangle
    count; an untouched node ``u`` collects, per touched neighbour ``s``,
    ``2 |N(u) & N(s)| - |N(u) & N(s) & S|`` ordered qualifying pairs, and a
    halving yields the exact count.
    """
    n = graph.num_nodes
    counts = np.zeros(n, dtype=np.int64)
    if graph.num_edges == 0:
        return counts
    adjacency = graph.csr().astype(np.int64)
    touched_rows = adjacency[nodes]
    paths = touched_rows @ adjacency
    own = touched_rows.multiply(paths)
    counts[nodes] = np.asarray(own.sum(axis=1)).ravel() // 2
    restricted = touched_rows[:, nodes] @ touched_rows
    term = np.asarray(
        touched_rows.multiply(2 * paths - restricted).sum(axis=0)
    ).ravel()
    outside = np.ones(n, dtype=bool)
    outside[nodes] = False
    counts[outside] = term[outside] // 2
    return counts


def triangles_per_node_incremental(
    before: Graph,
    after: Graph,
    touched: np.ndarray,
    before_triangles: np.ndarray,
    *,
    cache: Optional[MutableMapping] = None,
    added_codes: Optional[np.ndarray] = None,
    removed_codes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Triangle counts of ``after`` from those of ``before``, incrementally.

    Contract: ``after`` differs from ``before`` only on pairs incident to
    the ``touched`` nodes (the paired-run invariant — attack overrides only
    rewrite pairs incident to overridden users).  Every triangle gained or
    lost therefore has a vertex in ``touched``, so

    ``tau(after) = tau(before) - touching(before) + touching(after)``

    with :func:`triangles_touching` restricted to the touched rows.  All
    three terms are exact integers, making the result bit-identical to a
    full recompute; when the touched fraction exceeds
    :data:`DELTA_THRESHOLD` the delta pass would cost more than it saves and the function falls back to
    :func:`triangles_per_node` on ``after``.  The decision is counted on the
    current tracer as ``delta.incremental`` or ``delta.fallback``.

    ``cache`` (optional) carries the honest graph's packed matrix across
    calls; ``added_codes``/``removed_codes`` (optional, net sorted pair
    codes) let the packed path patch the before matrix's rows instead of
    re-packing ``after`` from scratch.  ``touched`` is a set like ``nodes``
    of :func:`triangles_touching`: repeats count once, and ids outside
    ``0..n-1`` raise :class:`ValueError`.
    """
    n = before.num_nodes
    touched = node_set(touched, n, "touched")
    if touched.size == 0:
        return before_triangles
    if not should_use_incremental(n, touched.size):
        current_tracer().counter("delta.fallback")
        return triangles_per_node(after)
    current_tracer().counter("delta.incremental")
    if should_use_packed(before):
        packed_before = cache.get("bitmatrix") if cache is not None else None
        if packed_before is None:
            packed_before = BitMatrix.from_graph(before)
            if cache is not None:
                cache["bitmatrix"] = packed_before
        if added_codes is not None and removed_codes is not None:
            add_rows, add_cols = decode_pairs(added_codes, n)
            drop_rows, drop_cols = decode_pairs(removed_codes, n)
            packed_after = packed_before.with_edits(add_rows, add_cols, drop_rows, drop_cols)
        else:
            packed_after = BitMatrix.from_graph(after)
        return (
            before_triangles
            - packed_before.triangles_touching(touched)
            + packed_after.triangles_touching(touched)
        )
    return (
        before_triangles
        - _triangles_touching_sparse(before, touched)
        + _triangles_touching_sparse(after, touched)
    )


def local_clustering_coefficients(graph: Graph, nodes: Optional[np.ndarray] = None) -> np.ndarray:
    """Local clustering coefficient ``cc_i = 2 tau_i / (d_i (d_i - 1))``, at
    ``nodes`` as in :func:`triangles_per_node`.

    Nodes with degree < 2 have coefficient 0 by convention.
    """
    triangles = triangles_per_node(graph, nodes).astype(np.float64)
    degrees = graph.degrees().astype(np.float64)
    if nodes is not None:
        degrees = degrees[nodes]
    denominator = degrees * (degrees - 1.0)
    coefficients = np.zeros(triangles.size, dtype=np.float64)
    valid = denominator > 0
    coefficients[valid] = 2.0 * triangles[valid] / denominator[valid]
    return coefficients


def average_degree(graph: Graph) -> float:
    """Mean node degree ``2E / N`` (0 for the empty graph)."""
    if graph.num_nodes == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_nodes


def edge_density(graph: Graph) -> float:
    """Fraction of node pairs that are edges (``theta`` in the paper)."""
    pairs = pair_count(graph.num_nodes)
    if pairs == 0:
        return 0.0
    return graph.num_edges / pairs


def modularity(graph: Graph, communities: Sequence[Sequence[int]]) -> float:
    """Newman modularity of a node partition.

    ``Q = sum_c (e_c / E - (deg_c / 2E)^2)`` where ``e_c`` is the number of
    intra-community edges and ``deg_c`` the total degree of community ``c``.

    Raises if ``communities`` is not a partition of the node set.
    """
    n = graph.num_nodes
    labels = -np.ones(n, dtype=np.int64)
    for community_id, members in enumerate(communities):
        members = np.asarray(list(members), dtype=np.int64)
        if members.size and (members.min() < 0 or members.max() >= n):
            raise ValueError("community member out of node range")
        if np.any(labels[members] >= 0):
            raise ValueError("communities overlap")
        labels[members] = community_id
    if np.any(labels < 0):
        raise ValueError("communities do not cover all nodes")
    return modularity_from_labels(graph, labels)


def modularity_from_labels(graph: Graph, labels: np.ndarray) -> float:
    """Newman modularity given a per-node community label array
    (validated by :func:`repro.utils.validation.check_labels`)."""
    labels = check_labels(labels, graph.num_nodes)
    total_edges = graph.num_edges
    if total_edges == 0:
        return 0.0
    rows, cols = graph.edge_arrays()
    intra = np.bincount(
        labels[rows][labels[rows] == labels[cols]], minlength=labels.max() + 1
    ).astype(np.float64)
    community_degrees = np.bincount(
        labels, weights=graph.degrees().astype(np.float64), minlength=labels.max() + 1
    )
    return float(np.sum(intra / total_edges - (community_degrees / (2.0 * total_edges)) ** 2))
