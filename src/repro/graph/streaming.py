"""Out-of-core row-block views and chunk-accumulated estimators.

The bit-packed backend (:mod:`repro.graph.bitmatrix`) materializes the full
``n x ceil(n/64)`` adjacency matrix — ``n^2/8`` bytes, which at a million
nodes is ~125 GB and far beyond ``REPRO_DENSE_MAX_BYTES``.  This module keeps
the *sorted pair codes* as the only full-graph representation (the
irreducible O(E) form every :class:`~repro.graph.adjacency.Graph` already
holds) and serves the packed form in **row-range blocks** built on demand:

* :func:`iter_packed_row_blocks` — packed uint64 row blocks of any graph,
  block height sized so one block honours ``REPRO_DENSE_MAX_BYTES``.  Each
  block is bit-identical to the corresponding row slice of
  ``BitMatrix.from_graph(graph).rows``, for every block height — assembling
  the blocks reproduces the in-memory matrix exactly.
* chunk-accumulated estimators (:func:`streaming_degrees`,
  :func:`streaming_triangles_per_node`,
  :func:`streaming_intra_community_edges`) whose results equal the dense /
  sparse backends bit for bit (all three count the same exact integers),
  with peak transient memory bounded by the chunk size instead of ``O(E)``
  or ``O(n^2/8)``.  The triangle sweep pairs row blocks and counts each
  pair with :func:`repro.graph.bitmatrix.pair_popcounts`, the popcount
  kernel of the in-memory backends.

Why this is possible: the codes are sorted in upper-triangle row-major
order, so the edges whose *lower* endpoint falls in a row range occupy one
contiguous code slice (two ``searchsorted`` probes); the edges whose
*upper* endpoint falls in the range occupy one contiguous slice of the
*transposed* codes ``col * n + row``, sorted once per sweep.  A row block
therefore costs ``O(E_block)`` — no pass over the full matrix ever happens.

Dispatch: :func:`repro.graph.bitmatrix.triangle_backend` is ``"stream"``
for graphs whose packed sweep beats the sparse matmul but whose packing
exceeds ``REPRO_DENSE_MAX_BYTES`` — :func:`repro.graph.metrics.triangles_per_node`
routes those here instead of to the sparse matmul (whose ``A @ A``
intermediate explodes on near-dense million-node graphs).  Intra-community
edge counts always take :func:`streaming_intra_community_edges`, the one
implementation for unpacked graphs.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.graph.bitmatrix import (
    accumulate_bits,
    endpoint_sums,
    max_packed_bytes,
    packed_bytes,
    pair_popcounts,
)
from repro.utils.sparse import decode_pairs
from repro.utils.validation import check_labels, check_positive_int

#: Default edge-chunk size of the chunk-accumulated estimators (codes per
#: decode pass; 4M codes ~ 96 MB of transients).
DEFAULT_CHUNK_EDGES = 1 << 22


def rows_per_block(num_nodes: int, max_bytes: int | None = None) -> int:
    """Rows of an ``num_nodes``-wide packed matrix that fit ``max_bytes``.

    Defaults to ``REPRO_DENSE_MAX_BYTES`` — one block is never bigger than
    the cap the dense backend honours.  Always at least 1: a single packed
    row (``ceil(n/64)`` words) is the granularity floor of the format.
    ``max_bytes`` must be a positive integer.
    """
    if max_bytes is None:
        max_bytes = max_packed_bytes()
    max_bytes = check_positive_int(max_bytes, "max_bytes")
    row_bytes = packed_bytes(num_nodes) // max(1, num_nodes)
    return max(1, max_bytes // max(1, row_bytes))


def block_height(
    num_nodes: int, block_rows: int | None = None, max_bytes: int | None = None
) -> int:
    """The validated row-block height: ``block_rows`` when given, else
    :func:`rows_per_block` of ``max_bytes``.

    Both must be positive integers when given — a float height or byte cap
    is a caller bug to name, not a value to truncate — and are checked
    before any block is built.
    """
    if max_bytes is not None:
        check_positive_int(max_bytes, "max_bytes")
    if block_rows is None:
        return rows_per_block(num_nodes, max_bytes)
    return check_positive_int(block_rows, "block_rows")


class RowBlockBuilder:
    """Builds packed row-range blocks of one graph from its sorted codes.

    The constructor decodes the codes once into ``rows``/``cols`` (row-major
    order, so ``rows`` is sorted) and sorts the *transposed* codes
    ``cols * n + rows`` in place — one SIMD ``np.sort`` of unique int64
    keys, no permutation array.  Within one column the keys ascend by row,
    which is exactly the order a stable column sort of the edges gives, so
    a decoded key slice is the column-sorted view of those edges.  The keys
    stay below ``n^2``, which fits int64 for every ``n < 3 * 10^9``
    (``n^2 < 2^63``).

    Every :meth:`build` then costs ``O(E_block)``.  Total extra memory is
    three E-length int64 arrays (rows, cols, sorted keys) — proportional to
    the *sparse* size of the graph, never to ``n^2``.
    """

    __slots__ = ("num_nodes", "num_words", "_rows", "_cols", "_col_keys")

    def __init__(self, num_nodes: int, codes: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.num_words = (self.num_nodes + 63) >> 6
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size:
            rows, cols = decode_pairs(codes, self.num_nodes)
        else:
            rows = cols = np.empty(0, dtype=np.int64)
        # Sorted codes decode to lex-sorted (row, col) pairs, so ``rows`` is
        # sorted: the row half of any block is two searchsorted probes.
        self._rows = rows
        self._cols = cols
        keys = cols * self.num_nodes
        keys += rows
        keys.sort()
        self._col_keys = keys

    @classmethod
    def from_graph(cls, graph) -> "RowBlockBuilder":
        return cls(graph.num_nodes, graph.edge_codes)

    def build(self, start: int, stop: int) -> np.ndarray:
        """Packed rows ``[start, stop)`` — bit-identical to the same slice of
        ``BitMatrix.from_graph(graph).rows``."""
        if not 0 <= start <= stop <= self.num_nodes:
            raise ValueError(
                f"row range [{start}, {stop}) out of [0, {self.num_nodes}]"
            )
        height = stop - start
        words = self.num_words
        if height == 0 or words == 0:
            return np.zeros((height, words), dtype=np.uint64)
        # Bits with the *lower* endpoint in range: contiguous slice of the
        # row-sorted arrays.  Bits with the *upper* endpoint in range: the
        # transposed keys of columns [start, stop), decoded per block.
        n = self.num_nodes
        lo = np.searchsorted(self._rows, start, side="left")
        hi = np.searchsorted(self._rows, stop, side="left")
        klo = np.searchsorted(self._col_keys, start * n, side="left")
        khi = np.searchsorted(self._col_keys, stop * n, side="left")
        upper, lower = np.divmod(self._col_keys[klo:khi], n)
        local = np.concatenate([self._rows[lo:hi], upper]) - start
        bits = np.concatenate([self._cols[lo:hi], lower])
        if local.size == 0:
            return np.zeros((height, words), dtype=np.uint64)
        # Every (row, bit) position is unique (simple graph; the two halves
        # land on different positions), so the split-bincount OR is exact.
        flat = local * words + (bits >> 6)
        block = accumulate_bits(flat, bits & 63, height * words)
        return block.reshape(height, words)


def iter_packed_row_blocks(
    graph,
    block_rows: int | None = None,
    *,
    max_bytes: int | None = None,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, rows)`` packed row blocks of ``graph``.

    ``rows`` is a ``(stop - start, ceil(n/64))`` uint64 array equal to the
    same slice of the in-memory ``BitMatrix`` — for every ``block_rows``,
    including 1 and ``> n`` — so downstream consumers are chunk-size
    invariant by construction.  The default block height honours
    ``REPRO_DENSE_MAX_BYTES`` (``max_bytes`` overrides the cap); both are
    validated by :func:`block_height` in this call, before iteration.
    """
    height = block_height(graph.num_nodes, block_rows, max_bytes)
    return _row_blocks(graph, height)


def _row_blocks(graph, height: int) -> Iterator[Tuple[int, int, np.ndarray]]:
    n = graph.num_nodes
    builder = RowBlockBuilder.from_graph(graph)
    for start in range(0, n, height):
        stop = min(n, start + height)
        yield start, stop, builder.build(start, stop)


def streaming_degrees(graph, chunk_edges: int | None = None) -> np.ndarray:
    """Exact degrees with O(``chunk_edges``) transients.

    Equals ``graph.degrees()`` bit for bit (the same bincounts over the same
    decoded endpoints, accumulated chunk by chunk in exact int64).
    ``chunk_edges`` must be a positive integer.
    """
    n = graph.num_nodes
    if chunk_edges is None:
        chunk_edges = DEFAULT_CHUNK_EDGES
    chunk_edges = check_positive_int(chunk_edges, "chunk_edges")
    counts = np.zeros(n, dtype=np.int64)
    codes = graph.edge_codes
    for start in range(0, codes.size, chunk_edges):
        rows, cols = decode_pairs(codes[start : start + chunk_edges], n)
        counts += np.bincount(rows, minlength=n)
        counts += np.bincount(cols, minlength=n)
    return counts


def streaming_intra_community_edges(
    graph,
    labels: np.ndarray,
    num_communities: int,
    chunk_edges: int | None = None,
) -> np.ndarray:
    """Exact per-community intra-edge counts with O(``chunk_edges``) transients.

    A same-label bincount over the edges, accumulated per chunk — the one
    intra-community counter of unpacked graphs (the modularity estimator and
    a paired run's cached plane counts).  ``labels`` must hold one non-negative integer
    community id per node (:func:`repro.utils.validation.check_labels`).
    """
    n = graph.num_nodes
    labels = check_labels(labels, n)
    if chunk_edges is None:
        chunk_edges = DEFAULT_CHUNK_EDGES
    chunk_edges = check_positive_int(chunk_edges, "chunk_edges")
    counts = np.zeros(num_communities, dtype=np.int64)
    codes = graph.edge_codes
    for start in range(0, codes.size, chunk_edges):
        rows, cols = decode_pairs(codes[start : start + chunk_edges], n)
        row_labels = labels[rows]
        same = row_labels == labels[cols]
        counts += np.bincount(row_labels[same], minlength=num_communities)
    return counts


def streaming_triangles_per_node(
    graph,
    block_rows: int | None = None,
    *,
    max_bytes: int | None = None,
) -> np.ndarray:
    """Exact per-node triangle counts over packed row blocks.

    The edge-gather formulation of
    :meth:`~repro.graph.bitmatrix.BitMatrix.triangles_per_node` — every edge
    ``{u, v}`` contributes ``popcount(row_u & row_v)`` to both endpoints,
    halved at the end — with ``row_u`` and ``row_v`` served from two row
    blocks instead of a resident matrix.  For each block pair (A, B) holding
    ``u`` and ``v`` the counts come from one
    :func:`~repro.graph.bitmatrix.pair_popcounts` sweep over the transposed
    blocks, the kernel of the in-memory backends: a sweep with one block
    covering every row is exactly their full sweep.  Identical integers to
    the in-memory backends: the same popcounts accumulate onto the same
    endpoints.

    Memory promise: three blocks are live at once — A's transposed copy, B
    as built and B's transposed copy — so the default block height gives
    each a third of ``REPRO_DENSE_MAX_BYTES`` (``max_bytes`` overrides the
    cap) and the three together honour it.

    Cost: ``O((n / block_rows)^2)`` block builds of ``O(E_block)`` each plus
    the same AND+popcount volume as the dense sweep — the price of never
    holding the matrix.
    """
    n = graph.num_nodes
    if block_rows is None:
        cap = max_packed_bytes() if max_bytes is None else max_bytes
        block_rows = rows_per_block(n, max(1, check_positive_int(cap, "max_bytes") // 3))
    block_rows = block_height(n, block_rows, max_bytes)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0 or graph.num_edges == 0:
        return counts
    builder = RowBlockBuilder.from_graph(graph)
    edge_rows = builder._rows
    edge_cols = builder._cols
    for a_start in range(0, n, block_rows):
        a_stop = min(n, a_start + block_rows)
        # Edges with the lower endpoint in block A: one contiguous slice.
        lo = np.searchsorted(edge_rows, a_start, side="left")
        hi = np.searchsorted(edge_rows, a_stop, side="left")
        if lo == hi:
            continue
        columns_a = np.ascontiguousarray(builder.build(a_start, a_stop).T)
        slice_u = edge_rows[lo:hi]
        slice_v = edge_cols[lo:hi]
        local_u = slice_u - a_start
        pops = np.zeros(hi - lo, dtype=np.int64)
        # The upper endpoint v > u can only live in block A or later ones.
        for b_start in range(a_start, n, block_rows):
            b_stop = min(n, b_start + block_rows)
            selected = np.flatnonzero((slice_v >= b_start) & (slice_v < b_stop))
            if selected.size == 0:
                continue
            columns_b = (
                columns_a
                if b_start == a_start
                else np.ascontiguousarray(builder.build(b_start, b_stop).T)
            )
            pops[selected] = pair_popcounts(
                columns_a,
                local_u[selected],
                slice_v[selected] - b_start,
                v_columns=columns_b,
            )
        counts += endpoint_sums(slice_u, slice_v, pops, n)
    return counts // 2
