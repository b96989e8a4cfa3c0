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
  or ``O(n^2/8)``.

Why this is possible: the codes are sorted in upper-triangle row-major
order, so the edges whose *lower* endpoint falls in a row range occupy one
contiguous code slice (two ``searchsorted`` probes); the edges whose
*upper* endpoint falls in the range are served from a column-sorted
permutation built once per sweep.  A row block therefore costs
``O(E_block)`` — no pass over the full matrix ever happens.

Dispatch: :func:`should_stream` is true for graphs dense enough for packed
counting whose packed form exceeds ``REPRO_DENSE_MAX_BYTES`` —
:func:`repro.graph.metrics.triangles_per_node` routes those here instead of
falling back to the sparse matmul (whose ``A @ A`` intermediate explodes on
near-dense million-node graphs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.graph.bitmatrix import (
    _CHUNK_WORDS,
    _row_popcounts,
    accumulate_bits,
    density_threshold,
    max_packed_bytes,
    packed_bytes,
)
from repro.utils.sparse import decode_pairs, pair_count

#: Default edge-chunk size of the chunk-accumulated estimators (codes per
#: decode pass; 4M codes ~ 96 MB of transients).
DEFAULT_CHUNK_EDGES = 1 << 22


def should_stream(graph) -> bool:
    """Whether dense-friendly metrics on ``graph`` must stream row blocks.

    True for graphs that *would* dispatch to the packed backend on density
    grounds but whose full packed matrix exceeds ``REPRO_DENSE_MAX_BYTES``.
    The streaming path computes the same exact integers, so — like
    :func:`~repro.graph.bitmatrix.should_use_packed` — this predicate only
    affects speed and peak memory, never results.
    """
    n = graph.num_nodes
    if n < 3:
        return False
    if packed_bytes(n) <= max_packed_bytes():
        return False
    return graph.num_edges / pair_count(n) >= density_threshold()


def rows_per_block(num_nodes: int, max_bytes: int | None = None) -> int:
    """Rows of an ``num_nodes``-wide packed matrix that fit ``max_bytes``.

    Defaults to ``REPRO_DENSE_MAX_BYTES`` — one block is never bigger than
    the cap the dense backend honours.  Always at least 1: a single packed
    row (``ceil(n/64)`` words) is the granularity floor of the format.
    """
    if max_bytes is None:
        max_bytes = max_packed_bytes()
    row_bytes = packed_bytes(num_nodes) // max(1, num_nodes)
    return max(1, int(max_bytes) // max(1, row_bytes))


class RowBlockBuilder:
    """Builds packed row-range blocks of one graph from its sorted codes.

    The constructor decodes the codes once and prepares a column-sorted
    permutation (one ``O(E log E)`` argsort); every :meth:`build` then costs
    ``O(E_block)``.  Total extra memory is four E-length int64 arrays —
    proportional to the *sparse* size of the graph, never to ``n^2``.
    """

    __slots__ = ("num_nodes", "num_words", "_rows", "_cols", "_cols_sorted", "_rows_by_col")

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
        order = np.argsort(cols, kind="stable")
        self._cols_sorted = cols[order]
        self._rows_by_col = rows[order]

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
        # row-sorted arrays.  Bits with the *upper* endpoint in range: a
        # contiguous slice of the column-sorted permutation.
        lo = np.searchsorted(self._rows, start, side="left")
        hi = np.searchsorted(self._rows, stop, side="left")
        clo = np.searchsorted(self._cols_sorted, start, side="left")
        chi = np.searchsorted(self._cols_sorted, stop, side="left")
        local = np.concatenate([self._rows[lo:hi], self._cols_sorted[clo:chi]]) - start
        bits = np.concatenate([self._cols[lo:hi], self._rows_by_col[clo:chi]])
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
    ``REPRO_DENSE_MAX_BYTES`` (``max_bytes`` overrides the cap).
    """
    n = graph.num_nodes
    if block_rows is None:
        block_rows = rows_per_block(n, max_bytes)
    block_rows = int(block_rows)
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    builder = RowBlockBuilder.from_graph(graph)
    for start in range(0, n, block_rows):
        stop = min(n, start + block_rows)
        yield start, stop, builder.build(start, stop)


@dataclass(frozen=True)
class ChunkedRowsHandle:
    """Picklable reference to a graph's packed rows, chunked across segments.

    ``boundaries`` has one entry per chunk plus a trailing ``num_nodes``:
    chunk ``i`` holds packed rows ``[boundaries[i], boundaries[i + 1])`` in
    the shared-memory segment ``segment_names[i]``.  Workers attach exactly
    the chunks whose row ranges they process — never the whole matrix.
    """

    num_nodes: int
    boundaries: Tuple[int, ...]
    segment_names: Tuple[str, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.segment_names)

    def chunk_for_row(self, row: int) -> int:
        """Index of the chunk holding packed row ``row``."""
        if not 0 <= row < self.num_nodes:
            raise ValueError(f"row {row} out of [0, {self.num_nodes})")
        return int(np.searchsorted(self.boundaries, row, side="right")) - 1


def share_packed_row_blocks(
    graph,
    *,
    block_rows: int | None = None,
    max_bytes: int | None = None,
) -> Tuple[ChunkedRowsHandle, List[object]]:
    """Export a graph's packed rows as one shared-memory segment per block.

    Blocks are built with :func:`iter_packed_row_blocks` (so each segment
    honours ``REPRO_DENSE_MAX_BYTES`` by default and the full ``n^2/8``
    matrix is never resident: one block is live at a time while exporting).
    Returns the picklable handle plus the created ``SharedMemory`` segments,
    whose lifecycle the caller owns — :class:`repro.engine.graph_store
    .GraphStore` adopts them and unlinks on close.
    """
    from multiprocessing import shared_memory

    n = graph.num_nodes
    boundaries: List[int] = [0]
    names: List[str] = []
    segments: List[object] = []
    try:
        for start, stop, rows in iter_packed_row_blocks(
            graph, block_rows, max_bytes=max_bytes
        ):
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, rows.nbytes)
            )
            if rows.size:
                np.ndarray(rows.shape, dtype=np.uint64, buffer=segment.buf)[:] = rows
            boundaries.append(stop)
            names.append(segment.name)
            segments.append(segment)
    except BaseException:
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except OSError:  # pragma: no cover - cleanup best effort
                pass
        raise
    if not names:  # n == 0: a handle with no chunks
        boundaries = [0, 0]
        empty = shared_memory.SharedMemory(create=True, size=1)
        names.append(empty.name)
        segments.append(empty)
    return (
        ChunkedRowsHandle(n, tuple(boundaries), tuple(names)),
        segments,
    )


def attach_packed_row_block(
    handle: ChunkedRowsHandle, chunk: int
) -> Tuple[int, int, np.ndarray, object]:
    """Map one exported chunk read-only; returns ``(start, stop, rows, shm)``.

    Zero-copy: ``rows`` is a ``(stop - start, ceil(n/64))`` uint64 view of
    the shared segment.  The caller must keep ``shm`` alive as long as the
    view and close (never unlink) it afterwards — the exporting store owns
    the unlink.
    """
    from repro.graph.adjacency import attach_shared_memory

    if not 0 <= chunk < handle.num_chunks:
        raise ValueError(f"chunk {chunk} out of [0, {handle.num_chunks})")
    start = handle.boundaries[chunk]
    stop = handle.boundaries[chunk + 1]
    words = (handle.num_nodes + 63) >> 6
    segment = attach_shared_memory(handle.segment_names[chunk])
    rows = np.frombuffer(
        segment.buf, dtype=np.uint64, count=(stop - start) * words
    ).reshape(stop - start, words)
    rows.flags.writeable = False
    return start, stop, rows, segment


def streaming_degrees(graph, chunk_edges: int | None = None) -> np.ndarray:
    """Exact degrees with O(``chunk_edges``) transients.

    Equals ``graph.degrees()`` bit for bit (the same bincounts over the same
    decoded endpoints, accumulated chunk by chunk in exact int64).
    """
    n = graph.num_nodes
    if chunk_edges is None:
        chunk_edges = DEFAULT_CHUNK_EDGES
    if chunk_edges < 1:
        raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
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

    Same integers as both branches of
    :func:`repro.protocols.estimators.observed_intra_community_edges` —
    a same-label bincount over the edges, accumulated per chunk.
    """
    n = graph.num_nodes
    labels = np.asarray(labels, dtype=np.int64)
    if chunk_edges is None:
        chunk_edges = DEFAULT_CHUNK_EDGES
    if chunk_edges < 1:
        raise ValueError(f"chunk_edges must be >= 1, got {chunk_edges}")
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
    halved at the end — with ``row_u`` and ``row_v`` served from two live
    row blocks instead of a resident matrix.  The default block height is
    *half* of :func:`rows_per_block` so the pair of live blocks together
    honours ``REPRO_DENSE_MAX_BYTES``.  Identical integers to the in-memory
    backends: the same popcounts accumulate onto the same endpoints.

    Cost: ``O((n / block_rows)^2)`` block builds of ``O(E_block)`` each plus
    the same AND+popcount volume as the dense sweep — the price of never
    holding the matrix.
    """
    n = graph.num_nodes
    counts = np.zeros(n, dtype=np.int64)
    if n == 0 or graph.num_edges == 0:
        return counts
    if block_rows is None:
        block_rows = max(1, rows_per_block(n, max_bytes) // 2)
    block_rows = int(block_rows)
    if block_rows < 1:
        raise ValueError(f"block_rows must be >= 1, got {block_rows}")
    builder = RowBlockBuilder.from_graph(graph)
    edge_rows = builder._rows
    edge_cols = builder._cols
    words = builder.num_words
    chunk = max(1, _CHUNK_WORDS // max(1, words))
    for a_start in range(0, n, block_rows):
        a_stop = min(n, a_start + block_rows)
        # Edges with the lower endpoint in block A: one contiguous slice.
        lo = np.searchsorted(edge_rows, a_start, side="left")
        hi = np.searchsorted(edge_rows, a_stop, side="left")
        if lo == hi:
            continue
        block_a = builder.build(a_start, a_stop)
        slice_u = edge_rows[lo:hi]
        slice_v = edge_cols[lo:hi]
        # The upper endpoint v > u can only live in block A or later ones.
        for b_start in range(a_start, n, block_rows):
            b_stop = min(n, b_start + block_rows)
            selected = np.flatnonzero((slice_v >= b_start) & (slice_v < b_stop))
            if selected.size == 0:
                continue
            block_b = (
                block_a
                if b_start == a_start
                else builder.build(b_start, b_stop)
            )
            for start in range(0, selected.size, chunk):
                pick = selected[start : start + chunk]
                us = slice_u[pick]
                vs = slice_v[pick]
                pops = _row_popcounts(
                    block_a[us - a_start] & block_b[vs - b_start]
                ).astype(np.float64)
                counts += np.bincount(us, weights=pops, minlength=n).astype(np.int64)
                counts += np.bincount(vs, weights=pops, minlength=n).astype(np.int64)
    return counts // 2
