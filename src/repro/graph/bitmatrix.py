"""Bit-packed dense adjacency backend for near-dense perturbed graphs.

Randomized response at the paper's epsilon range flips 10-50% of all node
pairs, so every perturbed graph the estimators consume is effectively *dense*
— yet the estimation stack was built for sparse graphs: per-node triangle
counts via ``diag(A @ A @ A)`` on a scipy CSR matrix cost
``O(sum_i d_i^2) = O(theta^2 n^3)`` multiply-adds plus index churn.

:class:`BitMatrix` packs each adjacency row into uint64 words (64 pairs per
word).  Triangle counts become row-AND + popcount over a node's neighbour
rows — ``O(2 E n / 64) <= O(n^3 / 64)`` word operations — and degrees and
edge counts are plain popcounts.  Every quantity is an exact integer, so the
packed path is **bit-identical** to the sparse path: dispatching between
them (:func:`triangle_backend`) never changes a result, which keeps every
engine cache entry valid.

Two kernels carry the in-memory packed layer:

* :func:`pack_symmetric_plane` — scatter both orientations of every edge
  as bytes into an ``n x 64 ceil(n/64)`` scratch and fold it with
  :func:`np.packbits`; the edges come straight from a graph's sorted pair
  codes (:func:`repro.utils.sparse.decode_pairs` decodes them by row runs).
* :func:`pair_popcounts` — ``popcount(row_u & row_v)`` (optionally also
  ``& mask``) for a list of pairs, one buffered column-major sweep; the
  full triangle count, the count at target nodes, the incremental
  :meth:`BitMatrix.triangles_touching` and the out-of-core block-pair sweep
  (:func:`repro.graph.streaming.streaming_triangles_per_node`, whose ``u``
  and ``v`` rows live in two different blocks) are a ``bincount`` over its
  output.

Dispatch: :func:`triangle_backend` picks ``"packed"``, ``"sparse"`` or
``"stream"`` for a graph from its own ``E``, ``n`` and ``sum_i d_i^2`` (a
cost model fit on ``benchmarks/bench_triangles.py``); packed-cheaper graphs
whose packing would overflow ``REPRO_DENSE_MAX_BYTES`` (default 1 GiB)
stream packed row blocks instead (:mod:`repro.graph.streaming`).
"""

from __future__ import annotations

import math
import os
from typing import Optional

import numpy as np

from repro.telemetry.core import current_tracer
from repro.utils.validation import node_ids

#: Packed-vs-sparse crossover of :func:`triangle_backend`, in packed words
#: per wedge: the packed sweep costs ``E ceil(n/64)`` word operations, the
#: sparse matmul ``sum_i d_i^2`` (the wedge count) multiply-adds.  Fit on the
#: ``benchmarks/bench_triangles.py`` crossover grid, where the measured
#: crossover drifts from about 4 at n = 4,000 to about 6 at n = 20,000.
PACKED_WORDS_PER_WEDGE = 4

#: Default cap on packing memory (see :func:`packing_bytes`): 1 GiB packs
#: graphs of up to 30,875 nodes in memory.
DEFAULT_MAX_PACKED_BYTES = 1 << 30

#: Environment variable overriding :data:`DEFAULT_MAX_PACKED_BYTES`.
MAX_PACKED_BYTES_ENV = "REPRO_DENSE_MAX_BYTES"


def max_packed_bytes() -> int:
    """The packing memory cap in bytes (env-overridable); raises
    :class:`ValueError` unless ``REPRO_DENSE_MAX_BYTES`` is a positive integer."""
    raw = os.environ.get(MAX_PACKED_BYTES_ENV, str(DEFAULT_MAX_PACKED_BYTES))
    if not raw.strip().isdigit() or int(raw) < 1:
        raise ValueError(f"{MAX_PACKED_BYTES_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def packed_bytes(num_nodes: int) -> int:
    """Bytes of one packed ``n x ceil(n/64)`` uint64 matrix (plane).

    Rows are padded to whole words, so this exceeds ``n * n // 8`` whenever
    ``n`` is not a multiple of 64.
    """
    n = int(num_nodes)
    return n * (((n + 63) >> 6) << 3)


def packing_bytes(num_nodes: int) -> int:
    """Peak bytes of packing one matrix: the packed plane plus the
    ``n x 64 ceil(n/64)`` byte scratch :func:`pack_symmetric_plane` zeroes
    — the size every memory-cap check must compare against."""
    n = int(num_nodes)
    return packed_bytes(n) + n * (((n + 63) >> 6) << 6)


def triangle_backend(graph) -> str:
    """The triangle backend for ``graph``: ``"packed"``, ``"sparse"`` or
    ``"stream"``.

    Packed when its word sweep is the cheaper one,
    ``E ceil(n/64) <= PACKED_WORDS_PER_WEDGE * sum_i d_i^2``.  Since
    ``sum_i d_i^2 >= (2E)^2 / n``, a graph that already passes on that bound
    is packed without reading its degrees — the dense perturbed planes of a
    paired batch, whose degrees are not computed yet.  A packed-cheaper
    graph whose :func:`packing_bytes` exceed the cap streams packed row
    blocks instead; ``n < 3`` or no edges is sparse.  The choice is counted
    as ``backend.<choice>`` on the current tracer.  All three backends count
    the same exact integers, so it only affects speed and memory.
    """
    n = graph.num_nodes
    edges = graph.num_edges
    backend = "sparse"
    if n >= 3 and edges:
        words = edges * ((n + 63) >> 6)
        cheaper = words * n <= PACKED_WORDS_PER_WEDGE * 4 * edges * edges
        if not cheaper:
            degrees = graph.degrees().astype(np.float64)
            cheaper = words <= PACKED_WORDS_PER_WEDGE * float(degrees @ degrees)
        if cheaper:
            backend = "packed" if packing_bytes(n) <= max_packed_bytes() else "stream"
    current_tracer().counter(f"backend.{backend}")
    return backend


def should_use_packed(graph) -> bool:
    """Whether ``graph``'s triangles are counted on the in-memory packed
    backend (:func:`triangle_backend` is ``"packed"``)."""
    return triangle_backend(graph) == "packed"


def node_set(nodes, num_nodes: int, name: str = "nodes") -> np.ndarray:
    """``nodes`` as sorted distinct int64 ids (:func:`node_ids`)."""
    return np.unique(node_ids(nodes, num_nodes, name))


_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
#: Per-byte popcount table for numpy < 2.0 (no ``np.bitwise_count``).
_BYTE_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

#: Word budget (32 MiB) for the transient unpack and gather/AND buffers of
#: the row-block passes, keeping peak memory bounded regardless of degree.
_CHUNK_WORDS = 1 << 22


#: Byte budget (256 KiB) of the per-word count buffer :func:`_row_popcounts`
#: reuses across row chunks — small enough to stay in cache between the
#: count and the row sums.
_POPCOUNT_CHUNK_BYTES = 1 << 18


def _row_popcounts(words: np.ndarray) -> np.ndarray:
    """Total set bits along the last axis of a uint64 array.

    Counts rows in chunks into one reused uint8 buffer (a word holds at
    most 64 bits) and sums each row as uint32, exact while a row holds
    fewer than ``2^32`` bits — instead of materializing an int64-sized
    count per word of the whole array.
    """
    if not _HAVE_BITWISE_COUNT:
        return _BYTE_POPCOUNT[words.view(np.uint8)].sum(axis=-1, dtype=np.int64)
    width = words.shape[-1]
    flat = words.reshape(math.prod(words.shape[:-1]), width)
    counts = np.empty(flat.shape[0], dtype=np.int64)
    chunk = max(1, _POPCOUNT_CHUNK_BYTES // max(1, width))
    buffer = np.empty((min(chunk, flat.shape[0]), width), dtype=np.uint8)
    for start in range(0, flat.shape[0], chunk):
        rows = flat[start : start + chunk]
        counted = np.bitwise_count(rows, out=buffer[: rows.shape[0]])
        counts[start : start + rows.shape[0]] = counted.sum(axis=-1, dtype=np.uint32)
    return counts.reshape(words.shape[:-1])


def _unpack_rows(rows: np.ndarray, num_nodes: int) -> np.ndarray:
    """``(len(rows), n)`` bool view of packed rows: bit ``j`` is word
    ``j >> 6``, position ``j & 63``, read as little-endian on any host."""
    return np.unpackbits(
        rows.astype("<u8", copy=False).view(np.uint8),
        axis=1,
        count=num_nodes,
        bitorder="little",
    ).view(bool)


def accumulate_bits(positions: np.ndarray, bit: np.ndarray, size: int) -> np.ndarray:
    """OR ``1 << bit`` into a zeroed uint64 array of length ``size``.

    Requires every ``(position, bit)`` pair to be unique: then summing the
    per-word bit values is an exact OR, and the sum runs as two buffered
    :func:`np.bincount` passes — far faster than the unbuffered
    ``np.bitwise_or.at`` ufunc for near-dense sets.  bincount accumulates in
    float64, hence the split into two 32-bit halves (every partial sum stays
    < 2^32, exactly representable).

    Sparse sets (set bits ≪ ``size``, the streaming row blocks of barely
    perturbed million-node graphs) skip the bincount: its cost is O(``size``)
    regardless of how few bits are set.  There the bits are grouped by word
    with one argsort and OR-reduced per group — O(k log k) in the k set bits,
    with only the zeroed output ever touching all ``size`` words.
    """
    out = np.zeros(size, dtype=np.uint64)
    if positions.size == 0:
        return out
    if positions.size < size // 8:
        values = np.left_shift(np.uint64(1), bit.astype(np.uint64))
        order = np.argsort(positions, kind="stable")
        grouped = positions[order]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        out[grouped[starts]] = np.bitwise_or.reduceat(values[order], starts)
        return out
    low = bit < 32
    if low.any():
        weights = (1 << bit[low]).astype(np.float64)
        out |= np.bincount(positions[low], weights=weights, minlength=size).astype(
            np.uint64
        )
    high = ~low
    if high.any():
        weights = (1 << (bit[high] - 32)).astype(np.float64)
        out |= np.bincount(positions[high], weights=weights, minlength=size).astype(
            np.uint64
        ) << np.uint64(32)
    return out


def pack_symmetric_plane(
    rows: np.ndarray,
    cols: np.ndarray,
    num_nodes: int,
    out: np.ndarray,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pack the symmetric adjacency of aligned edge arrays into ``out``.

    ``out`` is an ``(n, ceil(n/64))`` uint64 array (a fresh matrix or one
    plane of a stack).  Both orientations of every edge are scattered as 1
    bytes into a zeroed ``n x 64 ceil(n/64)`` uint8 ``scratch``, which
    :func:`np.packbits` (little bit order) folds into 8 bytes per word; the
    bytes are read as little-endian words, so the plane is exact on any host
    byte order.  Duplicate edges merely rewrite a 1, so the result is an
    exact OR.  ``scratch`` may be passed in to be reused across planes; it
    must be all zero on entry and is zero again on return.

    Peak transient memory is the scratch plus the packed bytes
    (:func:`packing_bytes`) and one E-long index array.
    """
    n = int(num_nodes)
    words = (n + 63) >> 6
    if n == 0 or rows.size == 0:
        out[...] = 0
        return out
    width = words << 6
    if scratch is None:
        scratch = np.zeros((n, width), dtype=np.uint8)
    flat = scratch.reshape(-1)
    for high, low in ((rows, cols), (cols, rows)):
        positions = high * width
        positions += low
        flat[positions] = 1
    out[...] = np.packbits(scratch, axis=-1, bitorder="little").view("<u8")
    scratch.fill(0)
    return out


def _word_popcounts(words_1d: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Set bits of each element of a 1-D uint64 array (values <= 64)."""
    if _HAVE_BITWISE_COUNT:
        return np.bitwise_count(words_1d, out=out)
    counts = _BYTE_POPCOUNT[words_1d.view(np.uint8)].reshape(words_1d.size, 8).sum(
        axis=-1, dtype=np.uint8
    )
    if out is None:
        return counts
    out[...] = counts
    return out


#: Pairs per block of :func:`pair_popcounts`: its uint64 working buffers
#: (512 KiB apiece) stay cache-resident across the word loop.
_PAIR_BLOCK = 1 << 16


def pair_popcounts(
    columns: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    mask: Optional[np.ndarray] = None,
    v_columns: Optional[np.ndarray] = None,
):
    """``popcount(row_u & row_v)`` for every pair ``(u[k], v[k])``.

    ``columns`` is the *transposed* packed matrix, ``(words, rows)``
    C-contiguous, so each word step gathers from one contiguous column.
    ``v`` indexes ``v_columns`` instead when given — another transposed
    block with the same word count, so ``row_u`` and ``row_v`` may come
    from two different row blocks.  With ``mask`` (a ``words``-long packed
    node set) the same sweep also returns ``popcount(row_u & row_v & mask)``,
    as a second array.

    The pairs run in blocks of at most :data:`_PAIR_BLOCK` through
    preallocated ``out=`` buffers.  ``u`` is expected grouped into runs of
    equal ids (edge lists sorted by lower endpoint, touched rows in order):
    its side is filled by one ``np.repeat`` of the run heads per word
    instead of a per-pair gather, and ``v`` by an unchecked
    ``np.take(..., mode="clip")``.  Counts accumulate in the narrowest
    unsigned dtype holding ``64 * words``.
    """
    if v_columns is None:
        v_columns = columns
    num_words = columns.shape[0]
    total = u.size
    acc_dtype = np.uint16 if num_words << 6 <= 0xFFFF else np.uint32
    full = np.zeros(total, dtype=acc_dtype)
    masked = np.zeros(total, dtype=acc_dtype) if mask is not None else None
    if total == 0 or num_words == 0:
        return full if mask is None else (full, masked)
    block = min(total, _PAIR_BLOCK)
    anded = np.empty(block, dtype=np.uint64)
    pops = np.empty(block, dtype=np.uint8)
    for start in range(0, total, block):
        block_u = u[start : start + block]
        block_v = v[start : start + block]
        size = block_u.size
        heads = np.flatnonzero(np.r_[True, block_u[1:] != block_u[:-1]])
        head_ids = block_u[heads]
        run_lengths = np.diff(heads, append=size)
        words_v, pop = anded[:size], pops[:size]
        acc_full = full[start : start + size]
        acc_masked = masked[start : start + size] if masked is not None else None
        for word in range(num_words):
            column = columns[word]
            np.take(v_columns[word], block_v, out=words_v, mode="clip")
            np.bitwise_and(np.repeat(column[head_ids], run_lengths), words_v, out=words_v)
            np.add(acc_full, _word_popcounts(words_v, out=pop), out=acc_full)
            if acc_masked is not None:
                np.bitwise_and(words_v, mask[word], out=words_v)
                np.add(acc_masked, _word_popcounts(words_v, out=pop), out=acc_masked)
    return full if mask is None else (full, masked)


def common_neighbor_counts(
    rows: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    num_nodes: int,
    v_rows: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per node, the number of pairs ``(u[k], v[k])`` it is a common
    neighbour of: column sums of ``rows[u[k]] & v_rows[v[k]]`` (packed row
    blocks, ``v_rows`` defaulting to ``rows``), unpacked in bounded blocks."""
    v_rows = rows if v_rows is None else v_rows
    n = int(num_nodes)
    counts = np.zeros(n, dtype=np.int64)
    block = max(1, _CHUNK_WORDS // max(1, n))
    for start in range(0, u.size, block):
        anded = rows[u[start : start + block]] & v_rows[v[start : start + block]]
        counts += _unpack_rows(anded, n).sum(axis=0, dtype=np.int64)
    return counts


def _gather_triangles(
    flat_rows: np.ndarray,
    edge_rows: np.ndarray,
    edge_cols: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """Per-node triangle counts from one edge-gather/AND/popcount sweep.

    ``flat_rows`` is a ``(rows, words)`` packed matrix and the edge arrays
    index into its first axis.  Each edge contributes
    ``popcount(row_u & row_v)`` — its common-neighbour count — to both
    endpoints; every incident triangle of a node is hit exactly twice, once
    per far endpoint of its opposite edge, so a halving yields exact counts.

    The per-edge counts come from :func:`pair_popcounts` over a transposed
    copy of the matrix and :func:`endpoint_sums` spreads them onto the
    endpoints — the one-block-pair case of
    :func:`repro.graph.streaming.streaming_triangles_per_node`.
    """
    if edge_rows.size == 0:
        return np.zeros(num_nodes, dtype=np.int64)
    columns = np.ascontiguousarray(flat_rows.T)
    pops = pair_popcounts(columns, edge_rows, edge_cols)
    return endpoint_sums(edge_rows, edge_cols, pops, num_nodes) // 2


def endpoint_sums(
    edge_rows: np.ndarray, edge_cols: np.ndarray, pops: np.ndarray, num_nodes: int
) -> np.ndarray:
    """Per-node sum of ``pops[k]`` over the edges ``k`` incident to it.

    Two ``bincount`` passes with float64 weights — exact, every sum is far
    below 2^53 — spread each edge's count onto both of its endpoints.
    """
    weights = pops.astype(np.float64)
    counts = np.bincount(edge_rows, weights=weights, minlength=num_nodes).astype(np.int64)
    counts += np.bincount(edge_cols, weights=weights, minlength=num_nodes).astype(np.int64)
    return counts


class BitMatrix:
    """Symmetric 0/1 adjacency matrix with rows packed into uint64 words.

    Bit ``j`` of row ``i`` (word ``j >> 6``, position ``j & 63``) is 1 iff
    the undirected edge ``{i, j}`` exists.  The diagonal is always 0.

    >>> from repro.graph.adjacency import Graph
    >>> bm = BitMatrix.from_graph(Graph(4, [(0, 1), (1, 2), (2, 0)]))
    >>> bm.degrees().tolist()
    [2, 2, 2, 0]
    >>> bm.triangles_per_node().tolist()
    [1, 1, 1, 0]
    """

    __slots__ = ("num_nodes", "num_words", "rows")

    def __init__(self, num_nodes: int, rows: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.num_words = (self.num_nodes + 63) >> 6
        if rows.shape != (self.num_nodes, self.num_words):
            raise ValueError(
                f"packed rows have shape {rows.shape}, expected "
                f"({self.num_nodes}, {self.num_words})"
            )
        self.rows = rows

    @classmethod
    def from_graph(cls, graph) -> "BitMatrix":
        """Pack a :class:`repro.graph.Graph` (O(E) plus the matrix zeroing)."""
        rows, cols = graph.edge_arrays()
        return cls.from_edge_arrays(graph.num_nodes, rows, cols)

    @classmethod
    def from_edge_arrays(cls, num_nodes: int, rows: np.ndarray, cols: np.ndarray) -> "BitMatrix":
        """Pack aligned edge arrays (self-loop-free) via
        :func:`pack_symmetric_plane`."""
        n = int(num_nodes)
        matrix = np.empty((n, (n + 63) >> 6), dtype=np.uint64)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        return cls(n, pack_symmetric_plane(rows, cols, n, matrix))

    # ------------------------------------------------------------------
    # Exact integer counts
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Degree of every node (row popcounts)."""
        return _row_popcounts(self.rows)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return int(self.degrees().sum()) // 2

    def edge_endpoints(self) -> tuple:
        """Edges as aligned ``(rows, cols)`` arrays with ``rows < cols``.

        Decoded from the packed bits in row blocks (:func:`_unpack_rows`),
        so callers that do not already hold the edge list can still drive
        the edge-gather kernels.
        """
        n = self.num_nodes
        empty = np.empty(0, dtype=np.int64)
        if n == 0:
            return empty, empty
        block = max(1, _CHUNK_WORDS // n)
        us, vs = [], []
        for start in range(0, n, block):
            stop = min(n, start + block)
            block_rows, block_cols = np.nonzero(_unpack_rows(self.rows[start:stop], n))
            keep = block_cols > block_rows + start
            us.append(block_rows[keep] + start)
            vs.append(block_cols[keep])
        if not us:
            return empty, empty
        return np.concatenate(us), np.concatenate(vs)

    def triangles_per_node(
        self, edges: tuple | None = None, nodes: np.ndarray | None = None
    ) -> np.ndarray:
        """Number of triangles incident to each node, or to each of ``nodes``.

        Edge-gather formulation: for every edge ``{u, v}``,
        ``popcount(row_u & row_v)`` is the number of common neighbours —
        triangles through that edge — and accumulating it onto both
        endpoints counts each node's incident triangles exactly twice
        (once per far endpoint of the opposite edge), so a halving yields
        the exact count in ``O(E ceil(n/64))`` word operations with no
        per-node Python loop.  ``edges`` lets callers that already hold the
        decoded ``(rows, cols)`` arrays skip re-extracting them from the
        packed bits.

        ``nodes`` (ids in any order, repeats kept) returns the counts at
        ``nodes`` from their rows alone, ``tau_t = 1/2 sum_{j in N(t)}
        popcount(row_t & row_j)``: one :func:`pair_popcounts` sweep over the
        (target, neighbour) pairs of each block of target rows.
        """
        n = self.num_nodes
        if nodes is not None:
            nodes = node_ids(nodes, n)
            counts = np.zeros(nodes.size, dtype=np.int64)
            columns = np.ascontiguousarray(self.rows.T)
            block = max(1, _CHUNK_WORDS // max(1, n))
            for start in range(0, nodes.size, block):
                ids = nodes[start : start + block]
                local, neighbors = np.divmod(np.flatnonzero(_unpack_rows(self.rows[ids], n)), n)
                pops = pair_popcounts(columns, ids[local], neighbors)
                counts[start : start + ids.size] = np.bincount(
                    local, weights=pops, minlength=ids.size
                ).astype(np.int64) // 2
            return counts
        if n == 0:
            return np.zeros(n, dtype=np.int64)
        if edges is None:
            edge_rows, edge_cols = self.edge_endpoints()
        else:
            edge_rows = np.asarray(edges[0], dtype=np.int64)
            edge_cols = np.asarray(edges[1], dtype=np.int64)
        return _gather_triangles(self.rows, edge_rows, edge_cols, n)

    def with_edits(
        self,
        add_rows: np.ndarray,
        add_cols: np.ndarray,
        drop_rows: np.ndarray,
        drop_cols: np.ndarray,
    ) -> "BitMatrix":
        """A new matrix with the given edges dropped and added (row patching).

        This is the packed counterpart of rebuilding the graph after an
        attack override: instead of re-packing all ``E`` edges, the before
        matrix's rows are copied once (a flat memcpy) and only the changed
        pairs — a ``~beta`` fraction under the paper's threat model — are
        toggled, in both orientations.  Repeated edits are harmless.
        """
        flat_rows = self.rows.copy().reshape(-1)
        for rows, cols, clear in ((drop_rows, drop_cols, True), (add_rows, add_cols, False)):
            rows = np.asarray(rows, dtype=np.int64)
            cols = np.asarray(cols, dtype=np.int64)
            # Both orientations, toggled by one unbuffered ufunc.at apiece.
            sym_rows, sym_cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
            flat = sym_rows * self.num_words + (sym_cols >> 6)
            bits = np.left_shift(np.uint64(1), (sym_cols & 63).astype(np.uint64))
            if clear:
                np.bitwise_and.at(flat_rows, flat, ~bits)
            else:
                np.bitwise_or.at(flat_rows, flat, bits)
        return BitMatrix(self.num_nodes, flat_rows.reshape(self.rows.shape))

    def triangles_touching(self, nodes: np.ndarray) -> np.ndarray:
        """Per-node count of triangles with at least one vertex in ``nodes``.

        The building block of incremental before/after triangle counting:
        when two graphs differ only on pairs incident to ``nodes`` (the
        attacker-touched rows of a paired run), their full per-node triangle
        counts differ exactly by this quantity, so the delta costs
        ``O(sum_{s in nodes} deg(s) * ceil(n/64))`` words — a ``~2 beta``
        fraction of a full :meth:`triangles_per_node` pass.

        For ``u`` in ``nodes`` every incident triangle qualifies, so the
        count is the plain per-row triangle count.  For ``u`` outside, each
        touched neighbour ``s`` contributes ``|N(u) & N(s)|`` pairs where
        ``s`` itself is the touched vertex plus ``|N(u) & N(s) \\ nodes|``
        pairs where the third vertex is the touched one; summing and halving
        counts every qualifying triangle exactly once.  ``nodes`` is a set:
        repeated ids count once, and ids outside ``0..n-1`` raise
        :class:`ValueError` (:func:`node_set`).

        Every ``(touched, neighbour)`` pair's full and touched-masked
        common-neighbour counts come from one :func:`pair_popcounts` sweep
        per row block of touched nodes, no per-node loop.
        """
        n = self.num_nodes
        counts = np.zeros(n, dtype=np.int64)
        nodes = node_set(nodes, n)
        if n == 0 or nodes.size == 0:
            return counts
        one = np.uint64(1)
        mask = np.zeros(self.num_words, dtype=np.uint64)
        np.bitwise_or.at(mask, nodes >> 6, one << (nodes & 63).astype(np.uint64))
        columns = np.ascontiguousarray(self.rows.T)
        own = np.zeros(n, dtype=np.int64)
        # Ordered qualifying-pair counts for nodes outside the touched set.
        term = np.zeros(n, dtype=np.int64)
        # Touched rows unpack to n bytes apiece: row blocks bound both the
        # unpacked bits and the (touched, neighbour) pair arrays.
        block = max(1, _CHUNK_WORDS // n)
        for start in range(0, nodes.size, block):
            ids = nodes[start : start + block]
            local, neighbors = np.divmod(np.flatnonzero(_unpack_rows(self.rows[ids], n)), n)
            if not neighbors.size:
                continue
            touched = ids[local]
            pop_full, pop_touched = pair_popcounts(columns, touched, neighbors, mask)
            pop_full = pop_full.astype(np.int64)
            own += np.bincount(touched, weights=pop_full, minlength=n).astype(np.int64)
            term += np.bincount(
                neighbors, weights=2 * pop_full - pop_touched, minlength=n
            ).astype(np.int64)
        counts[nodes] = own[nodes] // 2
        outside = np.ones(n, dtype=bool)
        outside[nodes] = False
        counts[outside] = term[outside] // 2
        return counts

    def __repr__(self) -> str:
        return f"BitMatrix(num_nodes={self.num_nodes}, num_words={self.num_words})"
