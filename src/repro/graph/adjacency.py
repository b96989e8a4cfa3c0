"""Sparse undirected simple graphs with adjacency-bit-vector views.

The LDP protocols in this library operate on the *adjacency bit vector* of
each user (the row of the adjacency matrix belonging to that user) and on the
user's degree.  :class:`Graph` stores the edge set sparsely — as a sorted
array of unordered-pair codes — so graphs with tens of thousands of nodes fit
comfortably in memory, while still offering O(deg) neighbour queries through a
lazily built, cached CSR index and on-demand dense bit-vector rows for small
graphs.  Graphs consumed only for degrees, edge arrays or whole-graph metrics
(the common fate of randomized-response-perturbed graphs) never pay the CSR
sort; dense perturbed graphs route their triangle counting through the
bit-packed backend in :mod:`repro.graph.bitmatrix`.

Graphs are value-style objects: mutating operations return new graphs.  This
keeps before/after attack comparisons safe by construction.  A graph may also
be *deferred* (:meth:`Graph._deferred`): it knows its edge count up front and
builds its codes on the first read, so an attacked after-view that no reader
opens costs only its net edits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, Tuple

import numpy as np

from repro.utils.sparse import decode_pairs, encode_pairs, pair_count
from repro.utils.validation import check_non_negative, node_ids

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Codes decoded per chunk when counting degrees (4M codes ~ 96 MB of
#: endpoint temporaries — bounded regardless of graph size).
_DEGREE_CHUNK_CODES = 1 << 22


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable reference to a graph exported into shared memory.

    Only the segment *name* and the array geometry travel to workers; the
    edge codes themselves stay in the POSIX shared-memory segment, which
    every process maps zero-copy.  Lifecycle contract: the exporting process
    creates the segment (:meth:`Graph.to_shared`), workers attach
    (:meth:`Graph.attach_shared`), and the exporter — never an attacher —
    eventually unlinks it (:class:`repro.engine.graph_store.GraphStore`
    does this in ``close``).
    """

    shm_name: str
    num_nodes: int
    num_edges: int


def attach_shared_memory(name: str):
    """Attach an existing shared-memory segment without adopting ownership.

    On CPython 3.13+ ``track=False`` keeps the attach out of the resource
    tracker entirely.  Earlier versions register unconditionally; that is
    harmless here because pool workers are forked *after* the exporting
    process's first registration, so they share its tracker and the
    duplicate registration dedupes — the segment is still unlinked exactly
    once, by the exporter (:class:`repro.engine.graph_store.GraphStore`
    calls ``resource_tracker.ensure_running()`` up front to pin that fork
    ordering).
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        return shared_memory.SharedMemory(name=name)


class Graph:
    """An immutable, undirected simple graph on nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes.  Isolated nodes are allowed.
    edges:
        Iterable of ``(u, v)`` pairs, or an ``(E, 2)`` integer array.
        Duplicates and orientation are normalised away; self-loops raise.

    Examples
    --------
    >>> g = Graph(4, [(0, 1), (1, 2), (2, 0)])
    >>> g.num_edges
    3
    >>> sorted(g.neighbors(0))
    [1, 2]
    >>> g.has_edge(0, 3)
    False
    """

    __slots__ = ("_num_nodes", "_stored_codes", "_pending", "_indptr", "_indices", "_degrees")

    def __init__(self, num_nodes: int, edges: Iterable[Tuple[int, int]] = ()):
        check_non_negative(num_nodes, "num_nodes")
        self._num_nodes = int(num_nodes)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            codes = np.empty(0, dtype=np.int64)
        else:
            if edge_array.ndim != 2 or edge_array.shape[1] != 2:
                raise ValueError("edges must be an iterable of (u, v) pairs")
            codes = np.unique(encode_pairs(edge_array[:, 0], edge_array[:, 1], self._num_nodes))
        self._stored_codes = codes
        self._pending = self._indptr = self._indices = self._degrees = None

    @classmethod
    def from_codes(
        cls, num_nodes: int, codes: np.ndarray, *, assume_sorted_unique: bool = False
    ) -> "Graph":
        """Build a graph directly from unordered-pair codes.

        With ``assume_sorted_unique`` the caller guarantees ``codes`` is
        already sorted and duplicate-free (e.g. the output of ``np.union1d``,
        ``np.setdiff1d`` or :func:`repro.utils.sparse.merge_sorted_disjoint`),
        skipping the O(E log E) ``np.unique`` pass — the dominant construction
        cost for the near-dense graphs low-epsilon randomized response emits.
        An owning array is adopted without copying and frozen
        (``writeable=False``), so a caller mutating its buffer afterwards
        gets a loud error instead of silently corrupting a value-style graph;
        a view is copied (freezing a view would not stop writes through its
        base).  Range validation is always performed (O(1) on sorted codes).
        """
        graph = cls.__new__(cls)
        graph._num_nodes = int(num_nodes)
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size:
            if not assume_sorted_unique:
                codes = np.unique(codes)
            else:
                if not codes.flags.owndata:
                    codes = codes.copy()
                codes.flags.writeable = False
            if codes[0] < 0 or codes[-1] >= pair_count(num_nodes):
                raise ValueError("edge code out of range for num_nodes")
        graph._stored_codes = codes
        graph._pending = graph._indptr = graph._indices = graph._degrees = None
        return graph

    @classmethod
    def _deferred(
        cls, num_nodes: int, num_edges: int, build: Callable[[], np.ndarray]
    ) -> "Graph":
        """A graph of ``num_edges`` edges whose codes ``build()`` returns on
        the first read.

        Trusted-caller API, like :meth:`_seed_degrees`: ``build`` must return
        a fresh int64 array of ``num_edges`` sorted unique in-range codes,
        which is adopted and frozen.  Everything that reads the codes —
        edge arrays, CSR, equality, hashing, pickling, shared-memory export
        — builds them once; :attr:`num_edges`, :attr:`num_nodes` and seeded
        degrees do not.
        """
        graph = cls.__new__(cls)
        graph._num_nodes = int(num_nodes)
        graph._stored_codes = None
        graph._pending = (int(num_edges), build)
        graph._indptr = graph._indices = graph._degrees = None
        return graph

    @classmethod
    def from_networkx(cls, nx_graph) -> "Graph":
        """Convert a :class:`networkx.Graph`; nodes are relabelled 0..n-1."""
        nodes = list(nx_graph.nodes())
        index = {node: position for position, node in enumerate(nodes)}
        edges = [(index[u], index[v]) for u, v in nx_graph.edges() if u != v]
        return cls(len(nodes), edges)

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (imported lazily)."""
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_nodes_from(range(self._num_nodes))
        rows, cols = self.edge_arrays()
        nx_graph.add_edges_from(zip(rows.tolist(), cols.tolist()))
        return nx_graph

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        if self._pending is not None:
            return self._pending[0]
        return int(self._stored_codes.size)

    @property
    def _codes(self) -> np.ndarray:
        """The sorted edge codes; a deferred graph builds them here, once."""
        if self._pending is not None:
            codes = self._pending[1]()
            codes.flags.writeable = False
            self._stored_codes = codes
            self._pending = None
        return self._stored_codes

    @property
    def edge_codes(self) -> np.ndarray:
        """Sorted unique unordered-pair codes of the edges (read-only view)."""
        view = self._codes.view()
        view.flags.writeable = False
        return view

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Edges as two aligned arrays ``(rows, cols)`` with ``rows < cols``."""
        return decode_pairs(self._codes, self._num_nodes)

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as python int pairs, ``u < v``."""
        rows, cols = self.edge_arrays()
        return zip(rows.tolist(), cols.tolist())

    def degrees(self) -> np.ndarray:
        """Degree of every node (read-only array of length ``num_nodes``).

        The decode runs in bounded chunks: at million-node scale a perturbed
        graph carries 10^8+ codes and a single-pass decode would allocate
        two full-size endpoint temporaries; chunking caps the transients at
        a constant while accumulating the exact same integer bincounts.
        """
        if self._degrees is None:
            counts = np.zeros(self._num_nodes, dtype=np.int64)
            for start in range(0, self._codes.size, _DEGREE_CHUNK_CODES):
                rows, cols = decode_pairs(
                    self._codes[start : start + _DEGREE_CHUNK_CODES], self._num_nodes
                )
                counts += np.bincount(rows, minlength=self._num_nodes)
                counts += np.bincount(cols, minlength=self._num_nodes)
            self._degrees = counts
        view = self._degrees.view()
        view.flags.writeable = False
        return view

    def degree(self, node: int) -> int:
        """Degree of a single node."""
        self._check_node(node)
        return int(self.degrees()[node])

    def _seed_degrees(self, degrees: np.ndarray) -> None:
        """Install a precomputed degree array, skipping the O(E) recount.

        Trusted-caller API for incremental pipelines that already know this
        graph's exact degrees (e.g. honest degrees plus the net changes of
        an attack override).  The caller vouches the values equal what
        :meth:`degrees` would compute — they are adopted verbatim.
        """
        degrees = np.asarray(degrees, dtype=np.int64)
        if degrees.shape != (self._num_nodes,):
            raise ValueError(
                f"seeded degrees have shape {degrees.shape}, expected ({self._num_nodes},)"
            )
        self._degrees = degrees

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node``."""
        self._check_node(node)
        self._ensure_csr()
        return self._indices[self._indptr[node] : self._indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists."""
        self._check_node(u)
        self._check_node(v)
        u, v = int(u), int(v)
        if u == v:
            return False
        lo, hi = (u, v) if u < v else (v, u)
        # Scalar form of repro.utils.sparse.encode_pairs — plain python ints,
        # no length-1 array allocations on this per-pair hot path.
        code = lo * self._num_nodes - lo * (lo + 1) // 2 + (hi - lo - 1)
        position = int(np.searchsorted(self._codes, code))
        return position < self._codes.size and int(self._codes[position]) == code

    # ------------------------------------------------------------------
    # Shared-memory export / attach
    # ------------------------------------------------------------------
    def to_shared(self) -> Tuple[SharedGraphHandle, "object"]:
        """Export this graph's edge codes into a POSIX shared-memory segment.

        Returns ``(handle, segment)``: the handle is a tiny picklable value
        that travels to worker processes; the segment is the live
        :class:`multiprocessing.shared_memory.SharedMemory` the *caller now
        owns* — it must keep it alive while any worker may attach and call
        ``unlink()`` exactly once when the graph is retired (create →
        attach → unlink).  Workers reconstruct the graph zero-copy with
        :meth:`attach_shared` instead of unpickling an edge-array copy.
        """
        from multiprocessing import shared_memory

        nbytes = max(1, self._codes.nbytes)  # zero-size segments are invalid
        segment = shared_memory.SharedMemory(create=True, size=nbytes)
        if self._codes.size:
            target = np.ndarray(
                self._codes.shape, dtype=np.int64, buffer=segment.buf
            )
            target[:] = self._codes
        handle = SharedGraphHandle(
            shm_name=segment.name,
            num_nodes=self._num_nodes,
            num_edges=int(self._codes.size),
        )
        return handle, segment

    @classmethod
    def attach_shared(cls, handle: SharedGraphHandle) -> Tuple["Graph", "object"]:
        """Map a graph exported by :meth:`to_shared`, without copying.

        Returns ``(graph, segment)``.  The graph's edge codes are a
        read-only view straight into the shared segment; the caller must
        keep ``segment`` referenced for as long as the graph is used (the
        worker-side attach cache in :mod:`repro.engine.executors` does) and
        must close — never unlink — it when done.
        """
        segment = attach_shared_memory(handle.shm_name)
        if handle.num_edges:
            codes = np.frombuffer(
                segment.buf, dtype=np.int64, count=handle.num_edges
            )
            codes.flags.writeable = False
        else:
            codes = np.empty(0, dtype=np.int64)  # no pointer into the segment
        graph = cls.__new__(cls)
        graph._num_nodes = int(handle.num_nodes)
        graph._stored_codes = codes
        graph._pending = graph._indptr = graph._indices = graph._degrees = None
        return graph, segment

    def csr(self) -> sp.csr_matrix:
        """Symmetric adjacency matrix in CSR form (0/1, int8)."""
        import scipy.sparse as sp

        rows, cols = self.edge_arrays()
        data = np.ones(2 * rows.size, dtype=np.int8)
        all_rows = np.concatenate([rows, cols])
        all_cols = np.concatenate([cols, rows])
        return sp.csr_matrix(
            (data, (all_rows, all_cols)), shape=(self._num_nodes, self._num_nodes)
        )

    # ------------------------------------------------------------------
    # Value-style edits
    # ------------------------------------------------------------------
    def with_edges(self, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """A new graph with ``edges`` added (existing edges are kept)."""
        new_edges = np.asarray(list(edges), dtype=np.int64)
        if new_edges.size == 0:
            return self
        codes = encode_pairs(new_edges[:, 0], new_edges[:, 1], self._num_nodes)
        merged = np.union1d(self._codes, codes)
        return Graph.from_codes(self._num_nodes, merged, assume_sorted_unique=True)

    def without_edges(self, edges: Iterable[Tuple[int, int]]) -> "Graph":
        """A new graph with ``edges`` removed (missing edges are ignored)."""
        drop = np.asarray(list(edges), dtype=np.int64)
        if drop.size == 0:
            return self
        codes = encode_pairs(drop[:, 0], drop[:, 1], self._num_nodes)
        kept = np.setdiff1d(self._codes, codes)
        return Graph.from_codes(self._num_nodes, kept, assume_sorted_unique=True)

    def subgraph(self, nodes: Sequence[int]) -> "Graph":
        """Induced subgraph on ``nodes`` (relabelled to 0..len(nodes)-1).

        ``nodes`` must be distinct ids in ``0..n-1``; anything else raises a
        :class:`ValueError` naming ``nodes``.
        """
        nodes = node_ids(nodes, self._num_nodes)
        ascending = bool(np.all(nodes[1:] > nodes[:-1]))
        if not ascending and nodes.size != np.unique(nodes).size:
            raise ValueError("subgraph nodes must be unique")
        mapping = -np.ones(self._num_nodes, dtype=np.int64)
        mapping[nodes] = np.arange(nodes.size)
        rows, cols = self.edge_arrays()
        rows, cols = mapping[rows], mapping[cols]
        keep = (rows >= 0) & (cols >= 0)
        codes = encode_pairs(rows[keep], cols[keep], nodes.size)
        # Ascending ``nodes`` make the relabelling monotone, which keeps the
        # (row, col) lex order and so the re-encoded codes sorted and unique.
        return Graph.from_codes(nodes.size, codes, assume_sorted_unique=ascending)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_csr(self) -> None:
        """Build the CSR index on first use.

        The index costs a sort over 2E entries, which graphs consumed only
        through ``degrees()``/``edge_arrays()``/metrics (e.g. the near-dense
        perturbed graphs of low-epsilon randomized response) never need — so
        it is built lazily and cached.  ``codes`` is sorted, hence the decoded
        (row, col) pairs are lex-sorted; listing the (col, row) half first
        makes one *stable* single-key sort on the row leave every bucket's
        neighbours ascending (smaller-id neighbours come from the col half).
        """
        if self._indices is not None:
            return
        rows, cols = decode_pairs(self._codes, self._num_nodes)
        all_rows = np.concatenate([cols, rows])
        all_cols = np.concatenate([rows, cols])
        order = np.argsort(all_rows, kind="stable")
        if self._degrees is None:
            self._degrees = (
                np.bincount(rows, minlength=self._num_nodes)
                + np.bincount(cols, minlength=self._num_nodes)
            ).astype(np.int64)
        indptr = np.zeros(self._num_nodes + 1, dtype=np.int64)
        np.cumsum(self._degrees, out=indptr[1:])
        self._indptr = indptr
        self._indices = all_cols[order]

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise IndexError(f"node {node} out of range [0, {self._num_nodes})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._num_nodes == other._num_nodes and np.array_equal(
            self._codes, other._codes
        )

    def __hash__(self) -> int:
        return hash((self._num_nodes, self._codes.tobytes()))

    def __getstate__(self):
        """Slot state with the codes built: a deferred builder never travels."""
        self._codes  # builds a deferred graph's codes
        return None, {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return f"Graph(num_nodes={self._num_nodes}, num_edges={self.num_edges})"
