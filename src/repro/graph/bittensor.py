"""Trial-stacked bit-plane adjacency tensor.

:class:`BitTensor` stacks several same-order graphs' packed adjacency
matrices into one ``trials x n x words`` uint64 array: packing writes each
trial's plane straight into the preallocated stack through one reused byte
scratch (:func:`repro.graph.bitmatrix.pack_symmetric_plane`), and per-node
triangle counts run as one pair-popcount sweep per plane over that trial's
stored edges (:func:`repro.graph.bitmatrix.pair_popcounts`, the one packed
triangle kernel).  Every count is the exact integer the per-trial
:class:`~repro.graph.bitmatrix.BitMatrix` computes plane by plane.

No estimator calls this module: a paired run computes its honest
intermediates lazily in its own paired cache
(:mod:`repro.protocols.base`).  It stays because the benchmark's layer
profiler (``perfbench/layers.py``) resolves ``BitTensor.from_graphs`` and
``BitTensor.triangles_per_node`` as patch points; it goes with the next
benchmark change.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph.bitmatrix import BitMatrix, _gather_triangles, pack_symmetric_plane


class BitTensor:
    """A stack of symmetric packed adjacency matrices, one plane per trial.

    Bit ``j`` of row ``i`` of plane ``t`` (word ``j >> 6``, position
    ``j & 63``) is 1 iff trial ``t``'s graph has the undirected edge
    ``{i, j}``.  Diagonals are always 0.

    >>> from repro.graph.adjacency import Graph
    >>> bt = BitTensor.from_graphs(
    ...     [Graph(4, [(0, 1), (1, 2), (2, 0)]), Graph(4, [(0, 3)])]
    ... )
    >>> bt.triangles_per_node().tolist()
    [[1, 1, 1, 0], [0, 0, 0, 0]]
    """

    __slots__ = ("num_trials", "num_nodes", "num_words", "planes", "_edges")

    def __init__(
        self,
        num_nodes: int,
        planes: np.ndarray,
        edges: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None,
    ):
        self.num_nodes = int(num_nodes)
        self.num_words = (self.num_nodes + 63) >> 6
        if planes.ndim != 3 or planes.shape[1:] != (self.num_nodes, self.num_words):
            raise ValueError(
                f"packed planes have shape {planes.shape}, expected "
                f"(trials, {self.num_nodes}, {self.num_words})"
            )
        self.num_trials = int(planes.shape[0])
        self.planes = planes
        if edges is not None and len(edges) != self.num_trials:
            raise ValueError(
                f"got {len(edges)} edge lists for {self.num_trials} planes"
            )
        # Per-trial decoded (rows, cols), when the constructor already holds
        # them (from_graphs) — saves re-extracting for the triangle sweep.
        self._edges = list(edges) if edges is not None else None

    @classmethod
    def from_graphs(cls, graphs: Iterable) -> "BitTensor":
        """Pack many same-order graphs, plane by plane, into one stack.

        Each plane is written in place by
        :func:`~repro.graph.bitmatrix.pack_symmetric_plane`, all sharing one
        byte scratch, so the transient memory is one ``n^2``-byte buffer
        whatever the trial count.
        """
        graphs = list(graphs)
        if not graphs:
            raise ValueError("BitTensor needs at least one graph")
        n = graphs[0].num_nodes
        for graph in graphs:
            if graph.num_nodes != n:
                raise ValueError(
                    f"all graphs must share one node count; got {graph.num_nodes} != {n}"
                )
        words = (n + 63) >> 6
        planes = np.empty((len(graphs), n, words), dtype=np.uint64)
        scratch = np.zeros((n, words << 6), dtype=np.uint8)
        edges = []
        for trial, graph in enumerate(graphs):
            rows, cols = graph.edge_arrays()
            rows = np.asarray(rows, dtype=np.int64)
            cols = np.asarray(cols, dtype=np.int64)
            edges.append((rows, cols))
            pack_symmetric_plane(rows, cols, n, planes[trial], scratch)
        return cls(n, planes, edges=edges)

    def plane(self, trial: int) -> BitMatrix:
        """Trial ``trial``'s adjacency as a zero-copy :class:`BitMatrix` view.

        Mutating helpers on the view (``with_edits``) copy before writing,
        so handing planes out never aliases trials into each other.
        """
        return BitMatrix(self.num_nodes, self.planes[trial])

    def triangles_per_node(self) -> np.ndarray:
        """``(trials, n)`` per-node incident-triangle counts.

        Exactly :meth:`BitMatrix.triangles_per_node` per plane: each
        trial's edges drive one edge-gather/AND/popcount sweep
        (:func:`repro.graph.bitmatrix._gather_triangles`, built on
        :func:`~repro.graph.bitmatrix.pair_popcounts`) over its plane —
        ``O(E_total ceil(n/64))`` word operations, no per-node loop.
        Planes built without stored edges re-extract them from the bits.
        """
        trials, n = self.planes.shape[:2]
        if n == 0:
            return np.zeros((trials, n), dtype=np.int64)
        counts = np.empty((trials, n), dtype=np.int64)
        for trial in range(trials):
            if self._edges is not None:
                rows, cols = self._edges[trial]
            else:
                rows, cols = self.plane(trial).edge_endpoints()
            counts[trial] = _gather_triangles(self.planes[trial], rows, cols, n)
        return counts

    def __repr__(self) -> str:
        return (
            f"BitTensor(num_trials={self.num_trials}, "
            f"num_nodes={self.num_nodes}, num_words={self.num_words})"
        )
