"""Trial-stacked bit-plane adjacency tensor for cross-trial batched metrics.

Every trial of one figure point perturbs the *same* graph at the *same*
epsilon with an independent RNG stream; packing and sweeping each perturbed
graph alone would pay the gather/AND temporaries and the Python-level node
loop once per trial.  :class:`BitTensor` stacks all trials' packed adjacency
matrices into one ``trials x n x words`` uint64 array so that

* packing writes each trial's plane straight into the preallocated stack
  through one reused byte scratch
  (:func:`repro.graph.bitmatrix.pack_symmetric_plane`);
* degrees are one popcount reduction over the whole stack;
* per-node triangle counts run as one buffered pair-popcount sweep per
  plane over that trial's stored edges
  (:func:`repro.graph.bitmatrix.pair_popcounts`; optionally served by the
  numba kernel behind ``REPRO_KERNELS`` — see :mod:`repro.graph.native`);
* intra-community edge counts mask all planes per community in one pass;
* attack-override row patches apply to any subset of planes in one
  accumulate/toggle pass (:meth:`with_edits`).

Every quantity is an exact integer equal to what the per-trial
:class:`~repro.graph.bitmatrix.BitMatrix` computes plane by plane — the
batched path is a pure reordering of the same word operations, so engine
results stay bit-identical whichever kernel serves them.  :meth:`plane`
exposes single trials as zero-copy ``BitMatrix`` views, which downstream
incremental estimators adopt as their cached packed matrix.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.graph import native
from repro.graph.bitmatrix import (
    _CHUNK_WORDS,
    BitMatrix,
    _gather_triangles,
    _row_popcounts,
    accumulate_bits,
    bit_index_arrays,
    pack_symmetric_plane,
)

#: One plane's worth of edits: ``(add_rows, add_cols, drop_rows, drop_cols)``.
PlaneEdits = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class BitTensor:
    """A stack of symmetric packed adjacency matrices, one plane per trial.

    Bit ``j`` of row ``i`` of plane ``t`` (word ``j >> 6``, position
    ``j & 63``) is 1 iff trial ``t``'s graph has the undirected edge
    ``{i, j}``.  Diagonals are always 0.

    >>> from repro.graph.adjacency import Graph
    >>> bt = BitTensor.from_graphs(
    ...     [Graph(4, [(0, 1), (1, 2), (2, 0)]), Graph(4, [(0, 3)])]
    ... )
    >>> bt.degrees().tolist()
    [[2, 2, 2, 0], [1, 0, 0, 1]]
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
        so handing planes to per-trial estimators never aliases trials into
        each other.
        """
        return BitMatrix(self.num_nodes, self.planes[trial])

    def row_range(self, start: int, stop: int) -> np.ndarray:
        """Zero-copy ``(trials, stop - start, words)`` packed row-block view.

        The trial-stacked counterpart of :meth:`BitMatrix.row_range`: a
        block of every trial's per-user report rows, for shipping user
        ranges to workers without slicing plane by plane.  Callers size
        ``stop - start`` with :func:`repro.graph.streaming.rows_per_block`
        (divided by ``num_trials``) to honour ``REPRO_DENSE_MAX_BYTES``.
        """
        if not 0 <= start <= stop <= self.num_nodes:
            raise ValueError(
                f"row range [{start}, {stop}) out of [0, {self.num_nodes}]"
            )
        return self.planes[:, start:stop, :]

    # ------------------------------------------------------------------
    # Exact integer counts, batched over the trial axis
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """``(trials, n)`` node degrees — one popcount reduction."""
        return _row_popcounts(self.planes)

    def trial_edges(self, trial: int) -> Tuple[np.ndarray, np.ndarray]:
        """Trial ``trial``'s edges as ``(rows, cols)``, ``rows < cols``.

        Served from the arrays the constructor captured when available,
        otherwise re-extracted from the plane's packed bits.
        """
        if self._edges is not None:
            return self._edges[trial]
        return self.plane(trial).edge_endpoints()

    def triangles_per_node(self) -> np.ndarray:
        """``(trials, n)`` per-node incident-triangle counts.

        Exactly :meth:`BitMatrix.triangles_per_node` per plane: each
        trial's edges drive one edge-gather/AND/popcount sweep
        (:func:`repro.graph.bitmatrix._gather_triangles`) over its plane —
        ``O(E_total ceil(n/64))`` word operations, no per-node loop.  The
        numba kernel (``REPRO_KERNELS``) computes the same counts with a
        per-node bit-extraction loop when available.
        """
        trials, n = self.planes.shape[:2]
        if n == 0:
            return np.zeros((trials, n), dtype=np.int64)
        kernel = native.triangle_kernel()
        if kernel is not None:
            word_index, bit_shift = bit_index_arrays(n)
            return kernel(
                np.ascontiguousarray(self.planes), word_index, bit_shift
            )
        counts = np.empty((trials, n), dtype=np.int64)
        for trial in range(trials):
            rows, cols = self.trial_edges(trial)
            counts[trial] = _gather_triangles(self.planes[trial], rows, cols, n)
        return counts

    def intra_community_edges(
        self, labels: np.ndarray, num_communities: int
    ) -> np.ndarray:
        """``(trials, num_communities)`` intra-community edge counts.

        One packed community indicator serves every plane: member rows of
        all trials are masked and popcounted together, chunked to the shared
        temporary budget.
        """
        labels = np.asarray(labels, dtype=np.int64)
        counts = np.zeros((self.num_trials, num_communities), dtype=np.int64)
        one = np.uint64(1)
        chunk = max(1, _CHUNK_WORDS // max(1, self.num_trials * self.num_words))
        for community in range(num_communities):
            members = np.flatnonzero(labels == community)
            if members.size < 2:
                continue
            mask = np.zeros(self.num_words, dtype=np.uint64)
            np.bitwise_or.at(
                mask, members >> 6, one << (members & 63).astype(np.uint64)
            )
            total = np.zeros(self.num_trials, dtype=np.int64)
            for start in range(0, members.size, chunk):
                block = members[start : start + chunk]
                total += _row_popcounts(self.planes[:, block, :] & mask).sum(axis=-1)
            counts[:, community] = total // 2
        return counts

    def with_edits(self, edits: Sequence[Optional[PlaneEdits]]) -> "BitTensor":
        """A new tensor with per-plane edge edits applied (``None`` = keep).

        Each entry is ``(add_rows, add_cols, drop_rows, drop_cols)`` for its
        plane, duplicate-free within each set (the :meth:`BitMatrix
        .with_edits` contract).  All planes' toggles accumulate in one
        compacted split-bincount pass per polarity.
        """
        if len(edits) != self.num_trials:
            raise ValueError(
                f"got {len(edits)} edit sets for {self.num_trials} planes"
            )
        flat = self.planes.copy().reshape(-1)
        plane_words = self.num_nodes * self.num_words
        polarity = {True: ([], []), False: ([], [])}
        for trial, edit in enumerate(edits):
            if edit is None:
                continue
            add_rows, add_cols, drop_rows, drop_cols = edit
            offset = trial * plane_words
            for clear, edit_rows, edit_cols in (
                (True, drop_rows, drop_cols),
                (False, add_rows, add_cols),
            ):
                edit_rows = np.asarray(edit_rows, dtype=np.int64)
                edit_cols = np.asarray(edit_cols, dtype=np.int64)
                if edit_rows.size == 0:
                    continue
                sym_r = np.concatenate([edit_rows, edit_cols])
                sym_c = np.concatenate([edit_cols, edit_rows])
                positions, bits = polarity[clear]
                positions.append(offset + sym_r * self.num_words + (sym_c >> 6))
                bits.append(sym_c & 63)
        for clear, (positions, bits) in polarity.items():
            if not positions:
                continue
            unique, inverse = np.unique(np.concatenate(positions), return_inverse=True)
            mask = accumulate_bits(inverse, np.concatenate(bits), unique.size)
            if clear:
                flat[unique] &= ~mask
            else:
                flat[unique] |= mask
        return BitTensor(self.num_nodes, flat.reshape(self.planes.shape))

    def __repr__(self) -> str:
        return (
            f"BitTensor(num_trials={self.num_trials}, "
            f"num_nodes={self.num_nodes}, num_words={self.num_words})"
        )
