"""Edge-list I/O in the whitespace-separated SNAP format.

If a user of this library has the real SNAP datasets on disk, they can load
them with :func:`read_edge_list` and run every experiment on the genuine
graphs instead of the surrogates (see :mod:`repro.graph.datasets` for the
fetch-once cached registry built on top of this parser).

The reader streams: lines are validated one at a time and each accepted
edge's line number and endpoints accumulate in compact int64 buffers, so a
hundred-million-edge SNAP dump parses in O(E) ints of memory instead of a
Python list/dict of tuples per edge.  One vectorized pass over the whole
file then detects duplicates, compacts node ids and assembles the graph;
error semantics (message text and which line is blamed) are those of a
line-by-line parse.  Ids beyond the int64 range — SNAP's Google+ release
uses 21-digit ids — are buffered as negative stand-ins, one per distinct
id, since negative ids are rejected before they reach the buffers.
"""

from __future__ import annotations

import os
from array import array
from typing import Union

import numpy as np

from repro.graph.adjacency import Graph
from repro.utils.sparse import encode_pairs

PathLike = Union[str, os.PathLike]

#: Largest node id the int64 edge buffers hold as written.
_INT64_MAX = (1 << 63) - 1


def read_edge_list(
    path: PathLike,
    num_nodes: int | None = None,
    *,
    allow_self_loops: bool = False,
    allow_duplicates: bool = False,
) -> Graph:
    """Read and validate a whitespace-separated edge list (``u v`` per line).

    Lines starting with ``#`` are comments.  Node ids may be arbitrary
    non-negative integers; they are compacted to ``0..n-1`` preserving order
    of first appearance unless ``num_nodes`` is given, in which case ids are
    taken literally and must be < ``num_nodes``.

    Real-dataset files are validated strictly — every rejection names the
    offending line: malformed or non-integer tokens, negative ids, ids
    ``>= num_nodes``, self-loops and duplicate (undirected) edges all raise
    ``ValueError``.  Dataset dumps that legitimately carry self-loops or
    both edge directions can opt out per class of damage:
    ``allow_self_loops=True`` skips loops, ``allow_duplicates=True``
    collapses repeats — both silently, matching the old lenient behavior.
    """
    line_numbers, us, vs = array("q"), array("q"), array("q")
    add_line, add_u, add_v = line_numbers.append, us.append, vs.append
    wide: dict[int, int] = {}  # id beyond int64 -> its negative stand-in

    def fail(message: str):
        # A duplicate on an earlier line outranks this line's error (a
        # sequential parse would have hit it first).
        _unique_edges(path, line_numbers, us, vs, wide, allow_duplicates)
        raise ValueError(message) from None

    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                fail(f"{path}:{line_number}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                fail(f"{path}:{line_number}: non-integer node id in {stripped!r}")
            if u < 0 or v < 0:
                fail(f"{path}:{line_number}: negative node id {min(u, v)}")
            if num_nodes is not None and max(u, v) >= num_nodes:
                fail(
                    f"{path}:{line_number}: node id {max(u, v)} out of range "
                    f"for num_nodes={num_nodes}"
                )
            if u == v:
                if allow_self_loops:
                    continue
                fail(
                    f"{path}:{line_number}: self-loop {u} {v} "
                    "(pass allow_self_loops=True to skip loops)"
                )
            if u > _INT64_MAX:
                u = wide.setdefault(u, -1 - len(wide))
            if v > _INT64_MAX:
                v = wide.setdefault(v, -1 - len(wide))
            add_line(line_number)
            add_u(u)
            add_v(v)

    keep, labels, num_ids = _unique_edges(
        path, line_numbers, us, vs, wide, allow_duplicates
    )
    if num_nodes is not None:
        u = np.frombuffer(us, dtype=np.int64)[keep]
        v = np.frombuffer(vs, dtype=np.int64)[keep]
        codes = encode_pairs(u, v, num_nodes)
        return Graph.from_codes(num_nodes, np.sort(codes), assume_sorted_unique=True)
    if num_ids == 0:
        return Graph(0, [])
    codes = encode_pairs(labels[0::2][keep], labels[1::2][keep], num_ids)
    return Graph.from_codes(num_ids, np.sort(codes), assume_sorted_unique=True)


def _unique_edges(
    path: PathLike,
    line_numbers: array,
    us: array,
    vs: array,
    wide: dict[int, int],
    allow_duplicates: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """One duplicate pass over every buffered edge.

    Returns ``(keep, labels, num_ids)``: the buffer indices of each
    undirected edge's first occurrence in file order, the endpoints
    relabelled to ``0..num_ids-1`` in order of first appearance (``u`` of
    edge ``i`` at ``2i``, ``v`` at ``2i + 1``), and the number of distinct
    ids.  Unless ``allow_duplicates``, raises on the earliest repeated line,
    blaming the same line with the same first-occurrence reference a
    sequential parse would; ``wide`` maps stand-ins back to the ids as
    written for that message.
    """
    u = np.frombuffer(us, dtype=np.int64)
    v = np.frombuffer(vs, dtype=np.int64)
    # Interleave endpoints the way a sequential walk visits them, so ranking
    # the unique ids by first index yields first-appearance labels.
    flat = np.empty(2 * u.size, dtype=np.int64)
    flat[0::2] = u
    flat[1::2] = v
    ids, first_index, inverse = np.unique(flat, return_index=True, return_inverse=True)
    del flat

    # Keyed on id ranks, the pair key cannot overflow for any int64 ids.
    rank_u, rank_v = inverse[0::2], inverse[1::2]
    keys = np.minimum(rank_u, rank_v) * ids.size + np.maximum(rank_u, rank_v)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeat = np.zeros(sorted_keys.size, dtype=bool)
    repeat[1:] = sorted_keys[1:] == sorted_keys[:-1]

    if not allow_duplicates and repeat.any():
        repeats = np.flatnonzero(repeat)
        # Buffer order is file order, so the smallest index is the earliest
        # line; that line is its key's second occurrence, so the sorted
        # entry before it is the first.
        s = int(repeats[np.argmin(order[repeats])])
        original, first = int(order[s]), int(order[s - 1])
        lines = np.frombuffer(line_numbers, dtype=np.int64)
        written = {stand_in: node for node, stand_in in wide.items()}
        a, b = (int(x) for x in (u[original], v[original]))
        raise ValueError(
            f"{path}:{int(lines[original])}: duplicate edge {written.get(a, a)} "
            f"{written.get(b, b)} (first at line {int(lines[first])}; pass "
            "allow_duplicates=True to collapse repeats)"
        )

    keep = np.sort(order[~repeat])
    label = np.empty(ids.size, dtype=np.int64)
    label[np.argsort(first_index, kind="stable")] = np.arange(ids.size)
    return keep, label[inverse], int(ids.size)
