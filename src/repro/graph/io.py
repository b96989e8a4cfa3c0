"""Edge-list I/O in the whitespace-separated SNAP format.

If a user of this library has the real SNAP datasets on disk, they can load
them with :func:`read_edge_list` and run every experiment on the genuine
graphs instead of the surrogates (see :mod:`repro.graph.datasets` for the
fetch-once cached registry built on top of this parser).

The reader streams: lines are validated one at a time and edges accumulate
in fixed-size numpy chunks, so a hundred-million-edge SNAP dump parses in
O(E) ints of memory instead of a Python list/dict of tuples per edge.
Duplicate detection, node-id compaction and graph assembly are vectorized
per chunk; error semantics (message text and which line is blamed) are
identical to a line-by-line parse.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.graph.adjacency import Graph
from repro.utils.sparse import encode_pairs

PathLike = Union[str, os.PathLike]

#: Edges buffered between vectorized validation/dedup passes.
DEFAULT_CHUNK_LINES = 1 << 20

#: Largest node id the packed (lo << 32 | hi) duplicate key can hold.  Ids
#: beyond it (never seen in SNAP dumps) divert to a dict-based fallback.
_PACKED_ID_LIMIT = (1 << 32) - 1


class _WideIds(Exception):
    """Internal: a node id overflows the packed duplicate key."""


def read_edge_list(
    path: PathLike,
    num_nodes: int | None = None,
    *,
    allow_self_loops: bool = False,
    allow_duplicates: bool = False,
    chunk_lines: int | None = None,
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

    ``chunk_lines`` sizes the vectorized validation buffer (default
    ``DEFAULT_CHUNK_LINES``); any value ≥ 1 parses to the identical graph.
    """
    chunk = DEFAULT_CHUNK_LINES if chunk_lines is None else int(chunk_lines)
    if chunk < 1:
        raise ValueError(f"chunk_lines must be >= 1, got {chunk_lines}")
    state = {
        "lnos": [], "us": [], "vs": [],  # the pending (unflushed) chunk
        "kept_u": [], "kept_v": [],      # unique edges, file order, as written
        "seen_keys": np.empty(0, dtype=np.uint64),   # sorted packed pair keys
        "seen_lines": np.empty(0, dtype=np.int64),   # aligned first-seen lines
    }

    def fail(message: str):
        # A duplicate on an earlier buffered line outranks this line's error
        # (a sequential parse would have hit it first).
        _flush_chunk(state, path, allow_duplicates)
        raise ValueError(message) from None

    try:
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
                    fail(
                        f"{path}:{line_number}: non-integer node id in {stripped!r}"
                    )
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
                if u > _PACKED_ID_LIMIT or v > _PACKED_ID_LIMIT:
                    raise _WideIds()
                state["lnos"].append(line_number)
                state["us"].append(u)
                state["vs"].append(v)
                if len(state["lnos"]) >= chunk:
                    _flush_chunk(state, path, allow_duplicates)
        _flush_chunk(state, path, allow_duplicates)
    except _WideIds:
        return _read_edge_list_wide(
            path,
            num_nodes,
            allow_self_loops=allow_self_loops,
            allow_duplicates=allow_duplicates,
        )

    if state["kept_u"]:
        kept_u = np.concatenate(state["kept_u"])
        kept_v = np.concatenate(state["kept_v"])
    else:
        kept_u = kept_v = np.empty(0, dtype=np.int64)

    if num_nodes is not None:
        codes = encode_pairs(kept_u, kept_v, num_nodes)
        return Graph.from_codes(num_nodes, np.sort(codes), assume_sorted_unique=True)

    if kept_u.size == 0:
        return Graph(0, [])
    # Compact labels in order of first appearance: interleave endpoints the
    # way a sequential walk visits them, then rank unique ids by the index
    # of their first occurrence.
    flat = np.empty(2 * kept_u.size, dtype=np.int64)
    flat[0::2] = kept_u
    flat[1::2] = kept_v
    ids, first_index, inverse = np.unique(flat, return_index=True, return_inverse=True)
    rank = np.empty(ids.size, dtype=np.int64)
    rank[np.argsort(first_index, kind="stable")] = np.arange(ids.size)
    relabeled = rank[inverse]
    codes = encode_pairs(relabeled[0::2], relabeled[1::2], ids.size)
    return Graph.from_codes(ids.size, np.sort(codes), assume_sorted_unique=True)


def _flush_chunk(state: dict, path: PathLike, allow_duplicates: bool) -> None:
    """Vectorized duplicate pass over the pending chunk.

    Sorts the chunk's packed pair keys (stable, so runs keep file order),
    marks intra-chunk repeats and keys already in the cross-chunk ``seen``
    index, and either raises on the earliest duplicate line — blaming the
    same line with the same first-occurrence reference a sequential parse
    would — or appends the surviving first occurrences, in file order and
    original orientation, to the kept arrays.
    """
    if not state["lnos"]:
        return
    lno = np.array(state["lnos"], dtype=np.int64)
    u = np.array(state["us"], dtype=np.int64)
    v = np.array(state["vs"], dtype=np.int64)
    state["lnos"].clear()
    state["us"].clear()
    state["vs"].clear()

    lo = np.minimum(u, v).astype(np.uint64)
    hi = np.maximum(u, v).astype(np.uint64)
    keys = (lo << np.uint64(32)) | hi
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    repeat = np.zeros(sorted_keys.size, dtype=bool)
    repeat[1:] = sorted_keys[1:] == sorted_keys[:-1]

    seen_keys = state["seen_keys"]
    pos = np.searchsorted(seen_keys, sorted_keys)
    in_seen = np.zeros(sorted_keys.size, dtype=bool)
    if seen_keys.size:
        valid = pos < seen_keys.size
        in_seen[valid] = seen_keys[pos[valid]] == sorted_keys[valid]

    duplicate = repeat | in_seen
    if not allow_duplicates and duplicate.any():
        dup_sorted = np.flatnonzero(duplicate)
        originals = order[dup_sorted]
        pick = int(np.argmin(lno[originals]))
        original = int(originals[pick])
        s = int(dup_sorted[pick])
        if in_seen[s]:
            first = int(state["seen_lines"][pos[s]])
        else:
            run_start = s
            while repeat[run_start]:
                run_start -= 1
            first = int(lno[order[run_start]])
        raise ValueError(
            f"{path}:{int(lno[original])}: duplicate edge {int(u[original])} "
            f"{int(v[original])} (first at line {first}; pass "
            "allow_duplicates=True to collapse repeats)"
        )

    fresh = ~duplicate  # first occurrences: run starts not already seen
    keep_original = np.sort(order[fresh])
    state["kept_u"].append(u[keep_original])
    state["kept_v"].append(v[keep_original])

    fresh_keys = sorted_keys[fresh]
    fresh_lines = lno[order[fresh]]
    if seen_keys.size:
        merged_keys = np.concatenate([seen_keys, fresh_keys])
        merged_lines = np.concatenate([state["seen_lines"], fresh_lines])
        merge_order = np.argsort(merged_keys, kind="stable")
        state["seen_keys"] = merged_keys[merge_order]
        state["seen_lines"] = merged_lines[merge_order]
    else:
        state["seen_keys"] = fresh_keys
        state["seen_lines"] = fresh_lines


def _read_edge_list_wide(
    path: PathLike,
    num_nodes: int | None,
    *,
    allow_self_loops: bool,
    allow_duplicates: bool,
) -> Graph:
    """Line-by-line fallback for node ids beyond the packed-key range."""
    raw_edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) < 2:
                raise ValueError(f"{path}:{line_number}: expected 'u v', got {stripped!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_number}: non-integer node id in {stripped!r}"
                ) from None
            if u < 0 or v < 0:
                raise ValueError(
                    f"{path}:{line_number}: negative node id {min(u, v)}"
                )
            if num_nodes is not None and max(u, v) >= num_nodes:
                raise ValueError(
                    f"{path}:{line_number}: node id {max(u, v)} out of range "
                    f"for num_nodes={num_nodes}"
                )
            if u == v:
                if allow_self_loops:
                    continue
                raise ValueError(
                    f"{path}:{line_number}: self-loop {u} {v} "
                    "(pass allow_self_loops=True to skip loops)"
                )
            key = (u, v) if u < v else (v, u)
            first = seen.setdefault(key, line_number)
            if first != line_number:
                if allow_duplicates:
                    continue
                raise ValueError(
                    f"{path}:{line_number}: duplicate edge {u} {v} "
                    f"(first at line {first}; pass allow_duplicates=True "
                    "to collapse repeats)"
                )
            raw_edges.append((u, v))

    if num_nodes is not None:
        return Graph(num_nodes, raw_edges)
    mapping: dict[int, int] = {}
    for u, v in raw_edges:
        if u not in mapping:
            mapping[u] = len(mapping)
        if v not in mapping:
            mapping[v] = len(mapping)
    edges = [(mapping[u], mapping[v]) for u, v in raw_edges]
    return Graph(len(mapping), edges)

