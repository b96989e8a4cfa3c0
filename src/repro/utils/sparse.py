"""Sparse pair-sampling helpers.

The randomized-response simulator (``repro.ldp.perturbation``) needs to draw
uniform random *non-edges* of a graph without materialising the dense N×N
adjacency matrix.  The helpers here encode unordered node pairs as integers,
sample uniform pairs, and reject duplicates/self-loops efficiently.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative


def pair_count(n: int) -> int:
    """Number of unordered node pairs among ``n`` nodes, i.e. C(n, 2)."""
    check_non_negative(n, "n")
    return n * (n - 1) // 2


def pairs_between(size_a, size_b):
    """Number of distinct cross-group pairs between disjoint groups.

    Works elementwise on arrays, so a full group-size vector yields the
    whole pair-capacity matrix in one expression::

        >>> sizes = np.array([2, 3])
        >>> pairs_between(sizes[:, None], sizes[None, :])[0, 1]
        6
    """
    size_a = np.asarray(size_a, dtype=np.int64)
    size_b = np.asarray(size_b, dtype=np.int64)
    if np.any(size_a < 0) or np.any(size_b < 0):
        raise ValueError("group sizes must be non-negative")
    product = size_a * size_b
    return int(product) if product.ndim == 0 else product


def encode_pairs(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Encode unordered pairs (i, j), i < j, as unique int64 codes.

    The code of a pair is its rank in the row-major upper-triangle ordering:
    ``code(i, j) = i*n - i*(i+1)//2 + (j - i - 1)``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape:
        raise ValueError("rows and cols must have the same shape")
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    if lo.size and (lo.min() < 0 or hi.max() >= n):
        raise ValueError("node index out of range")
    if np.any(lo == hi):
        raise ValueError("self-loops cannot be encoded as pairs")
    return lo * n - lo * (lo + 1) // 2 + (hi - lo - 1)


#: Cached per-``n`` row-start rank vectors for :func:`decode_pairs`.
_ROW_START_CACHE: dict = {}
_ROW_START_CACHE_LIMIT = 8


def _row_starts(n: int) -> np.ndarray:
    """Rank of the first pair of each row: ``r(i) = i*n - i*(i+1)//2``.

    Strictly increasing over ``i < n`` (consecutive gaps are ``n - i - 1``),
    so a binary search over it recovers the row of any pair code exactly.
    Cached read-only per ``n`` — every decode of the same-order graph reuses
    one vector.
    """
    cached = _ROW_START_CACHE.get(n)
    if cached is None:
        i = np.arange(n, dtype=np.int64)
        cached = i * n - i * (i + 1) // 2
        cached.setflags(write=False)
        _ROW_START_CACHE[n] = cached
        while len(_ROW_START_CACHE) > _ROW_START_CACHE_LIMIT:
            _ROW_START_CACHE.pop(next(iter(_ROW_START_CACHE)))
    return cached


def decode_pairs(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`encode_pairs`: codes back to (i, j) with i < j.

    Pure integer inversion against the cached row-start ranks, exact by
    construction (no float rounding to guard).  Two equivalent strategies,
    chosen by an input property observed in one comparison pass:

    * ascending codes (every ``Graph``'s edge set) holding at least ~``n/4``
      codes decode by **row runs**: ``n`` probes of the row starts into the
      codes delimit each row's contiguous run, and ``np.repeat`` expands the
      rows and the per-row column offsets — O(n log E + E) sequential work;
    * anything else (small edit sets, unsorted draws) binary-searches each
      code's row among the row starts — O(E log n).
    """
    codes = np.asarray(codes, dtype=np.int64)
    if not codes.size:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    ascending = bool(np.all(codes[1:] >= codes[:-1]))
    low, high = (codes[0], codes[-1]) if ascending else (codes.min(), codes.max())
    if low < 0 or high >= pair_count(n):
        raise ValueError("pair code out of range")
    row_starts = _row_starts(n)
    if ascending and codes.size >= n // 4:
        run_starts = np.searchsorted(codes, row_starts, side="left")
        run_lengths = np.diff(run_starts, append=codes.size)
        rows = np.arange(n, dtype=np.int64)
        i = np.repeat(rows, run_lengths)
        j = codes - np.repeat(row_starts - rows - 1, run_lengths)
        return i, j
    i = np.searchsorted(row_starts, codes, side="right") - 1
    j = codes - row_starts[i] + i + 1
    return i, j


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct elements of an int array (``np.unique`` equivalent).

    Sorts in place — callers pass freshly drawn scratch arrays — and drops
    adjacent duplicates with one comparison pass.  numpy >= 2.3 routes
    ``np.unique`` through a hash table whose per-element cost dominates the
    rejection-sampling hot loop; an explicit sort + mask is severalfold
    faster at the batch sizes drawn there and produces the identical array.
    """
    if values.size == 0:
        return values
    values.sort()
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def sorted_union(a, b) -> np.ndarray:
    """Sorted distinct elements of two int arrays (``np.union1d``
    equivalent): :func:`sorted_unique` over a fresh int64 concatenation,
    so neither input is touched."""
    return sorted_unique(
        np.concatenate((np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)))
    )


def merge_sorted_disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Merge two sorted int64 arrays with no common elements into one.

    Equivalent to ``np.union1d(a, b)`` for disjoint sorted inputs.  The
    concatenation is two ascending runs, and a stable (tim)sort detects the
    runs and merges them in one galloping pass — O(a + b), in place in the
    output, with no index or mask temporaries.  Matters when merging the
    near-dense edge sets produced by low-epsilon randomized response.
    """
    out = np.concatenate((np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)))
    out.sort(kind="stable")
    return out


def reject_members(draws: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Drop every element of sorted ``draws`` present in sorted ``reference``.

    Binary-search membership over the sorted ``reference`` — the shared
    idiom behind rejection sampling and the net-change bookkeeping of
    attack-override application.  Both inputs must be sorted; ``draws``
    need not be unique.
    """
    if not reference.size or not draws.size:
        return draws
    positions = np.searchsorted(reference, draws)
    positions = np.minimum(positions, reference.size - 1)
    return draws[reference[positions] != draws]


def _reject_from_unique(draws: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """:func:`reject_members` for sorted *unique* ``draws``, searching the
    smaller of the two sorted sets into the larger.

    Unique draws let each ``reference`` code hit at most one draw, so when
    ``reference`` is the smaller set its codes are binary-searched into the
    draws and the hits masked out — ``O(R log D)`` instead of
    ``O(D log R)``.  Either direction drops exactly the same draws and keeps
    the rest in order.
    """
    if reference.size >= draws.size:
        return reject_members(draws, reference)
    positions = np.searchsorted(draws, reference)
    np.minimum(positions, draws.size - 1, out=positions)
    keep = np.ones(draws.size, dtype=bool)
    keep[positions[draws[positions] == reference]] = False
    return draws[keep]


#: Pair-space cap (16M codes, a 16 MiB bool table) for the membership-table
#: rejection path of :func:`sample_pairs_excluding`; larger spaces binary
#: search instead.  Speed dispatch only — accepted codes are identical.
_MEMBER_TABLE_MAX_CODES = 1 << 24

#: Rejection rounds :func:`sample_pairs_excluding` runs before it draws the
#: still-missing codes directly from the free ones.
_MAX_REJECTION_ROUNDS = 64


def sample_pairs_excluding(
    n: int,
    count: int,
    forbidden_codes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` distinct unordered-pair codes uniformly, avoiding a set.

    ``forbidden_codes`` must be a sorted int64 array (typically the codes of
    the existing edges).  Sampling is rejection-based: draw a batch, drop
    forbidden and duplicate codes, repeat.

    Accepted draws accumulate as per-round blocks; rejection tests binary-search
    between the sorted unique draws and the fixed forbidden set, then each
    accepted block, separately — the smaller set searched into the larger
    (:func:`_reject_from_unique`) — and the blocks are concatenated once at
    the end.  The previous implementation
    re-sorted the whole forbidden-plus-accepted union every round — O(E log E)
    per round with E ~ n^2/4 in the dense-flip regime of low-epsilon randomized
    response — which made sampling quadratic-ish in the flip count.

    Batches are the flat ``1.1 * remaining + 16`` of the original
    implementation, which keeps the generator stream *draw-for-draw
    identical* to every previously recorded run: batch sizes determine what
    ``rng`` emits, what ``rng`` emits determines the sampled pairs, and the
    sampled pairs flow into ``perturb_graph`` and therefore into every
    cached engine result (``repro.engine.cache.CACHE_VERSION`` stays valid).

    When nearly every code is taken (LDPGen asks for almost all of a dense
    group's pairs), rejection stalls on the last few codes.  Codes still
    missing after :data:`_MAX_REJECTION_ROUNDS` rounds are drawn with one
    ``rng.choice`` over the codes not yet taken, so the result stays a
    uniform sample.
    """
    total = pair_count(n)
    forbidden = np.asarray(forbidden_codes, dtype=np.int64)
    available = total - forbidden.size
    if count > available:
        raise ValueError(
            f"cannot sample {count} pairs: only {available} non-forbidden pairs exist"
        )
    if count == 0:
        return np.empty(0, dtype=np.int64)

    # Small pair spaces get an O(1)-per-draw membership table covering
    # forbidden plus already-accepted codes; larger ones fall back to binary
    # search.  Both reject exactly the same draws, so the accepted codes (and
    # the generator stream) are identical either way.
    member = None
    if total <= _MEMBER_TABLE_MAX_CODES:
        member = np.zeros(total, dtype=bool)
        member[forbidden] = True

    chosen: list[np.ndarray] = []
    remaining = count
    for _ in range(_MAX_REJECTION_ROUNDS):
        # Flat factor plus a small floor: expected round count ~1 for
        # sparse forbidden sets, and stream-compatible with history.
        batch = max(int(remaining * 1.1) + 16, remaining)
        draws = rng.integers(0, total, size=batch, dtype=np.int64)
        draws = sorted_unique(draws)
        if member is not None:
            draws = draws[~member[draws]]
        else:
            draws = _reject_from_unique(draws, forbidden)
            # Earlier blocks are sorted (a post-``choice`` block is only ever
            # appended in the final round, after which the loop exits).
            for block in chosen:
                draws = _reject_from_unique(draws, block)
        if draws.size > remaining:
            draws = rng.choice(draws, size=remaining, replace=False)
        if draws.size:
            if member is not None:
                member[draws] = True
            chosen.append(draws)
            remaining -= draws.size
        if remaining == 0:
            return np.concatenate(chosen)

    # A stall means almost every code is forbidden or accepted, so the
    # forbidden and accepted arrays already hold ~8 bytes per code and a
    # one-byte table of the whole space is the smaller allocation.
    if member is None:
        member = np.zeros(total, dtype=bool)
        member[forbidden] = True
        for block in chosen:
            member[block] = True
    free = np.flatnonzero(~member)
    chosen.append(rng.choice(free, size=remaining, replace=False))
    return np.concatenate(chosen)
