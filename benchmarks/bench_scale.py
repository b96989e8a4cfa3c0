"""Million-user scale bench: streaming collection wall-clock and peak RSS.

Runs the LF-GDPR streaming collection sweep (``collect_blocks``) on sparse
synthetic graphs at ``n = 10^5`` (always) and ``n = 10^6`` (opt in with
``REPRO_SCALE_MILLION=1``), recording wall-clock per size into
``benchmarks/BENCH_timings.json`` plus a peak-RSS table under
``benchmarks/results/``.  Next to the sweep it times the construction of
the row-block builder (``RowBlockBuilder``: decode plus one sort of the
transposed codes) on the same perturbed graph, the sweep's one pass over
all ``E`` codes.

The point of the sweep is the memory envelope, not the arithmetic: the dense
path would materialize the full packed adjacency — ``n^2 / 8`` bytes, 125 GB
at a million nodes — while the streaming path holds one row block at a time.
``REPRO_SCALE_RLIMIT_GB`` (CI sets 12) arms a hard ``RLIMIT_AS`` cap *below*
dense materialization for the million-node leg, so a regression that sneaks
the full matrix back in fails with ``MemoryError`` instead of quietly
surviving on a big runner.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

from conftest import emit, record_timing
from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import _row_popcounts
from repro.graph.streaming import RowBlockBuilder
from repro.protocols.lfgdpr import LFGDPRProtocol
from repro.utils.sparse import pair_count

#: Total privacy budget of the sweep.  Deliberately high: the adjacency share
#: (eps/2 = 8) keeps the expected flip count near ``3.4e-4`` of all pairs, so
#: the perturbed graph stays sparse enough to hold as codes (~1.3 GB at
#: n = 10^6) while still exercising the full RR + streaming pipeline.
SWEEP_EPSILON = 16.0

AVERAGE_DEGREE = 10.0


def _synthetic_graph(n: int, seed: int) -> Graph:
    """Sparse uniform graph at the target average degree, built vectorized."""
    rng = np.random.default_rng(seed)
    target = int(n * AVERAGE_DEGREE / 2)
    codes = rng.integers(0, pair_count(n), size=int(target * 1.05), dtype=np.int64)
    codes = np.unique(codes)[:target]
    return Graph.from_codes(n, codes, assume_sorted_unique=True)


def _peak_rss_gb() -> float:
    """High-water resident set of this process (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024.0 * 1024.0)


def _arm_address_space_cap():
    """Apply the REPRO_SCALE_RLIMIT_GB hard cap; returns the old soft limit."""
    gb = os.environ.get("REPRO_SCALE_RLIMIT_GB")
    if not gb:
        return None
    cap = int(float(gb) * (1 << 30))
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return soft, hard


def _streaming_sweep(n: int, seed: int) -> dict:
    """One full streaming collection at size ``n``; returns the measurements."""
    build_start = time.perf_counter()
    graph = _synthetic_graph(n, seed)
    build_seconds = time.perf_counter() - build_start

    protocol = LFGDPRProtocol(epsilon=SWEEP_EPSILON)
    observed = np.zeros(n, dtype=np.int64)
    sweep_start = time.perf_counter()
    blocks = 0
    for block in protocol.collect_blocks(graph, rng=seed):
        observed[block.start : block.stop] = _row_popcounts(block.adjacency_rows)
        blocks += 1
    sweep_seconds = time.perf_counter() - sweep_start

    # Consistency: per-row popcounts of an undirected adjacency sum to 2E.
    assert observed.sum() % 2 == 0
    peak_rss_gb = _peak_rss_gb()

    # The same perturbed graph the sweep streamed (collect and collect_blocks
    # draw identically), so the builder sees the sweep's E codes.
    perturbed = protocol.collect(graph, rng=seed).perturbed_graph
    builder_start = time.perf_counter()
    RowBlockBuilder.from_graph(perturbed)
    builder_seconds = time.perf_counter() - builder_start
    return {
        "n": n,
        "edges": graph.num_edges,
        "perturbed_edges": int(observed.sum()) // 2,
        "blocks": blocks,
        "build_seconds": build_seconds,
        "sweep_seconds": sweep_seconds,
        "builder_seconds": builder_seconds,
        "peak_rss_gb": peak_rss_gb,
    }


def _report(result: dict) -> None:
    n = result["n"]
    record_timing(f"bench_scale.n{n}", result["sweep_seconds"])
    record_timing(f"bench_scale.builder_n{n}", result["builder_seconds"])
    dense_gb = n * n / 8 / (1 << 30)
    emit(
        "bench_scale",
        "\n".join(
            [
                f"streaming collection sweep, n = {n:,}",
                f"  input edges        {result['edges']:,}",
                f"  perturbed edges    {result['perturbed_edges']:,}",
                f"  row blocks         {result['blocks']}",
                f"  graph build        {result['build_seconds']:.2f} s",
                f"  collection sweep   {result['sweep_seconds']:.2f} s",
                f"  row-block builder  {result['builder_seconds']:.2f} s",
                f"  peak RSS           {result['peak_rss_gb']:.2f} GB "
                f"(dense matrix would be {dense_gb:,.1f} GB)",
            ]
        ),
    )


def test_scale_100k():
    result = _streaming_sweep(100_000, seed=0)
    assert result["perturbed_edges"] > result["edges"]
    _report(result)


@pytest.mark.skipif(
    os.environ.get("REPRO_SCALE_MILLION") != "1",
    reason="million-node leg is CI-gated; set REPRO_SCALE_MILLION=1",
)
def test_scale_1m():
    n = 1_000_000
    limits = _arm_address_space_cap()
    try:
        if limits is not None:
            cap = resource.getrlimit(resource.RLIMIT_AS)[0]
            # The cap must sit below dense materialization or it proves nothing.
            assert cap < n * n // 8
        result = _streaming_sweep(n, seed=0)
    finally:
        if limits is not None:
            resource.setrlimit(resource.RLIMIT_AS, limits)
    assert result["perturbed_edges"] > result["edges"]
    _report(result)
