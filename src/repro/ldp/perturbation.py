"""Sparse simulation of randomized response over whole graphs.

Applying bitwise randomized response to every adjacency bit vector of an
N-node graph touches N·(N-1) bits — prohibitive beyond a few thousand nodes.
This module produces a perturbed graph with *exactly the same distribution*
at O(E + #flipped-non-edges) cost:

* each existing edge survives independently with probability ``p``;
* the number of non-edges flipped to edges is ``Binomial(#non-edges, 1-p)``,
  and the flipped pairs are sampled uniformly among non-edges.

Following the paper's estimator model (Eq. 16 and the Fig. 4 case analysis,
which assume a single retention probability ``p`` per undirected edge), the
perturbation is applied once per *unordered pair*: only this symmetric
interpretation is consistent with the paper's calibration formulas, which
assign each undirected edge one retention probability.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.streaming import iter_packed_row_blocks
from repro.ldp.mechanisms import rr_keep_probability
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.sparse import merge_sorted_disjoint, pair_count, sample_pairs_excluding
from repro.utils.validation import check_non_negative


def _perturbed_codes(
    codes: np.ndarray,
    num_nodes: int,
    non_edges: int,
    keep: float,
    generator: np.random.Generator,
) -> np.ndarray:
    """One randomized-response draw as sorted pair codes.

    This is the single sampling core every perturbation entry point funnels
    through, so their RNG consumption is draw-for-draw identical by
    construction: one uniform block over the edges, one binomial for the
    flip count, then the rejection-sampling draws of
    :func:`~repro.utils.sparse.sample_pairs_excluding`.
    """
    survivors = codes[generator.random(codes.size) < keep]
    flip_count = int(generator.binomial(non_edges, 1.0 - keep)) if non_edges > 0 else 0
    flipped = sample_pairs_excluding(num_nodes, flip_count, codes, generator)
    # Survivors are a sorted subset of the original codes; flipped pairs were
    # sampled outside them.  Sorting the (smaller) flipped set and merging two
    # disjoint sorted arrays replaces the np.unique re-sort over the full
    # near-dense edge set the previous construction paid.
    return merge_sorted_disjoint(survivors, np.sort(flipped))


def perturb_graph(graph: Graph, epsilon: float, rng: RngLike = None) -> Graph:
    """Randomized response over the whole graph, sparsely simulated.

    Returns a new :class:`Graph` drawn from the same distribution as flipping
    every upper-triangle adjacency bit independently with probability
    ``1 - p`` where ``p = e^eps / (1 + e^eps)``.  A batch of one over
    :func:`perturb_graph_batch`.
    """
    return perturb_graph_batch(graph, epsilon, [rng])[0]


def perturb_graph_batch(
    graph: Graph, epsilon: float, rngs: Sequence[RngLike]
) -> List[Graph]:
    """Randomized response for every trial of one point, in one pass.

    ``rngs`` carries one independent stream per trial (the engine derives
    them with the exact same ``child_rng`` keys as the per-trial path).
    Plane ``t`` of the result is **bit-identical** to a single-trial draw on
    ``rngs[t]``: each stream makes the same draws in the same order — the
    batching hoists only the draw-free shared setup (edge codes, the keep
    probability, the non-edge count) out of the trial loop.  Because the
    streams are independent, evaluating them back-to-back instead of
    interleaved with other per-trial work is a pure reordering with no
    distributional or numerical effect.
    """
    keep = rr_keep_probability(epsilon)
    n = graph.num_nodes
    codes = graph.edge_codes
    non_edges = pair_count(n) - codes.size
    perturbed: List[Graph] = []
    for rng in rngs:
        generator = ensure_rng(rng)
        merged = _perturbed_codes(codes, n, non_edges, keep, generator)
        perturbed.append(Graph.from_codes(n, merged, assume_sorted_unique=True))
    return perturbed


def perturb_graph_stream(
    graph: Graph,
    epsilon: float,
    rng: RngLike = None,
    *,
    block_rows: int | None = None,
    max_bytes: int | None = None,
) -> Tuple[Graph, Iterator[Tuple[int, int, np.ndarray]]]:
    """Randomized response served as packed per-user row blocks.

    Returns ``(perturbed, blocks)``: the perturbed graph in its sparse pair
    code form — the irreducible O(E') representation — plus an iterator of
    ``(start, stop, rows)`` packed uint64 row blocks of its adjacency
    matrix, block height honouring ``REPRO_DENSE_MAX_BYTES`` by default.
    The full ``n^2/8``-byte matrix is never materialized: each block is
    built on demand from the sorted codes and dropped when the consumer
    moves on.

    RNG identity: the sampling happens **eagerly in this call** through the
    same core as :func:`perturb_graph` — the stream consumes its generator
    draw-for-draw identically to the in-memory path, and ``perturbed``
    equals ``perturb_graph(graph, epsilon, rng)`` bit for bit for any block
    height (block iteration itself draws nothing).
    """
    perturbed = perturb_graph(graph, epsilon, rng)
    blocks = iter_packed_row_blocks(perturbed, block_rows, max_bytes=max_bytes)
    return perturbed, blocks


def expected_perturbed_degree(degree: float, num_nodes: int, epsilon: float) -> float:
    """Expected degree of a node after randomized response.

    ``E[d~] = d p + (N - 1 - d)(1 - p)``: surviving true edges plus flipped
    non-edges.  This is the quantity the attacker computes from public
    protocol parameters to size its connection budget.
    """
    check_non_negative(degree, "degree")
    keep = rr_keep_probability(epsilon)
    return degree * keep + (num_nodes - 1 - degree) * (1.0 - keep)


def expected_perturbed_average_degree(graph: Graph, epsilon: float) -> float:
    """Expected *average* degree of the perturbed graph.

    The paper's attacks cap each fake node's crafted connection count at this
    value (``d~`` in Theorems 1 and 2) so that fake reports blend in with the
    degree distribution genuine perturbed reports exhibit.
    """
    if graph.num_nodes == 0:
        return 0.0
    average = graph.degrees().mean()
    return expected_perturbed_degree(float(average), graph.num_nodes, epsilon)


def attacker_connection_budget(graph: Graph, epsilon: float) -> int:
    """Number of crafted connections a fake node may claim without standing out.

    ``floor`` of :func:`expected_perturbed_average_degree`, but at least 1 so
    every attack can act even at extreme privacy settings.
    """
    return max(1, int(expected_perturbed_average_degree(graph, epsilon)))
