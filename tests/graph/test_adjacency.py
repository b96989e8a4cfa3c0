"""Tests for repro.graph.adjacency.Graph."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.adjacency import Graph
from repro.utils.sparse import pair_count


@pytest.fixture
def triangle_plus_isolated():
    """Triangle 0-1-2 plus isolated node 3."""
    return Graph(4, [(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_empty(self):
        g = Graph(0)
        assert g.num_nodes == 0 and g.num_edges == 0

    def test_isolated_nodes(self):
        g = Graph(5)
        assert g.num_nodes == 5 and g.num_edges == 0
        assert np.array_equal(g.degrees(), np.zeros(5))

    def test_duplicate_edges_collapse(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            Graph(3, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(3, [(0, 3)])

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            Graph(3, [(0, 1, 2)])

    def test_ndarray_edges(self):
        edges = np.array([[0, 1], [2, 1], [1, 0], [3, 2]])
        assert Graph(4, edges) == Graph(4, [(0, 1), (2, 1), (1, 0), (3, 2)])
        assert Graph(4, np.empty((0, 2), dtype=np.int64)) == Graph(4)
        with pytest.raises(ValueError, match="pairs"):
            Graph(4, np.array([0, 1, 2]))

    def test_negative_num_nodes_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_from_codes(self):
        g = Graph.from_codes(4, np.array([0, 5], dtype=np.int64))
        assert g.has_edge(0, 1) and g.has_edge(2, 3)

    def test_from_codes_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_codes(4, np.array([pair_count(4)], dtype=np.int64))

    def test_from_codes_sorted_unique_fast_path(self):
        codes = np.array([0, 3, 5], dtype=np.int64)
        fast = Graph.from_codes(4, codes, assume_sorted_unique=True)
        assert fast == Graph.from_codes(4, codes)
        assert fast.degrees().tolist() == Graph.from_codes(4, codes).degrees().tolist()

    def test_from_codes_fast_path_freezes_adopted_array(self):
        # The fast path adopts the buffer without copying; mutating it
        # afterwards must fail loudly rather than corrupt the graph.
        codes = np.array([0, 3, 5], dtype=np.int64)
        Graph.from_codes(4, codes, assume_sorted_unique=True)
        with pytest.raises(ValueError):
            codes[0] = 2

    def test_from_codes_fast_path_copies_views(self):
        # Freezing a view would not stop writes through its base, so views
        # are copied instead of adopted.
        base = np.array([0, 3, 5, 99], dtype=np.int64)
        g = Graph.from_codes(4, base[:3], assume_sorted_unique=True)
        base[0] = 4
        assert g.edge_codes.tolist() == [0, 3, 5]

    def test_from_codes_fast_path_still_range_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_codes(4, np.array([0, pair_count(4)], dtype=np.int64), assume_sorted_unique=True)
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_codes(4, np.array([-1, 2], dtype=np.int64), assume_sorted_unique=True)


class TestQueries:
    def test_neighbors(self, triangle_plus_isolated):
        g = triangle_plus_isolated
        assert g.neighbors(0).tolist() == [1, 2]
        assert g.neighbors(3).tolist() == []

    def test_degrees(self, triangle_plus_isolated):
        assert triangle_plus_isolated.degrees().tolist() == [2, 2, 2, 0]

    def test_degree_single(self, triangle_plus_isolated):
        assert triangle_plus_isolated.degree(1) == 2

    def test_has_edge_symmetry(self, triangle_plus_isolated):
        g = triangle_plus_isolated
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 3)
        assert not g.has_edge(2, 2)

    def test_node_range_checked(self, triangle_plus_isolated):
        with pytest.raises(IndexError):
            triangle_plus_isolated.neighbors(4)
        with pytest.raises(IndexError):
            triangle_plus_isolated.degree(-1)

    def test_edges_iteration(self, triangle_plus_isolated):
        assert sorted(triangle_plus_isolated.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_csr_symmetric(self, triangle_plus_isolated):
        matrix = triangle_plus_isolated.csr()
        dense = matrix.toarray()
        assert np.array_equal(dense, dense.T)
        assert dense.sum() == 6  # 3 edges, both directions

    def test_degrees_read_only(self, triangle_plus_isolated):
        with pytest.raises(ValueError):
            triangle_plus_isolated.degrees()[0] = 99

    def test_edge_codes_read_only(self, triangle_plus_isolated):
        with pytest.raises(ValueError):
            triangle_plus_isolated.edge_codes[0] = 99


class TestEdits:
    def test_with_edges(self, triangle_plus_isolated):
        g2 = triangle_plus_isolated.with_edges([(0, 3)])
        assert g2.has_edge(0, 3)
        assert not triangle_plus_isolated.has_edge(0, 3), "original must be untouched"

    def test_with_edges_idempotent(self, triangle_plus_isolated):
        g2 = triangle_plus_isolated.with_edges([(0, 1)])
        assert g2.num_edges == 3

    def test_with_edges_empty_returns_self(self, triangle_plus_isolated):
        assert triangle_plus_isolated.with_edges([]) is triangle_plus_isolated

    def test_without_edges(self, triangle_plus_isolated):
        g2 = triangle_plus_isolated.without_edges([(0, 1)])
        assert not g2.has_edge(0, 1)
        assert g2.num_edges == 2

    def test_without_missing_edge_ignored(self, triangle_plus_isolated):
        g2 = triangle_plus_isolated.without_edges([(0, 3)])
        assert g2.num_edges == 3

    def test_subgraph(self, triangle_plus_isolated):
        sub = triangle_plus_isolated.subgraph([0, 1, 3])
        assert sub.num_nodes == 3
        assert sub.num_edges == 1
        assert sub.has_edge(0, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_subgraph_matches_relabelled_edges(self, seed):
        # Ascending nodes build from the re-encoded codes directly; any
        # other order goes through np.unique.  Both equal the induced edges.
        rng = np.random.default_rng(seed)
        g = Graph.from_codes(30, np.flatnonzero(rng.random(pair_count(30)) < 0.3))
        for nodes in (np.sort(rng.choice(30, 12, replace=False)),
                      rng.choice(30, 12, replace=False),
                      np.arange(30), np.empty(0, dtype=np.int64)):
            label = {int(node): i for i, node in enumerate(nodes)}
            expected = Graph(nodes.size, [
                (label[u], label[v]) for u, v in g.edges() if u in label and v in label
            ])
            assert g.subgraph(nodes) == expected

    def test_subgraph_duplicate_nodes_rejected(self, triangle_plus_isolated):
        with pytest.raises(ValueError, match="unique"):
            triangle_plus_isolated.subgraph([0, 0, 1])


class TestLazyIndex:
    """The CSR index is built on first neighbour query, not at construction."""

    def test_degrees_available_without_csr(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0)])
        assert g._indices is None
        assert g.degrees().tolist() == [2, 2, 2, 0]
        assert g._indices is None, "degrees must not force the CSR build"

    def test_neighbors_builds_and_caches(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 0)])
        assert g.neighbors(0).tolist() == [1, 2]
        index = g._indices
        g.neighbors(2)
        assert g._indices is index, "CSR index built once and cached"

    def test_neighbors_sorted_after_lazy_build(self):
        # Buckets mix smaller-id and larger-id neighbours; the stable
        # single-key sort must still leave each bucket ascending.
        g = Graph(6, [(2, 4), (0, 2), (2, 5), (1, 2), (2, 3)])
        assert g.neighbors(2).tolist() == [0, 1, 3, 4, 5]

    def test_pickle_round_trip(self, triangle_plus_isolated):
        import pickle

        g = triangle_plus_isolated
        g.neighbors(0)  # populate the lazy caches before pickling
        clone = pickle.loads(pickle.dumps(g))
        assert clone == g
        assert clone.degrees().tolist() == g.degrees().tolist()
        assert clone.neighbors(1).tolist() == g.neighbors(1).tolist()


class TestNetworkxInterop:
    def test_round_trip(self, triangle_plus_isolated):
        nx_graph = triangle_plus_isolated.to_networkx()
        back = Graph.from_networkx(nx_graph)
        assert back == triangle_plus_isolated

    def test_from_networkx_relabels(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge("alice", "bob")
        g = Graph.from_networkx(nx_graph)
        assert g.num_nodes == 2 and g.num_edges == 1


class TestEquality:
    def test_equal(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])

    def test_not_equal_edges(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(0, 2)])

    def test_not_equal_sizes(self):
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])

    def test_hashable(self):
        assert len({Graph(3, [(0, 1)]), Graph(3, [(1, 0)])}) == 1

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(num_nodes=3, num_edges=1)"


@given(
    n=st.integers(min_value=2, max_value=60),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_graph_invariants_property(n, data):
    """Degree sum equals 2E, neighbour lists are symmetric and sorted."""
    max_edges = min(pair_count(n), 80)
    edge_list = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=max_edges,
        )
    )
    g = Graph(n, edge_list)
    assert g.degrees().sum() == 2 * g.num_edges
    for node in range(n):
        nbrs = g.neighbors(node)
        assert np.all(np.diff(nbrs) > 0), "neighbours sorted and unique"
        for nbr in nbrs.tolist():
            assert node in g.neighbors(nbr).tolist(), "symmetry"


def _shared_round_trip(graph):
    handle, segment = graph.to_shared()
    try:
        attached, view = Graph.attach_shared(handle)
        codes = attached.edge_codes.copy()
        del attached
        view.close()
    finally:
        segment.close()
        segment.unlink()
    return codes


class TestDeferred:
    """A deferred graph knows its size at once and builds its codes on the
    first read, once."""

    @staticmethod
    def deferred(builds):
        reference = Graph(5, [(0, 1), (1, 2), (2, 4), (3, 4)])

        def build():
            builds.append(1)
            return reference.edge_codes.copy()

        return Graph._deferred(5, reference.num_edges, build), reference

    def test_size_and_seeded_degrees_do_not_build(self):
        builds = []
        graph, reference = self.deferred(builds)
        graph._seed_degrees(reference.degrees())
        assert graph.num_nodes == 5 and graph.num_edges == 4
        assert np.array_equal(graph.degrees(), reference.degrees())
        assert repr(graph) == repr(reference)
        assert builds == []

    @pytest.mark.parametrize(
        "read",
        [
            lambda g: g.edge_codes,
            lambda g: g == Graph(5),
            lambda g: hash(g),
            lambda g: pickle.dumps(g),
            lambda g: g.csr(),
            lambda g: g.subgraph([0, 1, 2]),
            lambda g: g.neighbors(1),
            lambda g: g.has_edge(0, 1),
            lambda g: _shared_round_trip(g),
        ],
        ids=["codes", "eq", "hash", "pickle", "csr", "subgraph", "neighbors", "has_edge",
             "to_shared"],
    )
    def test_every_code_reader_builds_once(self, read):
        builds = []
        graph, reference = self.deferred(builds)
        read(graph)
        read(graph)
        assert builds == [1]
        assert graph == reference and hash(graph) == hash(reference)
        assert not graph.edge_codes.flags.writeable
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == reference and clone._pending is None
        assert np.array_equal(_shared_round_trip(graph), reference.edge_codes)
