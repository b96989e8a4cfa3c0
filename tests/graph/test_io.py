"""Tests for repro.graph.io."""

import pytest

from repro.graph.adjacency import Graph
from repro.graph.io import read_edge_list


class TestRead:
    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_snap_preamble_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text(
            "# Undirected graph: each unordered pair of nodes is saved once\n"
            "# Nodes: 6 Edges: 3\n"
            "# FromNodeId\tToNodeId\n"
            "0\t5\n1\t2\n1\t4\n"
        )
        assert read_edge_list(path, num_nodes=6) == Graph(6, [(0, 5), (1, 2), (1, 4)])

    def test_compaction(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("100 200\n200 300\n")
        g = read_edge_list(path)
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_self_loops_rejected_by_default(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 0\n0 1\n")
        with pytest.raises(ValueError, match=r"edges\.txt:1: self-loop 0 0"):
            read_edge_list(path)

    def test_self_loops_skipped_on_opt_out(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 0\n0 1\n")
        g = read_edge_list(path, allow_self_loops=True)
        assert g.num_edges == 1

    def test_explicit_num_nodes(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n")
        g = read_edge_list(path, num_nodes=10)
        assert g.num_nodes == 10

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError, match="expected 'u v'"):
            read_edge_list(path)

    def test_non_integer_id_names_the_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 two\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: non-integer"):
            read_edge_list(path)

    def test_negative_id_names_the_line(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n-3 2\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: negative node id -3"):
            read_edge_list(path)

    def test_id_out_of_range_for_num_nodes(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 7\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: node id 7 out of range"):
            read_edge_list(path, num_nodes=5)

    def test_duplicate_edges_rejected_by_default(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(
            ValueError, match=r"edges\.txt:2: duplicate edge 1 0 \(first at line 1"
        ):
            read_edge_list(path)

    def test_duplicate_edges_collapse_on_opt_out(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 0\n0 1\n")
        g = read_edge_list(path, allow_duplicates=True)
        assert g.num_edges == 1


class TestChunkedParsing:
    """The vectorized chunked parser must be invariant in chunk_lines."""

    def test_chunk_size_invariance(self, tmp_path):
        path = tmp_path / "edges.txt"
        lines = ["# header"] + [f"{i} {i + 1}" for i in range(50)]
        path.write_text("\n".join(lines) + "\n")
        reference = read_edge_list(path, chunk_lines=1 << 20)
        for chunk_lines in (1, 2, 7, 50, 51):
            assert read_edge_list(path, chunk_lines=chunk_lines) == reference

    def test_duplicate_across_chunk_boundary(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 3\n4 5\n1 0\n")
        with pytest.raises(
            ValueError, match=r"edges\.txt:4: duplicate edge 1 0 \(first at line 1"
        ):
            read_edge_list(path, chunk_lines=2)

    def test_buffered_duplicate_outranks_later_inline_error(self, tmp_path):
        # The duplicate on line 2 sits in the pending chunk when the
        # self-loop on line 3 is hit; the earlier offence must win.
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 0\n2 2\n")
        for chunk_lines in (1, 2, 3, 1 << 20):
            with pytest.raises(ValueError, match=r"edges\.txt:2: duplicate edge"):
                read_edge_list(path, chunk_lines=chunk_lines)

    def test_triple_repeat_blames_first_occurrence(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("5 6\n0 1\n6 5\n")
        with pytest.raises(ValueError, match=r"\(first at line 1"):
            read_edge_list(path, chunk_lines=2)

    def test_wide_ids_fall_back_to_exact_parse(self, tmp_path):
        wide = 1 << 40
        path = tmp_path / "edges.txt"
        path.write_text(f"{wide} {wide + 1}\n{wide + 1} {wide}\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: duplicate edge"):
            read_edge_list(path)
        path.write_text(f"{wide} {wide + 1}\n0 {wide}\n")
        g = read_edge_list(path)
        assert (g.num_nodes, g.num_edges) == (3, 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing but comments\n\n")
        g = read_edge_list(path)
        assert (g.num_nodes, g.num_edges) == (0, 0)
        assert read_edge_list(path, num_nodes=4).num_nodes == 4
