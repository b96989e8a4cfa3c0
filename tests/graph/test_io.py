"""Tests for repro.graph.io."""

import numpy as np
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


class TestDuplicatePass:
    """Duplicate detection runs once over the whole file; the blamed line
    and its first-occurrence reference are a sequential parse's."""

    def test_duplicate_far_from_first_occurrence(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n2 3\n4 5\n1 0\n")
        with pytest.raises(
            ValueError, match=r"edges\.txt:4: duplicate edge 1 0 \(first at line 1"
        ):
            read_edge_list(path)

    def test_buffered_duplicate_outranks_later_inline_error(self, tmp_path):
        # The duplicate on line 2 is only detected by the duplicate pass,
        # which has not run when the self-loop on line 3 is hit; the earlier
        # offence must win.
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n1 0\n2 2\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: duplicate edge"):
            read_edge_list(path)

    def test_triple_repeat_blames_first_occurrence(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("5 6\n0 1\n6 5\n5 6\n")
        with pytest.raises(
            ValueError, match=r"edges\.txt:3: duplicate edge 6 5 \(first at line 1"
        ):
            read_edge_list(path)

    def test_wide_ids_parse(self, tmp_path):
        wide = 1 << 40
        path = tmp_path / "edges.txt"
        path.write_text(f"{wide} {wide + 1}\n{wide + 1} {wide}\n")
        with pytest.raises(ValueError, match=r"edges\.txt:2: duplicate edge"):
            read_edge_list(path)
        path.write_text(f"{wide} {wide + 1}\n0 {wide}\n")
        g = read_edge_list(path)
        assert g == Graph(3, [(0, 1), (2, 0)])

    def test_ids_beyond_int64_parse(self, tmp_path):
        # SNAP's Google+ release uses 21-digit ids, beyond the int64 range.
        big = 116374117927631468606
        path = tmp_path / "edges.txt"
        path.write_text(f"{big} 3\n{(1 << 63) - 1} {big}\n3 {big + 1}\n")
        g = read_edge_list(path)
        assert g == Graph(4, [(0, 1), (2, 0), (1, 3)])
        path.write_text(f"0 {big}\n1 2\n{big} 0\n")
        with pytest.raises(
            ValueError, match=rf"edges\.txt:3: duplicate edge {big} 0 \(first at line 1"
        ):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# nothing but comments\n\n")
        g = read_edge_list(path)
        assert (g.num_nodes, g.num_edges) == (0, 0)
        assert read_edge_list(path, num_nodes=4).num_nodes == 4


def _reference_read_edge_list(
    path, num_nodes=None, *, allow_self_loops=False, allow_duplicates=False
):
    """Line-by-line reference parser: one dict lookup per edge."""
    raw_edges = []
    seen = {}
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
                raise ValueError(f"{path}:{line_number}: negative node id {min(u, v)}")
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
    mapping = {}
    for u, v in raw_edges:
        if u not in mapping:
            mapping[u] = len(mapping)
        if v not in mapping:
            mapping[v] = len(mapping)
    return Graph(len(mapping), [(mapping[u], mapping[v]) for u, v in raw_edges])


def _random_edge_file(rng):
    """A small edge list mixing valid edges with every kind of damage."""
    wide = (1 << 40, (1 << 63) - 5, 116374117927631468606)
    lines = []
    for _ in range(int(rng.integers(0, 25))):
        kind = rng.random()
        u = int(rng.integers(0, 9))
        v = (u + 1 + int(rng.integers(0, 8))) % 9
        if kind < 0.70:
            lines.append(f"{u} {v}" if rng.random() < 0.8 else f"{u}\t{v} {u}")
        elif kind < 0.78:
            lines.append(f"{wide[u % 3] + u} {v}")
        elif kind < 0.84:
            lines.append(rng.choice(["# comment", "", "   "]))
        elif kind < 0.88:
            lines.append(f"{u} {u}")
        elif kind < 0.91:
            lines.append(f"{u}")
        elif kind < 0.94:
            lines.append(rng.choice([f"{u} x", f"{u}.5 {v}"]))
        elif kind < 0.97:
            lines.append(f"-{u + 1} {v}")
        else:
            lines.append(f"{u} {v + 100}")
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


def _outcome(reader, path, options):
    try:
        return reader(path, **options)
    except ValueError as error:
        return str(error)


@pytest.mark.parametrize(
    "options",
    [
        {},
        {"allow_self_loops": True},
        {"allow_duplicates": True},
        {"allow_self_loops": True, "allow_duplicates": True},
        {"num_nodes": 9, "allow_duplicates": True},
    ],
    ids=["strict", "loops", "duplicates", "lenient", "num_nodes"],
)
def test_matches_line_by_line_reference(tmp_path, options):
    """Same graph or the exact same error message as the reference parser."""
    rng = np.random.default_rng(2024)
    path = tmp_path / "edges.txt"
    for _ in range(300):
        text = _random_edge_file(rng)
        path.write_text(text)
        expected = _outcome(_reference_read_edge_list, path, options)
        assert _outcome(read_edge_list, path, options) == expected, text
