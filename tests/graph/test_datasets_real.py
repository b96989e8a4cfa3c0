"""Real-dataset ingestion: fetch-once cache, checksums, staleness, CLI."""

import gzip
import io
import json

import pytest

from repro.graph.datasets import (
    REAL_DATASETS,
    RealDatasetSpec,
    _load_real_memo,
    cached_dataset_path,
    dataset_cache_dir,
    fetch_dataset,
    known_dataset_names,
    load_dataset,
    load_real_dataset,
    lookup_spec,
)

SNAP_TEXT = (
    "# Undirected graph: fake.txt\n"
    "# Nodes: 5 Edges: 4\n"
    "# FromNodeId\tToNodeId\n"
    "10\t20\n"
    "20\t10\n"
    "20\t30\n"
    "30\t30\n"
    "40\t50\n"
    "10\t40\n"
)


@pytest.fixture
def fake_dataset(tmp_path, monkeypatch):
    """A registered fake real dataset backed by a local gzip file."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    source = tmp_path / "fake.txt.gz"
    source.write_bytes(gzip.compress(SNAP_TEXT.encode()))
    spec = RealDatasetSpec(
        name="snap-fake",
        url="https://invalid.example/fake.txt.gz",
        paper_nodes=5,
        paper_edges=4,
        description="test fixture",
    )
    monkeypatch.setitem(REAL_DATASETS, "snap-fake", spec)
    _load_real_memo.cache_clear()
    yield source
    _load_real_memo.cache_clear()


class TestFetch:
    def test_fetch_parses_and_caches(self, fake_dataset):
        assert cached_dataset_path("snap-fake") is None
        path = fetch_dataset("snap-fake", source=fake_dataset)
        assert path.name == "graph.npz"
        assert cached_dataset_path("snap-fake") == path
        graph = load_real_dataset("snap-fake")
        # 5 distinct ids remapped densely; dup direction and self-loop dropped.
        assert (graph.num_nodes, graph.num_edges) == (5, 4)

    def test_fetch_is_idempotent(self, fake_dataset):
        first = fetch_dataset("snap-fake", source=fake_dataset)
        second = fetch_dataset("snap-fake", source=fake_dataset)
        assert first == second

    def test_plain_text_source(self, fake_dataset, tmp_path):
        plain = tmp_path / "fake.txt"
        plain.write_text(SNAP_TEXT)
        path = fetch_dataset("snap-fake", source=plain)
        # gzip and plain sources hash the same decompressed bytes → same entry.
        assert path == fetch_dataset("snap-fake", source=fake_dataset, force=True)

    def test_meta_records_provenance(self, fake_dataset):
        path = fetch_dataset("snap-fake", source=fake_dataset)
        meta = json.loads((path.parent / "meta.json").read_text())
        assert meta["name"] == "snap-fake"
        assert meta["num_nodes"] == 5
        assert meta["num_edges"] == 4
        assert path.parent.name == meta["sha256"][:16]

    def test_pinned_checksum_mismatch_refuses_cache(self, fake_dataset, monkeypatch):
        spec = REAL_DATASETS["snap-fake"]
        monkeypatch.setitem(
            REAL_DATASETS,
            "snap-fake",
            RealDatasetSpec(
                name=spec.name,
                url=spec.url,
                paper_nodes=spec.paper_nodes,
                paper_edges=spec.paper_edges,
                description=spec.description,
                sha256="0" * 64,
            ),
        )
        with pytest.raises(RuntimeError, match="checksum mismatch"):
            fetch_dataset("snap-fake", source=fake_dataset)
        assert cached_dataset_path("snap-fake") is None

    def test_offline_error_names_source_flag(self, fake_dataset):
        with pytest.raises(RuntimeError, match="--source"):
            fetch_dataset("snap-fake", force=True)

    def test_unknown_name(self, fake_dataset):
        with pytest.raises(KeyError, match="unknown real dataset"):
            fetch_dataset("snap-nope")


class TestLoad:
    def test_unfetched_load_is_actionable(self, fake_dataset):
        with pytest.raises(RuntimeError, match="dataset fetch snap-fake"):
            load_real_dataset("snap-fake")

    def test_load_dataset_dispatches_real_names(self, fake_dataset):
        fetch_dataset("snap-fake", source=fake_dataset)
        graph = load_dataset("snap-fake")
        assert graph == load_real_dataset("snap-fake")

    def test_scale_keeps_prefix_subgraph(self, fake_dataset):
        fetch_dataset("snap-fake", source=fake_dataset)
        # min node floor is 64 > 5, so any scale returns the full graph here.
        assert load_real_dataset("snap-fake", scale=0.5).num_nodes == 5
        with pytest.raises(ValueError):
            load_real_dataset("snap-fake", scale=1.5)

    @pytest.mark.parametrize("scale", [0, 0.0, -0.0, -0.5, True, float("nan")])
    def test_scale_outside_unit_interval_is_rejected(self, fake_dataset, scale):
        fetch_dataset("snap-fake", source=fake_dataset)
        with pytest.raises(ValueError, match="scale"):
            load_real_dataset("snap-fake", scale=scale)
        with pytest.raises(ValueError, match="scale"):
            load_dataset("snap-fake", scale=scale)

    def test_refetch_invalidates_memo(self, fake_dataset, tmp_path):
        fetch_dataset("snap-fake", source=fake_dataset)
        before = load_real_dataset("snap-fake")
        assert before.num_edges == 4
        changed = tmp_path / "changed.txt"
        changed.write_text(SNAP_TEXT + "20\t40\n")
        fetch_dataset("snap-fake", source=changed, force=True)
        after = load_real_dataset("snap-fake")
        # New content → new digest directory → memo keyed on path misses.
        assert after.num_edges == 5

    def test_corrupt_npz_fails_checksum(self, fake_dataset):
        path = fetch_dataset("snap-fake", source=fake_dataset)
        _load_real_memo.cache_clear()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(RuntimeError, match="fails its checksum"):
            load_real_dataset("snap-fake")

    def test_damaged_meta_is_actionable(self, fake_dataset):
        path = fetch_dataset("snap-fake", source=fake_dataset)
        _load_real_memo.cache_clear()
        (path.parent / "meta.json").write_text("{not json")
        with pytest.raises(RuntimeError, match="--force"):
            load_real_dataset("snap-fake")


class TestRegistry:
    def test_known_names_cover_both_registries(self):
        names = known_dataset_names()
        assert "facebook" in names
        assert "snap-facebook" in names

    def test_lookup_spec_returns_real_spec(self):
        spec = lookup_spec("snap-enron")
        assert isinstance(spec, RealDatasetSpec)
        assert spec.paper_nodes == 36_692

    def test_cache_dir_lives_next_to_result_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert dataset_cache_dir("snap-facebook") == (
            tmp_path / "datasets" / "snap-facebook"
        )


class TestCli:
    def run_cli(self, *argv):
        from repro.experiments.cli import run

        out = io.StringIO()
        code = run(list(argv), out=out)
        return code, out.getvalue()

    def test_dataset_list(self, fake_dataset):
        code, text = self.run_cli("dataset", "list")
        assert code == 0
        assert "snap-fake" in text
        assert "facebook" in text

    def test_dataset_fetch_and_stats(self, fake_dataset):
        code, text = self.run_cli(
            "dataset", "fetch", "snap-fake", "--source", str(fake_dataset)
        )
        assert code == 0
        assert "cached snap-fake" in text
        code, text = self.run_cli("dataset", "stats", "snap-fake")
        assert code == 0
        assert "5" in text and "4" in text

    def test_dataset_fetch_failure_exits_nonzero(self, fake_dataset):
        code, text = self.run_cli("dataset", "fetch", "snap-fake")
        assert code == 1
        assert "--source" in text
