"""Tests for repro.graph.datasets (Table II surrogates)."""

import hashlib

import numpy as np
import pytest

from repro.graph.datasets import DATASETS, dataset_statistics, load_dataset
from repro.graph.metrics import average_degree


class TestRegistry:
    def test_all_four_datasets_present(self):
        assert set(DATASETS) == {"facebook", "enron", "astroph", "gplus"}

    def test_paper_statistics_recorded(self):
        assert DATASETS["facebook"].paper_nodes == 4039
        assert DATASETS["facebook"].paper_edges == 88234
        assert DATASETS["enron"].paper_nodes == 36692
        assert DATASETS["astroph"].paper_edges == 198110
        assert DATASETS["gplus"].paper_edges == 12238285

    def test_average_degree_property(self):
        spec = DATASETS["facebook"]
        assert spec.paper_average_degree == pytest.approx(2 * 88234 / 4039)

    def test_nodes_at_scale(self):
        spec = DATASETS["enron"]
        assert spec.nodes_at_scale(1.0) == 36692
        assert spec.nodes_at_scale(0.1) == 3669
        assert spec.nodes_at_scale(0.0001) == 64  # floor

    @pytest.mark.parametrize(
        "scale", [1.5, 0, 0.0, -0.0, -0.25, True, False, float("nan")]
    )
    def test_scale_out_of_range(self, scale):
        """(0, 1] is the contract: zero, negative zero and booleans must not
        fall through to the 64-node floor or to the full graph."""
        with pytest.raises(ValueError, match="scale"):
            DATASETS["enron"].nodes_at_scale(scale)
        with pytest.raises(ValueError, match="scale"):
            load_dataset("facebook", scale=scale)


class TestLoadDataset:
    def test_facebook_full_size_by_default(self):
        g = load_dataset("facebook")
        assert g.num_nodes == 4039

    def test_deterministic_default_load(self):
        assert load_dataset("facebook") == load_dataset("facebook")

    def test_seed_changes_surrogate(self):
        assert load_dataset("facebook", rng=1) != load_dataset("facebook", rng=2)

    @pytest.mark.parametrize("name", ["facebook", "enron", "astroph", "gplus"])
    def test_average_degree_matches_paper(self, name):
        g = load_dataset(name, scale=0.05)
        spec = DATASETS[name]
        target = min(spec.paper_average_degree, g.num_nodes / 4.0)
        assert average_degree(g) == pytest.approx(target, rel=0.25)

    def test_scale_shrinks_graph(self):
        small = load_dataset("enron", scale=0.05)
        bigger = load_dataset("enron", scale=0.1)
        assert small.num_nodes < bigger.num_nodes

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            load_dataset("twitter")

    def test_case_insensitive(self):
        assert load_dataset("Facebook", scale=0.02).num_nodes > 0

    @pytest.mark.parametrize("name,scale,digest", [
        ("gplus", 0.0078,
         "e7e1e72a6130773b10e8c3b0f088ecb5460f21a19ca1f48dca4f5dcebfd0a1f9"),
        ("facebook", 0.2,
         "883868e0550ef6748ae584fad8e8d3397a41b7fa7ae68dc95997e4a7472e0bc5"),
    ])
    def test_surrogate_edge_codes_are_pinned(self, name, scale, digest):
        """Surrogate generation is output-frozen: any change to the
        Holme–Kim replica that moves one edge moves this digest."""
        codes = np.ascontiguousarray(load_dataset(name, scale=scale).edge_codes)
        assert codes.dtype == np.int64
        assert hashlib.sha256(codes.tobytes()).hexdigest() == digest

    def test_statistics_helper(self):
        nodes, edges = dataset_statistics("facebook", scale=0.05)
        assert nodes == max(64, round(4039 * 0.05))
        assert edges > 0


class TestMemoization:
    """Per-process surrogate memo: deterministic loads generate once."""

    def test_integer_seed_loads_share_one_graph(self):
        first = load_dataset("facebook", scale=0.02, rng=0)
        second = load_dataset("facebook", scale=0.02, rng=0)
        assert second is first, "same (name, scale, seed) must memoize"

    def test_default_scale_and_explicit_scale_share_the_entry(self):
        spec = DATASETS["enron"]
        assert load_dataset("enron", scale=0.02) is load_dataset("enron", scale=0.02)
        assert load_dataset("enron") is load_dataset("enron", scale=spec.default_scale)

    def test_memo_keys_on_every_argument(self):
        base = load_dataset("facebook", scale=0.02, rng=0)
        assert load_dataset("facebook", scale=0.03, rng=0) is not base
        assert load_dataset("facebook", scale=0.02, rng=1) is not base
        assert load_dataset("enron", scale=0.02, rng=0) is not base

    def test_generator_rng_bypasses_memo(self):
        import numpy as np

        gen = np.random.default_rng(0)
        first = load_dataset("facebook", scale=0.02, rng=gen)
        second = load_dataset("facebook", scale=0.02, rng=gen)
        assert first is not second, "stateful generators must not memoize"

    def test_memo_is_bounded(self):
        from repro.graph.datasets import _MEMO_SIZE, _load_dataset_memo

        _load_dataset_memo.cache_clear()
        for seed in range(_MEMO_SIZE + 4):
            load_dataset("facebook", scale=0.02, rng=seed)
        assert _load_dataset_memo.cache_info().currsize <= _MEMO_SIZE
