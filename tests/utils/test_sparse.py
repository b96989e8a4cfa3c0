"""Tests for repro.utils.sparse, including hypothesis round-trip properties."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils import sparse
from repro.utils.sparse import (
    decode_pairs,
    encode_pairs,
    merge_sorted_disjoint,
    pair_count,
    sample_pairs_excluding,
    sorted_union,
    sorted_unique,
)


class TestPairCount:
    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 0), (2, 1), (4, 6), (100, 4950)])
    def test_values(self, n, expected):
        assert pair_count(n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pair_count(-1)


class TestEncodeDecode:
    def test_known_codes(self):
        # For n=4 the upper-triangle row-major order is
        # (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5.
        rows = np.array([0, 0, 0, 1, 1, 2])
        cols = np.array([1, 2, 3, 2, 3, 3])
        codes = encode_pairs(rows, cols, 4)
        assert codes.tolist() == [0, 1, 2, 3, 4, 5]

    def test_orientation_invariant(self):
        a = encode_pairs(np.array([2]), np.array([5]), 10)
        b = encode_pairs(np.array([5]), np.array([2]), 10)
        assert a[0] == b[0]

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            encode_pairs(np.array([1]), np.array([1]), 4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            encode_pairs(np.array([0]), np.array([4]), 4)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="same shape"):
            encode_pairs(np.array([0, 1]), np.array([1]), 4)

    def test_decode_rejects_bad_codes(self):
        with pytest.raises(ValueError, match="out of range"):
            decode_pairs(np.array([6]), 4)

    @given(
        n=st.integers(min_value=2, max_value=2000),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, n, data):
        total = pair_count(n)
        codes = data.draw(
            st.lists(st.integers(min_value=0, max_value=total - 1), min_size=1, max_size=50)
        )
        codes = np.array(codes, dtype=np.int64)
        rows, cols = decode_pairs(codes, n)
        assert np.all(rows < cols)
        assert np.all(rows >= 0) and np.all(cols < n)
        recoded = encode_pairs(rows, cols, n)
        assert np.array_equal(recoded, codes)

    def test_full_round_trip_small_n(self):
        for n in range(2, 30):
            codes = np.arange(pair_count(n), dtype=np.int64)
            rows, cols = decode_pairs(codes, n)
            assert np.array_equal(encode_pairs(rows, cols, n), codes)


def reference_decode(codes, n):
    """Per-code binary search over the row starts (the pre-row-run decode)."""
    codes = np.asarray(codes, dtype=np.int64)
    i = np.arange(n, dtype=np.int64)
    row_starts = i * n - i * (i + 1) // 2
    rows = np.searchsorted(row_starts, codes, side="right") - 1
    return rows, codes - row_starts[rows] + rows + 1


class TestDecodeRowRuns:
    """Row-run decode of ascending codes equals the per-code binary search."""

    def assert_decodes_like_reference(self, codes, n):
        rows, cols = decode_pairs(codes, n)
        expected_rows, expected_cols = reference_decode(codes, n)
        assert rows.dtype == cols.dtype == np.int64
        assert np.array_equal(rows, expected_rows)
        assert np.array_equal(cols, expected_cols)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 200, 1000])
    @pytest.mark.parametrize("density", [0.001, 0.05, 0.5, 1.0])
    def test_sorted_codes(self, n, density):
        rng = np.random.default_rng(n)
        total = pair_count(n)
        count = max(1, int(density * total))
        codes = np.sort(rng.choice(total, size=count, replace=False))
        self.assert_decodes_like_reference(codes, n)

    @pytest.mark.parametrize("n", [2, 65, 1000])
    def test_unsorted_and_duplicated_codes(self, n):
        rng = np.random.default_rng(n + 1)
        codes = rng.integers(0, pair_count(n), size=3 * n)
        self.assert_decodes_like_reference(codes, n)
        self.assert_decodes_like_reference(np.sort(codes), n)  # ascending, repeats
        self.assert_decodes_like_reference(np.sort(codes)[::-1], n)

    def test_fewer_codes_than_a_quarter_of_n(self):
        n = 1000
        codes = np.array([0, 5, 998, 999, 1500, pair_count(n) - 1], dtype=np.int64)
        assert codes.size < n // 4
        self.assert_decodes_like_reference(codes, n)

    def test_first_and_last_rows_and_single_code(self):
        n = 70
        codes = np.array([0, pair_count(n) - 1], dtype=np.int64)
        rows, cols = decode_pairs(codes, n)
        assert rows.tolist() == [0, n - 2] and cols.tolist() == [1, n - 1]
        rows, cols = decode_pairs(np.array([pair_count(n) - 1]), n)
        assert rows.tolist() == [n - 2] and cols.tolist() == [n - 1]

    def test_empty(self):
        for n in (0, 1, 10):
            rows, cols = decode_pairs(np.empty(0, dtype=np.int64), n)
            assert rows.dtype == cols.dtype == np.int64
            assert rows.size == cols.size == 0

    @pytest.mark.parametrize("codes", [[-1, 0, 1], [0, 1, 45], [3, -1], [45, 2]])
    def test_out_of_range_on_both_paths(self, codes):
        with pytest.raises(ValueError, match="out of range"):
            decode_pairs(np.array(codes), 10)


class TestSamplePairsExcluding:
    def test_avoids_forbidden(self):
        rng = np.random.default_rng(0)
        forbidden = np.array([0, 1, 2, 3], dtype=np.int64)
        sampled = sample_pairs_excluding(10, 20, forbidden, rng)
        assert sampled.size == 20
        assert np.intersect1d(sampled, forbidden).size == 0

    def test_no_duplicates(self):
        rng = np.random.default_rng(1)
        sampled = sample_pairs_excluding(50, 500, np.empty(0, dtype=np.int64), rng)
        assert np.unique(sampled).size == 500

    def test_exhaustive_sampling(self):
        # Ask for every available pair; must succeed exactly.
        rng = np.random.default_rng(2)
        forbidden = np.array([0], dtype=np.int64)
        total = pair_count(6)
        sampled = sample_pairs_excluding(6, total - 1, forbidden, rng)
        assert np.unique(sampled).size == total - 1
        assert 0 not in sampled

    def test_too_many_requested(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="cannot sample"):
            sample_pairs_excluding(4, 7, np.empty(0, dtype=np.int64), rng)

    def test_zero_count(self):
        rng = np.random.default_rng(4)
        out = sample_pairs_excluding(10, 0, np.empty(0, dtype=np.int64), rng)
        assert out.size == 0

    def test_uniformity_rough(self):
        # Each pair of K(5)=10 should appear ~equally often over many draws.
        rng = np.random.default_rng(5)
        counts = np.zeros(10)
        for _ in range(2000):
            picked = sample_pairs_excluding(5, 3, np.empty(0, dtype=np.int64), rng)
            counts[picked] += 1
        expected = 2000 * 3 / 10
        assert np.all(np.abs(counts - expected) < expected * 0.25)

    #: (n, count, forbidden, seed) -> sha256[:16] of the output bytes, generated
    #: from the pre-optimization implementation (seen-array re-sort per round).
    #: The optimized sampler must stay *draw-for-draw identical*: its rng
    #: consumption determines perturb_graph outputs and therefore the validity
    #: of every engine cache entry ever written.
    PINNED = [
        (10, 20, list(range(4)), 0, "3be68f47fc5cf0d1"),
        (50, 500, list(range(0, 100, 3)), 1, "b71f87315168f3c2"),
        # Dense-flip regime: 45% of all pairs requested (many rounds).
        (200, 9000, [], 2, "971d0a766355b4a9"),
        # Dense flips against a dense forbidden set.
        (120, 5000, list(range(0, 2000, 2)), 3, "a9d95c7acdc0f146"),
    ]

    @pytest.mark.parametrize("n,count,forbidden,seed,digest", PINNED)
    def test_output_pinned_to_legacy_implementation(self, n, count, forbidden, seed, digest):
        rng = np.random.default_rng(seed)
        out = sample_pairs_excluding(n, count, np.array(forbidden, dtype=np.int64), rng)
        assert hashlib.sha256(out.tobytes()).hexdigest()[:16] == digest


class TestMemberTableDispatch:
    def test_both_rejection_paths_sample_identically(self):
        """The bool-table path and the binary-search fallback must reject the
        same draws, leaving the rng stream — and the output — identical."""
        cases = [
            (60, 300, np.arange(0, 800, 3, dtype=np.int64), 0),
            (200, 9000, np.empty(0, dtype=np.int64), 2),
            (120, 5000, np.arange(0, 2000, 2, dtype=np.int64), 3),
            # Stalls with 6 codes missing, drawn from the free ones.
            (45, 985, np.empty(0, dtype=np.int64), 0),
        ]
        for n, count, forbidden, seed in cases:
            with_table = sample_pairs_excluding(
                n, count, forbidden, np.random.default_rng(seed)
            )
            original = sparse._MEMBER_TABLE_MAX_CODES
            sparse._MEMBER_TABLE_MAX_CODES = 0
            try:
                without_table = sample_pairs_excluding(
                    n, count, forbidden, np.random.default_rng(seed)
                )
            finally:
                sparse._MEMBER_TABLE_MAX_CODES = original
            assert np.array_equal(with_table, without_table)

    @staticmethod
    def sample_both_ways(monkeypatch, n, count, forbidden, seed):
        """Outputs of the table and binary-search paths, and the rounds the
        binary-search run took (one ``sorted_unique`` per round)."""
        with_table = sample_pairs_excluding(n, count, forbidden, np.random.default_rng(seed))
        rounds = []
        counted = sparse.sorted_unique
        monkeypatch.setattr(sparse, "_MEMBER_TABLE_MAX_CODES", 0)
        monkeypatch.setattr(
            sparse, "sorted_unique", lambda values: rounds.append(1) or counted(values)
        )
        without_table = sample_pairs_excluding(n, count, forbidden, np.random.default_rng(seed))
        return with_table, without_table, len(rounds)

    def test_forbidden_set_larger_than_the_draws(self, monkeypatch):
        """The forbidden codes outnumber every batch of draws, so the draws
        are searched into them rather than the other way round."""
        forbidden = np.arange(0, pair_count(200), 2, dtype=np.int64)
        count = 300
        assert forbidden.size > int(count * 1.1) + 16
        with_table, without_table, _ = self.sample_both_ways(
            monkeypatch, 200, count, forbidden, seed=5
        )
        assert np.array_equal(with_table, without_table)
        assert np.intersect1d(without_table, forbidden).size == 0

    def test_rejection_over_several_rounds(self, monkeypatch):
        """Half the space forbidden and most of the rest requested: later
        rounds reject their draws against the earlier accepted blocks."""
        forbidden = np.arange(0, pair_count(120), 2, dtype=np.int64)
        with_table, without_table, rounds = self.sample_both_ways(
            monkeypatch, 120, 2500, forbidden, seed=6
        )
        assert rounds >= 2
        assert np.array_equal(with_table, without_table)
        assert np.unique(without_table).size == 2500

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_reject_from_unique_matches_reject_members(self, data):
        draws = np.array(
            data.draw(st.lists(st.integers(0, 300), unique=True, max_size=60)), dtype=np.int64
        )
        reference = np.array(data.draw(st.lists(st.integers(0, 300), max_size=60)), dtype=np.int64)
        draws.sort()
        reference.sort()
        assert np.array_equal(
            sparse._reject_from_unique(draws, reference), np.setdiff1d(draws, reference)
        )


class TestStalledRejection:
    """Requests for nearly every free pair stall rejection on the last few
    codes; those are drawn with one ``rng.choice`` over the free codes."""

    @pytest.fixture(params=["table", "binary_search"])
    def rejection_path(self, request, monkeypatch):
        if request.param == "binary_search":
            monkeypatch.setattr(sparse, "_MEMBER_TABLE_MAX_CODES", 0)
        return request.param

    def test_every_pair_requested(self, rejection_path):
        # Seed 0 still misses 9 of the 990 codes after the rejection rounds.
        out = sample_pairs_excluding(
            45, 990, np.empty(0, dtype=np.int64), np.random.default_rng(0)
        )
        assert np.array_equal(np.sort(out), np.arange(990))

    def test_forbidden_codes_stay_excluded(self, rejection_path):
        forbidden = np.arange(0, 990, 3, dtype=np.int64)
        count = 990 - forbidden.size - 3
        for seed in range(5):
            out = sample_pairs_excluding(45, count, forbidden, np.random.default_rng(seed))
            assert out.size == count
            assert np.unique(out).size == count
            assert np.intersect1d(out, forbidden).size == 0

    def test_inclusion_frequency_is_count_over_total(self):
        """Each code is included with probability ``count / total``.

        Most of these runs stall (seeds 0-4 all do), so the direct draw
        decides which codes are left out.  Bounds are 6 CLT standard errors
        per code and 4 for the mean index of the left-out codes, which a
        draw favouring low or high codes would shift.
        """
        n, count, runs = 45, 985, 1000
        total = pair_count(n)
        hits = np.zeros(total)
        for seed in range(runs):
            out = sample_pairs_excluding(
                n, count, np.empty(0, dtype=np.int64), np.random.default_rng(seed)
            )
            hits[out] += 1
        p = count / total
        assert np.abs(hits / runs - p).max() < 6 * np.sqrt(p * (1 - p) / runs)
        missed = runs - hits
        mean_index = (missed * np.arange(total)).sum() / missed.sum()
        index_se = np.sqrt((total**2 - 1) / 12 / missed.sum())
        assert abs(mean_index - (total - 1) / 2) < 4 * index_se

class TestSortedUnique:
    def test_matches_np_unique(self):
        rng = np.random.default_rng(0)
        for size in (1, 2, 17, 1000):
            values = rng.integers(0, max(1, size // 2), size=size, dtype=np.int64)
            assert np.array_equal(sorted_unique(values.copy()), np.unique(values))

    def test_empty(self):
        assert sorted_unique(np.empty(0, dtype=np.int64)).size == 0

    def test_already_unique_sorted(self):
        values = np.array([1, 3, 9], dtype=np.int64)
        assert np.array_equal(sorted_unique(values.copy()), values)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_property(self, data):
        values = np.array(
            data.draw(st.lists(st.integers(min_value=-100, max_value=100))),
            dtype=np.int64,
        )
        assert np.array_equal(sorted_unique(values.copy()), np.unique(values))


class TestMergeSortedDisjoint:
    def test_basic(self):
        merged = merge_sorted_disjoint(
            np.array([1, 4, 9], dtype=np.int64), np.array([2, 3, 10], dtype=np.int64)
        )
        assert merged.tolist() == [1, 2, 3, 4, 9, 10]

    def test_empty_sides(self):
        a = np.array([5, 7], dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        assert merge_sorted_disjoint(a, empty).tolist() == [5, 7]
        assert merge_sorted_disjoint(empty, a).tolist() == [5, 7]
        assert merge_sorted_disjoint(empty, empty).size == 0

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_union1d_property(self, data):
        pool = data.draw(st.lists(st.integers(min_value=-500, max_value=500), unique=True))
        split = data.draw(st.integers(min_value=0, max_value=len(pool)))
        a = np.sort(np.array(pool[:split], dtype=np.int64))
        b = np.sort(np.array(pool[split:], dtype=np.int64))
        assert np.array_equal(merge_sorted_disjoint(a, b), np.union1d(a, b))


#: Int arrays for the set-algebra properties: empty, repeated and unsorted
#: values all occur.
int_lists = st.lists(st.integers(min_value=-60, max_value=60), max_size=40)


class TestSortedSetAlgebraAgainstNumpy:
    """The sorted helpers of the trial path equal numpy's set routines."""

    @given(values=int_lists)
    @settings(max_examples=200, deadline=None)
    def test_sorted_unique_is_np_unique(self, values):
        array = np.array(values, dtype=np.int64)
        expected = np.unique(array)
        result = sorted_unique(array.copy())
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)

    @given(first=int_lists, second=int_lists)
    @settings(max_examples=200, deadline=None)
    def test_sorted_union_is_np_union1d(self, first, second):
        a = np.array(first, dtype=np.int64)
        b = np.array(second, dtype=np.int64)
        a_copy, b_copy = a.copy(), b.copy()
        expected = np.union1d(a, b)
        result = sorted_union(a, b)
        assert result.dtype == expected.dtype
        assert np.array_equal(result, expected)
        assert np.array_equal(a, a_copy) and np.array_equal(b, b_copy), "inputs untouched"

    def test_sorted_union_of_lists_and_empties(self):
        assert sorted_union([], []).dtype == np.int64
        assert sorted_union([], []).size == 0
        assert sorted_union([3], np.array([5, 3, 1])).tolist() == [1, 3, 5]

    @given(first=int_lists, second=int_lists)
    @settings(max_examples=200, deadline=None)
    def test_merge_sorted_disjoint_is_np_union1d_on_disjoint_sets(self, first, second):
        a = np.unique(np.array(first, dtype=np.int64))
        b = np.setdiff1d(np.array(second, dtype=np.int64), a)
        assert np.array_equal(merge_sorted_disjoint(a, b), np.union1d(a, b))
