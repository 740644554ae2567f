"""Tests for the scalar sorting algorithms (:mod:`repro.scalar`):
pdqsort and the LSD/MSD radix sorts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from repro.scalar.pdqsort import PdqStats, pdq_argsort, pdqsort
from repro.scalar.radix import (
    RadixStats,
    lsd_radix_argsort,
    msd_radix_argsort,
    radix_argsort,
)

PATTERNS = {
    "sorted": list(range(64)),
    "reversed": list(range(64, 0, -1)),
    "all-equal": [7] * 64,
    "organ-pipe": list(range(32)) + list(range(32, 0, -1)),
    "few-uniques": [i % 4 for i in range(64)],
    "single": [42],
    "empty": [],
    "two": [2, 1],
}


@pytest.mark.parametrize("name,pattern", PATTERNS.items())
@pytest.mark.parametrize("sorter", [pdqsort])
def test_patterns(sorter, name, pattern):
    items = list(pattern)
    sorter(items)
    assert items == sorted(pattern)


class TestPdqsort:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    def test_matches_sorted(self, items):
        data = list(items)
        pdqsort(data)
        assert data == sorted(items)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.text(max_size=8), max_size=120))
    def test_strings(self, items):
        data = list(items)
        pdqsort(data)
        assert data == sorted(items)

    def test_custom_comparator_descending(self):
        data = [3, 1, 2]
        pdqsort(data, less=lambda a, b: b < a)
        assert data == [3, 2, 1]

    def test_stats_counted(self):
        stats = PdqStats()
        data = list(range(200, 0, -1))
        pdqsort(data, stats=stats)
        assert stats.comparisons > 0
        assert data == sorted(data)

    def test_many_duplicates_fewer_comparisons_than_random(self):
        rng = np.random.default_rng(0)
        n = 2000
        dup_stats, rnd_stats = PdqStats(), PdqStats()
        dups = [int(v) for v in rng.integers(0, 4, n)]
        rnd = [int(v) for v in rng.integers(0, 1 << 30, n)]
        pdqsort(dups, stats=dup_stats)
        pdqsort(rnd, stats=rnd_stats)
        # partition_left finishes equal runs in O(n) per run.
        assert dup_stats.comparisons < rnd_stats.comparisons / 2

    def test_argsort(self):
        keys = [30, 10, 20]
        assert pdq_argsort(keys) == [1, 2, 0]

    def test_ascending_input_is_cheap(self):
        stats = PdqStats()
        data = list(range(4096))
        pdqsort(data, stats=stats)
        # Already-partitioned detection: ~one pass, not n log n.
        assert stats.comparisons < 4096 * 4


def _random_matrix(rng, n, width, cardinality=256):
    return rng.integers(0, cardinality, size=(n, width)).astype(np.uint8)


class TestRadixSorts:
    def test_rejects_non_uint8(self):
        with pytest.raises(SortError):
            lsd_radix_argsort(np.zeros((3, 2), dtype=np.int32))

    def test_rejects_1d(self):
        with pytest.raises(SortError):
            msd_radix_argsort(np.zeros(3, dtype=np.uint8))

    @pytest.mark.parametrize(
        "argsorter", [lsd_radix_argsort, msd_radix_argsort, radix_argsort]
    )
    def test_empty_and_single(self, argsorter):
        assert argsorter(np.zeros((0, 4), dtype=np.uint8)).tolist() == []
        assert argsorter(np.zeros((1, 4), dtype=np.uint8)).tolist() == [0]

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 120),
        st.integers(1, 9),
        st.sampled_from([2, 16, 256]),
        st.integers(0, 2**31 - 1),
    )
    def test_lsd_matches_numpy(self, n, width, cardinality, seed):
        rng = np.random.default_rng(seed)
        matrix = _random_matrix(rng, n, width, cardinality)
        order = lsd_radix_argsort(matrix)
        expected = np.lexsort(tuple(matrix[:, c] for c in range(width - 1, -1, -1)))
        assert order.tolist() == expected.tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 120),
        st.integers(1, 9),
        st.sampled_from([2, 16, 256]),
        st.integers(0, 2**31 - 1),
    )
    def test_msd_matches_numpy(self, n, width, cardinality, seed):
        rng = np.random.default_rng(seed)
        matrix = _random_matrix(rng, n, width, cardinality)
        order = msd_radix_argsort(matrix)
        expected = np.lexsort(tuple(matrix[:, c] for c in range(width - 1, -1, -1)))
        assert order.tolist() == expected.tolist()

    def test_both_are_stable(self, rng):
        matrix = np.zeros((50, 3), dtype=np.uint8)
        matrix[:, 0] = rng.integers(0, 2, 50)
        for argsorter in (lsd_radix_argsort, msd_radix_argsort):
            order = argsorter(matrix)
            # Equal keys must keep input order.
            zeros = [i for i in order if matrix[i, 0] == 0]
            assert zeros == sorted(zeros)

    def test_skip_copy_on_constant_bytes(self, rng):
        matrix = np.zeros((200, 4), dtype=np.uint8)
        matrix[:, 3] = rng.integers(0, 256, 200)  # only last byte varies
        stats = RadixStats()
        lsd_radix_argsort(matrix, stats)
        assert stats.skipped_passes == 3
        assert stats.passes == 4

    def test_msd_recursion_stops_on_common_prefix(self, rng):
        matrix = np.full((100, 8), 7, dtype=np.uint8)
        matrix[:, 7] = rng.integers(0, 256, 100)
        stats = RadixStats()
        msd_radix_argsort(matrix, stats)
        assert stats.skipped_passes >= 7  # leading constant bytes descend free

    def test_dispatch_threshold(self, rng):
        narrow = _random_matrix(rng, 64, 4)
        wide = _random_matrix(rng, 64, 5)
        narrow_stats, wide_stats = RadixStats(), RadixStats()
        radix_argsort(narrow, narrow_stats)
        radix_argsort(wide, wide_stats)
        # LSD performs width passes over the whole array; MSD recursion
        # uses insertion sort for small buckets.
        assert narrow_stats.insertion_sorted_buckets == 0
        assert wide_stats.insertion_sorted_buckets > 0

    def test_deep_msd_recursion_no_stack_overflow(self):
        # 64-byte-wide identical prefixes force deep descent.
        matrix = np.zeros((30, 64), dtype=np.uint8)
        matrix[:, 63] = np.arange(30, dtype=np.uint8)
        order = msd_radix_argsort(matrix, insertion_threshold=0)
        assert order.tolist() == list(range(30))
