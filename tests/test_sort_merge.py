"""Tests for Merge Path partitioning."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from repro.sort.merge_path import (
    merge_partitioned,
    merge_path_partition,
    merge_path_partitions,
)

sorted_lists = st.lists(st.integers(0, 50), max_size=40).map(sorted)


class TestMergePathPartition:
    def test_simple(self):
        assert merge_path_partition([1, 3], [2, 4], 2) == (1, 1)

    def test_zero_diagonal(self):
        assert merge_path_partition([1, 2], [3], 0) == (0, 0)

    def test_full_diagonal(self):
        assert merge_path_partition([1, 2], [3], 3) == (2, 1)

    def test_out_of_range_raises(self):
        with pytest.raises(SortError):
            merge_path_partition([1], [2], 3)
        with pytest.raises(SortError):
            merge_path_partition([1], [2], -1)

    def test_ties_prefer_left_run(self):
        # Stability: on a tie the element of `a` is consumed first.
        assert merge_path_partition([5], [5], 1) == (1, 0)

    @settings(max_examples=100, deadline=None)
    @given(sorted_lists, sorted_lists, st.integers(0, 80))
    def test_split_reproduces_prefix_of_stable_merge(self, a, b, d):
        d = min(d, len(a) + len(b))
        i, j = merge_path_partition(a, b, d)
        assert i + j == d
        # The first d outputs of the stable merge == merge of a[:i], b[:j].
        full = _stable_merge(a, b)
        assert sorted(a[:i] + b[:j]) == full[:d]

    @settings(max_examples=60, deadline=None)
    @given(sorted_lists, sorted_lists, st.integers(1, 7))
    def test_partitions_are_monotone_and_cover(self, a, b, k):
        points = merge_path_partitions(a, b, k)
        assert points[0] == (0, 0)
        assert points[-1] == (len(a), len(b))
        for (i0, j0), (i1, j1) in zip(points, points[1:]):
            assert i1 >= i0 and j1 >= j0

    def test_bad_partition_count(self):
        with pytest.raises(SortError):
            merge_path_partitions([1], [2], 0)


def _stable_merge(a, b):
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        if b[j] < a[i]:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    return out + a[i:] + b[j:]


class TestMergePartitioned:
    @settings(max_examples=100, deadline=None)
    @given(sorted_lists, sorted_lists, st.integers(1, 8))
    def test_equals_stable_merge(self, a, b, k):
        assert merge_partitioned(a, b, k) == _stable_merge(a, b)

    def test_single_partition(self):
        assert merge_partitioned([1, 3], [2], 1) == [1, 2, 3]
