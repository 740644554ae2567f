"""Tests for the top-N operator and the external (spilling) sort."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_sort, sort_spilling
from repro.errors import SortError
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig, sort_table
from repro.sort.topn import TopNOperator, top_n
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec


def random_table(rng, n=2000):
    return Table.from_numpy(
        {
            "a": rng.integers(0, 25, n).astype(np.int32),
            "b": rng.standard_normal(n).astype(np.float32),
            "c": np.arange(n, dtype=np.int32),
        }
    )


class TestTopN:
    def test_equals_sort_plus_slice(self, rng):
        table = random_table(rng)
        spec = SortSpec.of("a", "b DESC")
        expected = sort_table(table, spec).slice(3, 13)
        got = top_n(table, spec, limit=10, offset=3)
        assert got.equals(expected)

    def test_limit_larger_than_input(self, rng):
        table = random_table(rng, 5)
        spec = SortSpec.of("a")
        assert top_n(table, spec, limit=100).num_rows == 5

    def test_zero_limit(self, rng):
        table = random_table(rng, 10)
        assert top_n(table, "a", 0).num_rows == 0

    def test_offset_beyond_input(self, rng):
        table = random_table(rng, 5)
        assert top_n(table, "a", 10, offset=10).num_rows == 0

    def test_negative_limit_raises(self, rng):
        with pytest.raises(SortError):
            TopNOperator(random_table(rng, 1).schema, SortSpec.of("a"), -1)

    def test_with_nulls_and_desc(self):
        table = Table.from_pydict({"x": [3, None, 1, None, 2], "id": [1, 2, 3, 4, 5]})
        spec = SortSpec.of("x DESC NULLS FIRST")
        expected = sort_table(table, spec).slice(0, 3)
        assert top_n(table, spec, 3).equals(expected)

    def test_long_string_ties_exact(self):
        base = "z" * 14
        values = [f"{base}{i}" for i in (3, 1, 2, 0)]
        table = Table.from_pydict({"s": values})
        got = top_n(table, "s", 2)
        assert got.column("s").to_pylist() == sorted(values)[:2]

    def test_stability(self):
        table = Table.from_pydict({"k": [1, 1, 1, 1], "seq": [0, 1, 2, 3]})
        got = top_n(table, "k", 2)
        assert got.column("seq").to_pylist() == [0, 1]

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 5), min_size=1, max_size=60),
        limit=st.integers(0, 20),
        offset=st.integers(0, 10),
    )
    def test_property_matches_full_sort(self, keys, limit, offset):
        table = Table.from_pydict(
            {"k": keys, "seq": list(range(len(keys)))}
        )
        spec = SortSpec.of("k")
        expected = sort_table(table, spec).slice(
            min(offset, len(keys)), min(offset + limit, len(keys))
        )
        assert top_n(table, spec, limit, offset).equals(expected)


class TestExternalSort:
    def test_matches_in_memory(self, rng, tmp_path):
        table = random_table(rng)
        spec = SortSpec.of("a", "b DESC")
        config = SortConfig(run_threshold=256)
        external = sort_spilling(
            table, spec, config, spill_directory=str(tmp_path)
        )
        assert external.equals(sort_table(table, spec, config))

    def test_spills_multiple_runs(self, rng, tmp_path):
        table = random_table(rng, 1000)
        operator = ExternalSortOperator(
            table.schema,
            SortSpec.of("a"),
            SortConfig(run_threshold=128),
            spill_directory=str(tmp_path),
        )
        for chunk in chunk_table(table, 128):
            operator.sink(chunk)

        assert operator.spilled_runs >= 7
        assert operator.spilled_bytes > 0
        result = operator.finalize()
        assert result.equals(sort_table(table, SortSpec.of("a")))

    def test_spill_files_cleaned_up(self, rng, tmp_path):
        table = random_table(rng, 600)
        operator = ExternalSortOperator(
            table.schema,
            SortSpec.of("a"),
            SortConfig(run_threshold=100),
            spill_directory=str(tmp_path),
        )
        for chunk in chunk_table(table, 100):
            operator.sink(chunk)
        operator.finalize()
        assert os.listdir(tmp_path) == []

    def test_strings_supported_when_prefix_exact(self, tmp_path):
        table = Table.from_pydict(
            {"s": ["pear", "apple", None, "fig"], "v": [1, 2, 3, 4]}
        )
        spec = SortSpec.of("s NULLS FIRST")
        result = sort_spilling(
            table, spec, spill_directory=str(tmp_path)
        )
        assert result.equals(reference_sort(table, spec))

    def test_truncated_strings_sort_exactly(self, tmp_path):
        # Strings longer than the key prefix used to raise at finalize;
        # the external sort now refines them to exact byte order.
        values = ["x" * 30, "x" * 29 + "a", "y", "x" * 29]
        table = Table.from_pydict({"s": values})
        operator = ExternalSortOperator(
            table.schema, SortSpec.of("s"), spill_directory=str(tmp_path)
        )
        with operator:
            for chunk in chunk_table(table):
                operator.sink(chunk)
            result = operator.finalize()
        assert result.column("s").to_pylist() == sorted(values)

    def test_empty_input(self, tmp_path):
        table = Table.from_pydict({"a": []})
        result = sort_spilling(table, "a", spill_directory=str(tmp_path))
        assert result.num_rows == 0

    def test_sink_after_finalize_raises(self, rng, tmp_path):
        table = random_table(rng, 10)
        operator = ExternalSortOperator(
            table.schema, SortSpec.of("a"), spill_directory=str(tmp_path)
        )
        operator.finalize()
        with pytest.raises(SortError):
            operator.sink(next(chunk_table(table)))

    def test_nulls_round_trip_through_spill(self, tmp_path):
        table = Table.from_pydict(
            {"a": [3, None, 1, None, 2], "s": ["x", None, "y", "z", None]}
        )
        spec = SortSpec.of("a NULLS FIRST")
        result = sort_spilling(
            table, spec, SortConfig(run_threshold=2),
            spill_directory=str(tmp_path),
        )
        assert result.equals(reference_sort(table, spec))
