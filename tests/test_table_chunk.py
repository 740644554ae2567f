"""Tests for DataChunk batching (the vectorized execution unit)."""

import numpy as np
import pytest

from repro.errors import SchemaError
from repro.table.chunk import (
    VECTOR_SIZE,
    DataChunk,
    chunk_table,
    concat_chunks,
)
from repro.table.table import Table


def make_table(n: int) -> Table:
    return Table.from_numpy(
        {
            "a": np.arange(n, dtype=np.int32),
            "b": (np.arange(n) * 2).astype(np.int32),
        }
    )


class TestChunking:
    def test_default_vector_size(self):
        assert VECTOR_SIZE == 1024

    def test_chunk_sizes(self):
        chunks = list(chunk_table(make_table(2500), vector_size=1000))
        assert [len(c) for c in chunks] == [1000, 1000, 500]

    def test_exact_multiple(self):
        chunks = list(chunk_table(make_table(2048), vector_size=1024))
        assert [len(c) for c in chunks] == [1024, 1024]

    def test_empty_table_yields_one_empty_chunk(self):
        chunks = list(chunk_table(make_table(0)))
        assert len(chunks) == 1 and len(chunks[0]) == 0

    def test_invalid_vector_size(self):
        with pytest.raises(SchemaError):
            list(chunk_table(make_table(5), vector_size=0))

    def test_round_trip(self):
        table = make_table(2500)
        chunks = list(chunk_table(table, vector_size=700))
        assert concat_chunks(chunks).equals(table)

    def test_concat_zero_chunks_raises(self):
        with pytest.raises(SchemaError):
            concat_chunks([])

    def test_concat_joins_selections_and_refuses_other_schemas(self):
        table = make_table(100)
        ids = np.arange(0, 100, 3)
        picked = DataChunk(table.schema, list(table.columns), ids)
        head = DataChunk.from_table(table.slice(0, 10))
        joined = concat_chunks([head, picked])
        assert joined.equals(table.slice(0, 10).concat(table.take(ids)))
        other = DataChunk.from_table(Table.from_numpy({"z": np.arange(3)}))
        with pytest.raises(SchemaError):
            concat_chunks([picked, other])


class TestDataChunk:
    def test_vector_lookup(self):
        chunk = DataChunk.from_table(make_table(5))
        assert chunk.vector("b").to_pylist() == [0, 2, 4, 6, 8]

    def test_to_table(self):
        table = make_table(7)
        assert DataChunk.from_table(table).to_table().equals(table)

    def test_mismatched_vectors_raise(self):
        table = make_table(3)
        with pytest.raises(SchemaError):
            DataChunk(table.schema, list(table.columns[:1]))


class TestSelection:
    def selected(self, ids) -> DataChunk:
        table = make_table(10)
        return DataChunk(
            table.schema, list(table.columns), np.asarray(ids, dtype=np.int64)
        )

    def test_len_counts_the_selected_rows(self):
        assert len(self.selected([1, 4, 9])) == 3

    def test_vector_and_to_table_see_the_selected_rows(self):
        chunk = self.selected([1, 4, 9])
        assert chunk.vector("b").to_pylist() == [2, 8, 18]
        expected = make_table(10).take(np.array([1, 4, 9]))
        assert chunk.to_table().equals(expected)

    def test_slice_cuts_the_ids_without_a_copy(self):
        chunk = self.selected([1, 4, 5, 9])
        part = chunk.slice(1, 3)
        assert part.vectors is chunk.vectors
        assert np.shares_memory(part.selection, chunk.selection)
        assert part.vector("a").to_pylist() == [4, 5]
        assert chunk.slice(0, 4) is chunk

    def test_empty_selection(self):
        chunk = self.selected([])
        assert len(chunk) == 0
        assert chunk.vector("a").to_pylist() == []
        table = chunk.to_table()
        assert table.num_rows == 0
        assert table.schema.names == ("a", "b")
        assert len(chunk.slice(0, 0)) == 0
