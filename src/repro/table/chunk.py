"""DataChunk: the unit of vectorized execution.

Vectorized interpreted engines (VectorWise, DuckDB) move data between
operators in fixed-size batches of column vectors so interpretation overhead
is amortized "vector-at-a-time" instead of paid per tuple.  A
:class:`DataChunk` is one such batch: a horizontal slice of a table.  A
streaming operator emits at most :data:`VECTOR_SIZE` rows per chunk (DuckDB
uses 2048; we default to 1024, matching the paper's description of
conversion "one block of vectors at a time"); a sink (the sorts, Top-N)
takes a chunk of any length, so a pipeline breaker reads a table that is
already resident as one chunk instead of slicing it into vectors and
concatenating them back.

A chunk may carry a *selection*: the int64 positions, in its vectors, of
the rows it holds (DuckDB's ``SelectionVector``).  A filter over a
resident table hands its consumer that table's vectors plus the ids of
the rows that pass, not copies; the rows are gathered once, by
:meth:`DataChunk.to_table`, when a consumer needs them as a table.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import SchemaError
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.schema import Schema

__all__ = ["VECTOR_SIZE", "DataChunk", "chunk_table", "concat_chunks"]

VECTOR_SIZE = 1024
"""Default number of rows per vector batch."""


class DataChunk:
    """A batch of rows in columnar (DSM) form.

    ``selection``, when set, holds the positions of the chunk's rows in
    ``vectors``; ``len``, :meth:`slice`, :meth:`vector` and
    :meth:`to_table` see only those rows.
    """

    __slots__ = ("schema", "vectors", "selection")

    def __init__(
        self,
        schema: Schema,
        vectors: list[ColumnVector],
        selection: np.ndarray | None = None,
    ) -> None:
        if len(vectors) != len(schema):
            raise SchemaError(
                f"chunk has {len(vectors)} vectors for {len(schema)} columns"
            )
        lengths = {len(v) for v in vectors}
        if len(lengths) > 1:
            raise SchemaError(f"vectors have differing lengths: {sorted(lengths)}")
        self.schema = schema
        self.vectors = vectors
        self.selection = selection

    @property
    def size(self) -> int:
        if self.selection is not None:
            return len(self.selection)
        return len(self.vectors[0]) if self.vectors else 0

    def __len__(self) -> int:
        return self.size

    def vector(self, name: str) -> ColumnVector:
        vector = self.vectors[self.schema.index_of(name)]
        return vector if self.selection is None else vector.take(self.selection)

    def to_table(self) -> Table:
        """The chunk's rows as a table: its vectors, or one gather of the
        selected rows."""
        table = Table(self.schema, list(self.vectors))
        return table if self.selection is None else table.take(self.selection)

    def slice(self, start: int, stop: int) -> "DataChunk":
        """Rows ``[start, stop)`` as a zero-copy view (all rows: the chunk
        itself); a selection chunk cuts its ids."""
        if start == 0 and stop == len(self):
            return self
        if self.selection is not None:
            return DataChunk(self.schema, self.vectors, self.selection[start:stop])
        return DataChunk(
            self.schema, [vector.slice(start, stop) for vector in self.vectors]
        )

    @classmethod
    def from_table(cls, table: Table) -> "DataChunk":
        return cls(table.schema, list(table.columns))


def chunk_table(table: Table, vector_size: int = VECTOR_SIZE) -> Iterator[DataChunk]:
    """Split a table into DataChunks of at most ``vector_size`` rows.

    This is what a table scan feeding a vectorized pipeline produces.
    """
    if vector_size <= 0:
        raise SchemaError(f"vector_size must be positive, got {vector_size}")
    for start in range(0, table.num_rows, vector_size):
        stop = min(start + vector_size, table.num_rows)
        yield DataChunk.from_table(table.slice(start, stop))
    if table.num_rows == 0:
        yield DataChunk.from_table(table)


def concat_chunks(chunks: list[DataChunk]) -> Table:
    """Reassemble chunks into one table (inverse of :func:`chunk_table`):
    each column joined once, from the chunks' vectors."""
    if not chunks:
        raise SchemaError("cannot concat zero chunks")
    if len(chunks) == 1:
        return chunks[0].to_table()
    schema = chunks[0].schema
    parts = []
    for chunk in chunks:
        if chunk.schema.names != schema.names:
            raise SchemaError("cannot concat chunks with different schemas")
        if chunk.selection is None:
            parts.append(chunk.vectors)
        else:
            parts.append(chunk.to_table().columns)
    return Table(schema, [first.concat(*rest) for first, *rest in zip(*parts)])
