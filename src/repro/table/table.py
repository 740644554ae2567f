"""Columnar tables: the DSM face of the library.

A :class:`Table` is an immutable-ish collection of equally long
:class:`~repro.table.column.ColumnVector` objects described by a
:class:`~repro.types.schema.Schema`.  It is the input and output of the sort
operator and of the mini query engine.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import SchemaError, TypeError_
from repro.table.column import ColumnVector
from repro.types.datatypes import DataType
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import SortSpec, tuple_compare

__all__ = ["Table", "group_changed"]


class Table:
    """An ordered collection of named, typed columns of equal length."""

    __slots__ = ("schema", "_columns")

    def __init__(self, schema: Schema, columns: Iterable[ColumnVector]) -> None:
        columns = list(columns)
        if len(columns) != len(schema):
            raise SchemaError(
                f"schema has {len(schema)} columns but {len(columns)} given"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        for col_def, col in zip(schema, columns):
            if col.dtype.type_id is not col_def.dtype.type_id:
                raise TypeError_(
                    f"column {col_def.name!r} declared {col_def.dtype.name} "
                    f"but data is {col.dtype.name}"
                )
            if not col_def.nullable and col.has_nulls:
                raise TypeError_(
                    f"column {col_def.name!r} is NOT NULL but contains NULLs"
                )
        self.schema = schema
        self._columns = columns

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pydict(
        cls,
        data: Mapping[str, Iterable[Any]],
        dtypes: Mapping[str, DataType] | None = None,
    ) -> "Table":
        """Build a table from ``{name: values}``; ``None`` entries are NULL."""
        dtypes = dict(dtypes or {})
        columns = []
        defs = []
        for name, values in data.items():
            col = ColumnVector.from_values(values, dtypes.get(name))
            columns.append(col)
            defs.append(ColumnDef(name, col.dtype))
        return cls(Schema(tuple(defs)), columns)

    @classmethod
    def from_numpy(cls, data: Mapping[str, np.ndarray]) -> "Table":
        """Build a NULL-free table directly from numpy arrays."""
        columns = [ColumnVector.from_numpy(arr) for arr in data.values()]
        defs = tuple(
            ColumnDef(name, col.dtype) for name, col in zip(data, columns)
        )
        return cls(Schema(defs), columns)

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        """A zero-row table with the given schema."""
        columns = []
        for col_def in schema:
            dt = col_def.dtype
            data = np.empty(0, dtype=dt.numpy_dtype)
            columns.append(ColumnVector(dt, data))
        return cls(schema, columns)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return len(self._columns[0]) if self._columns else 0

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self.num_rows

    def column(self, name: str) -> ColumnVector:
        return self._columns[self.schema.index_of(name)]

    def column_at(self, index: int) -> ColumnVector:
        return self._columns[index]

    @property
    def columns(self) -> tuple[ColumnVector, ...]:
        return tuple(self._columns)

    def row(self, index: int) -> tuple[Any, ...]:
        """One row as a Python tuple (``None`` for NULL)."""
        return tuple(col.value(index) for col in self._columns)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        for i in range(self.num_rows):
            yield self.row(i)

    def to_pydict(self) -> dict[str, list[Any]]:
        return {
            name: col.to_pylist()
            for name, col in zip(self.schema.names, self._columns)
        }

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def select(self, names: Iterable[str]) -> "Table":
        """Project to the given columns, in the given order."""
        names = list(names)
        schema = self.schema.select(names)
        return Table(schema, [self.column(n) for n in names])

    def take(self, indices: np.ndarray) -> "Table":
        """Gather rows by position (the payload-reorder primitive)."""
        return Table(self.schema, [c.take(indices) for c in self._columns])

    def slice(self, start: int, stop: int) -> "Table":
        return Table(self.schema, [c.slice(start, stop) for c in self._columns])

    def concat(self, *others: "Table") -> "Table":
        """This table followed by ``others``, each column copied once."""
        for other in others:
            if self.schema.names != other.schema.names:
                raise SchemaError(
                    "cannot concat tables with different schemas"
                )
        return Table(
            self.schema,
            [
                column.concat(*(other._columns[i] for other in others))
                for i, column in enumerate(self._columns)
            ],
        )

    def equals(self, other: "Table") -> bool:
        if self.schema.names != other.schema.names:
            return False
        return all(a.equals(b) for a, b in zip(self._columns, other._columns))

    # ------------------------------------------------------------------ #
    # Sort-related checks (used heavily by the test suite)
    # ------------------------------------------------------------------ #

    def is_sorted_by(self, spec: SortSpec) -> bool:
        """True iff consecutive rows are non-decreasing under ``spec``."""
        key_table = self.select(spec.column_names)
        prev = None
        for row in key_table.iter_rows():
            if prev is not None and tuple_compare(prev, row, spec) > 0:
                return False
            prev = row
        return True

    def __repr__(self) -> str:
        return f"Table{self.schema} with {self.num_rows} rows"


def group_changed(table: Table, names: Iterable[str]) -> np.ndarray:
    """``changed[i]``: row ``i + 1`` differs from row ``i`` on ``names``.

    A row differs on a column when its validity differs from the row
    before, or when both rows are valid and their values differ.  This is
    the grouping equality of the sort's normalized keys: NULL equals NULL
    whatever the data slot holds, NaN equals NaN, ``-0.0 == 0.0``, and
    strings compare by exact value (``"a"`` differs from ``"a\\0"``).  Over
    a table sorted on ``names``, the ``True`` entries are the group
    boundaries that GROUP BY, window and merge join need.
    """
    changed = np.zeros(max(table.num_rows - 1, 0), dtype=bool)
    for name in names:
        column = table.column(name)
        values, valid = column.data, column.validity
        differs = values[1:] != values[:-1]
        if column.dtype.is_float:
            differs &= ~(np.isnan(values[1:]) & np.isnan(values[:-1]))
        if column.has_nulls:
            differs &= valid[1:] & valid[:-1]
            differs |= valid[1:] != valid[:-1]
        changed |= differs
    return changed
