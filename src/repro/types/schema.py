"""Schemas: named, typed, ordered collections of columns."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import SchemaError
from repro.types.datatypes import DataType
from repro.types.sortspec import SortSpec

__all__ = ["ColumnDef", "Schema"]


@dataclass(frozen=True)
class ColumnDef:
    """One column: a name, a logical type, and whether NULLs may appear."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __str__(self) -> str:
        null = "" if self.nullable else " NOT NULL"
        return f"{self.name} {self.dtype.name}{null}"


@dataclass(frozen=True)
class Schema:
    """An ordered set of uniquely named columns.

    Provides lookup by name and by position, plus the split into key and
    payload columns given a :class:`SortSpec` -- the paper's terminology for
    ORDER BY columns vs all other selected columns.
    """

    columns: tuple[ColumnDef, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise SchemaError(f"duplicate column names: {sorted(duplicates)}")

    @classmethod
    def of(cls, *columns: ColumnDef | tuple) -> "Schema":
        """Build a schema from ColumnDefs or (name, dtype[, nullable]) tuples."""
        defs = []
        for col in columns:
            if isinstance(col, ColumnDef):
                defs.append(col)
            else:
                defs.append(ColumnDef(*col))
        return cls(tuple(defs))

    @cached_property
    def names(self) -> tuple[str, ...]:
        # Cached: every sink and chunk join compares schemas by name.
        return tuple(c.name for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def column(self, name: str) -> ColumnDef:
        """Look up a column by name, raising :class:`SchemaError` if absent."""
        for col in self.columns:
            if col.name == name:
                return col
        raise SchemaError(f"no column named {name!r} (have {list(self.names)})")

    def index_of(self, name: str) -> int:
        """Position of a column by name."""
        for i, col in enumerate(self.columns):
            if col.name == name:
                return i
        raise SchemaError(f"no column named {name!r} (have {list(self.names)})")

    def select(self, names) -> "Schema":
        """A new schema with just the given columns, in the given order."""
        return Schema(tuple(self.column(n) for n in names))

    def split_key_payload(self, spec: SortSpec) -> tuple["Schema", "Schema"]:
        """Split into (key columns, payload columns) for a sort spec.

        Key columns appear in *spec order*; payload columns keep their
        original order.  Every spec column must exist in the schema.
        """
        key_schema = self.select(spec.column_names)
        key_names = set(spec.column_names)
        payload = tuple(c for c in self.columns if c.name not in key_names)
        return key_schema, Schema(payload)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.columns) + ")"
