"""RowBlock: relational data materialized in NSM (row) form.

A :class:`RowBlock` holds ``n`` fixed-width rows as an ``(n, row_width)``
uint8 matrix plus a string heap, per the layout in
:mod:`repro.rows.layout`.  It provides the two conversions the paper's
Figure 1 shows -- DSM (vectors) to NSM (rows) and back -- and a row
gather.  No engine path uses it (see :mod:`repro.rows`); its string
decode is the column codec's inverse,
:func:`repro.table.strings.decode_utf8_column`.

The scatter/gather is vectorized per column: each column's values are
written into a strided view of the row matrix in one numpy operation, which
is the programmatic equivalent of converting "one vector at a time".
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ConversionError
from repro.rows.layout import RowLayout
from repro.table.column import ColumnVector
from repro.table.strings import decode_utf8_column
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema

__all__ = ["RowBlock", "heap_bases", "string_slots"]


def heap_bases(sizes) -> np.ndarray:
    """Start of each heap once heaps of ``sizes`` bytes are concatenated.

    Computed in int64: string slots hold uint32 offsets, so a combined
    heap past 4 GiB raises instead of letting an offset wrap around.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    if len(ends) and ends[-1] > np.iinfo(np.uint32).max:
        raise ConversionError(
            f"string heap of {int(ends[-1])} bytes exceeds the 4 GiB that "
            "32-bit row slot offsets can address"
        )
    return ends - sizes


def string_slots(rows: np.ndarray, slot) -> tuple[np.ndarray, np.ndarray]:
    """Writable uint32 ``(offsets, lengths)`` views of a string slot."""
    pairs = rows[:, slot.offset : slot.offset + 8].view(np.uint32)
    return pairs[:, 0], pairs[:, 1]


class RowBlock:
    """Rows of a table in the fixed-width NSM format plus a string heap."""

    __slots__ = ("layout", "rows", "heap")

    def __init__(
        self, layout: RowLayout, rows: np.ndarray, heap: bytes
    ) -> None:
        if rows.dtype != np.uint8 or rows.ndim != 2:
            raise ConversionError("row matrix must be 2-D uint8")
        if rows.shape[1] != layout.row_width:
            raise ConversionError(
                f"row width {rows.shape[1]} != layout width {layout.row_width}"
            )
        self.layout = layout
        self.rows = rows
        self.heap = heap

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def schema(self) -> Schema:
        return self.layout.schema

    @property
    def row_width(self) -> int:
        return self.layout.row_width

    # ------------------------------------------------------------------ #
    # DSM -> NSM (scatter)
    # ------------------------------------------------------------------ #

    @classmethod
    def from_table(cls, table: Table) -> "RowBlock":
        """Convert a columnar table to rows (the paper's 'columns to rows').

        A string column's heap is its UTF-8 form's bytes
        (:meth:`~repro.table.column.ColumnVector.strings`), back to back.
        """
        layout = RowLayout.for_schema(table.schema)
        n = table.num_rows
        rows = np.zeros((n, layout.row_width), dtype=np.uint8)
        heaps: list[np.ndarray] = []
        for col_index, slot in enumerate(layout.slots):
            column = table.column_at(col_index)
            byte_off, bit = layout.validity_position(col_index)
            rows[:, byte_off] |= (
                column.validity.astype(np.uint8) << np.uint8(bit)
            )
            if slot.is_string:
                # The column's bytes back to back; the per-value
                # (offset, length) slots follow by offset arithmetic.
                strings = column.strings(slot.name)
                lengths, buffer = strings.lengths, strings.packed()
                base = heap_bases([sum(map(len, heaps)), len(buffer)])[1]
                offset_slots, length_slots = string_slots(rows, slot)
                starts = np.cumsum(lengths) - lengths
                offset_slots[:] = np.where(column.validity, base + starts, 0)
                length_slots[:] = lengths
                heaps.append(buffer)
            else:
                width = slot.width
                data = np.ascontiguousarray(column.data)
                raw = data.view(np.uint8).reshape(n, width)
                rows[:, slot.offset : slot.offset + width] = raw
        heap = b"".join(part.data for part in heaps)
        return cls(layout, rows, heap)

    # ------------------------------------------------------------------ #
    # NSM -> DSM (gather)
    # ------------------------------------------------------------------ #

    def to_table(self) -> Table:
        """Convert rows back to a columnar table ('rows to columns')."""
        n = len(self.rows)
        columns = []
        for col_index, slot in enumerate(self.layout.slots):
            byte_off, bit = self.layout.validity_position(col_index)
            validity = (self.rows[:, byte_off] >> np.uint8(bit)) & 1
            validity = validity.astype(bool)
            if slot.is_string:
                data = decode_utf8_column(
                    self.heap, *string_slots(self.rows, slot), validity
                )
            else:
                raw = np.ascontiguousarray(
                    self.rows[:, slot.offset : slot.offset + slot.width]
                )
                data = raw.view(slot.dtype.numpy_dtype).reshape(-1).copy()
            columns.append(ColumnVector(slot.dtype, data, validity))
        return Table(self.schema, columns)

    # ------------------------------------------------------------------ #
    # Reordering
    # ------------------------------------------------------------------ #

    def take(self, indices: np.ndarray) -> "RowBlock":
        """Gather rows by position: one contiguous memcpy per output row.

        This is why NSM payload retrieval has the better access pattern the
        paper describes -- each gathered row is a single contiguous copy
        instead of one random access per column.
        """
        return RowBlock(self.layout, self.rows[indices], self.heap)

    def concat(self, other: "RowBlock") -> "RowBlock":
        """This block's rows followed by ``other``'s (re-basing its heap)."""
        if other.schema.names != self.schema.names:
            raise ConversionError("cannot concat row blocks of different schemas")
        shifted = other.rows.copy()
        heap_base = heap_bases([len(self.heap), len(other.heap)])[1]
        for col_index, slot in enumerate(self.layout.slots):
            if not slot.is_string:
                continue
            byte_off, bit = self.layout.validity_position(col_index)
            valid = ((shifted[:, byte_off] >> np.uint8(bit)) & 1).astype(bool)
            string_slots(shifted, slot)[0][valid] += np.uint32(heap_base)
        return RowBlock(
            self.layout,
            np.concatenate([self.rows, shifted]),
            self.heap + other.heap,
        )

    # ------------------------------------------------------------------ #
    # Point access (tests, debugging)
    # ------------------------------------------------------------------ #

    def value(self, row: int, column: str) -> Any:
        """The Python value of one field (``None`` for NULL)."""
        slot = self.layout.slot(column)
        col_index = self.schema.index_of(column)
        byte_off, bit = self.layout.validity_position(col_index)
        if not (int(self.rows[row, byte_off]) >> bit) & 1:
            return None
        raw = self.rows[row, slot.offset : slot.offset + slot.width]
        if slot.is_string:
            offset = int(np.ascontiguousarray(raw[:4]).view(np.uint32)[0])
            length = int(np.ascontiguousarray(raw[4:]).view(np.uint32)[0])
            return self.heap[offset : offset + length].decode("utf-8")
        value = np.ascontiguousarray(raw).view(slot.dtype.numpy_dtype)[0]
        if slot.dtype.is_float:
            return float(value)
        if slot.dtype.type_id is TypeId.BOOLEAN:
            return bool(value)
        return int(value)
