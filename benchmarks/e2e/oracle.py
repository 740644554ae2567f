"""The benchmark's own oracle, numpy floor, and result verification.

Nothing here calls the sort under test.  Expected results are row
*permutations* of the input (``expected = input[order]``), so the
prepare child hands the measure child one small int64 array per query
instead of a pickled table.

* :func:`oracle_order` -- Python ``sorted()`` over ``(null rank, value)``
  tuple keys, one stable pass per ORDER BY key from the last to the
  first, ``reverse=True`` for DESC.  Stable passes keep arrival order
  among full ties, which is the engine's contract (row ids).
* :func:`floor_columns` + ``np.lexsort`` + :func:`floor_gather` -- the
  yardstick for "how fast can numpy do this work", and a second opinion
  on the oracle (both are stable, so their permutations must be equal).
* :func:`mismatch` -- column-by-column comparison of a result ``Table``
  with the expected columns (validity everywhere, values where valid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OrderKey:
    column: str
    descending: bool
    nulls_first: bool


def parse_order_by(text: str) -> tuple[OrderKey, ...]:
    """``"a NULLS FIRST, f DESC, s"`` -> keys; NULLS LAST when unstated
    (the engine's documented default in both directions)."""
    keys = []
    for part in text.split(","):
        tokens = part.split()
        words = [t.upper() for t in tokens[1:]]
        keys.append(
            OrderKey(
                tokens[0],
                descending="DESC" in words,
                nulls_first="FIRST" in words,
            )
        )
    return tuple(keys)


def filter_mask(table, column: str, greater_than: int) -> np.ndarray:
    """Rows passing ``WHERE column > k`` (NULL never passes)."""
    vector = table.column(column)
    return vector.validity & (vector.data > greater_than)


def oracle_order(table, keys: tuple[OrderKey, ...]) -> np.ndarray:
    """Row positions of ``table`` in ORDER BY order."""
    order = list(range(table.num_rows))
    for key in reversed(keys):
        vector = table.column(key.column)
        values = vector.data.tolist()
        valid = vector.validity.tolist()
        # Under reverse=True the largest rank comes first.
        null_rank = 0 if key.nulls_first != key.descending else 2
        filler = values[0] if values else None
        order.sort(
            key=lambda i: (1, values[i]) if valid[i] else (null_rank, filler),
            reverse=key.descending,
        )
    return np.asarray(order, dtype=np.int64)


def _floor_key(vector, descending: bool) -> np.ndarray:
    """One column's values in a numpy-native form that sorts as asked."""
    data = vector.data
    if data.dtype == object:
        encoded = [value.encode() for value in data.tolist()]
        width = max(map(len, encoded), default=1)
        data = np.array(encoded, dtype=f"S{max(width, 1)}")
        if descending:
            data = -np.unique(data, return_inverse=True)[1]
    elif descending:
        data = ~data if data.dtype.kind in "iu" else -data
    # NULL slots hold unspecified filler: blank them so NULLs tie.
    return np.where(vector.validity, data, data[:1]) if len(data) else data


def floor_columns(table, keys: tuple[OrderKey, ...]) -> list:
    """``np.lexsort`` input for the query, least significant key first.

    Strings become fixed-width byte arrays here, outside the timed
    floor: the floor measures numpy sorting numpy-native data.
    """
    columns = []
    for key in reversed(keys):
        vector = table.column(key.column)
        columns.append(_floor_key(vector, key.descending))
        columns.append(
            np.where(vector.validity, 1, 0 if key.nulls_first else 2)
        )
    return columns


def floor_gather(table, order: np.ndarray) -> list:
    """One gather per column: the floor's payload step."""
    return [(c.data[order], c.validity[order]) for c in table.columns]


# ---------------------------------------------------------------------- #
# Verification
# ---------------------------------------------------------------------- #


@dataclass
class Expected:
    """The expected result of one query, column by column."""

    names: tuple[str, ...]
    columns: list  # (data, validity, all_valid) per column
    num_rows: int


def expected_result(table, order: np.ndarray) -> Expected:
    columns = []
    for column in table.columns:
        validity = column.validity[order]
        columns.append((column.data[order], validity, bool(validity.all())))
    return Expected(tuple(table.schema.names), columns, len(order))


def mismatch(result, expected: Expected) -> str | None:
    """Why ``result`` is not the expected table, or ``None`` if it is."""
    if tuple(result.schema.names) != expected.names:
        return f"columns {result.schema.names} != {expected.names}"
    if result.num_rows != expected.num_rows:
        return f"{result.num_rows} rows, expected {expected.num_rows}"
    for name, column, (data, validity, all_valid) in zip(
        expected.names, result.columns, expected.columns
    ):
        if column.data.dtype != data.dtype:
            return f"column {name}: dtype {column.data.dtype} != {data.dtype}"
        if not np.array_equal(column.validity, validity):
            return f"column {name}: NULL positions differ"
        got = column.data if all_valid else column.data[validity]
        want = data if all_valid else data[validity]
        if not np.array_equal(got, want):
            return f"column {name}: values differ"
    return None


def table_bytes(table) -> int:
    """Bytes of a table's column arrays (values and validity)."""
    return sum(c.data.nbytes + c.validity.nbytes for c in table.columns)


def swap_two_rows(result):
    """A copy of ``result`` with its first and last rows exchanged.

    The negative self-test: verification must reject it (callers pick a
    result whose first and last rows differ).
    """
    from repro.table.column import ColumnVector
    from repro.table.table import Table

    columns = []
    for column in result.columns:
        data, validity = column.data.copy(), column.validity.copy()
        data[[0, -1]] = data[[-1, 0]]
        validity[[0, -1]] = validity[[-1, 0]]
        columns.append(ColumnVector(column.dtype, data, validity))
    return Table(result.schema, columns)
