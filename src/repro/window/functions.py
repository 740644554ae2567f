"""Window functions over the sort operator.

The paper opens with "The ORDER BY and WINDOW operators explicitly invoke
sorting"; this module is the WINDOW half.  A window computation sorts the
input by (PARTITION BY keys, ORDER BY keys) with the normalized-key sort
operator, detects partition and peer boundaries by comparing adjacent rows
of the sorted key columns (:func:`~repro.table.table.group_changed`), and
evaluates the requested functions per partition with vectorized numpy.

Supported functions: ``row_number``, ``rank``, ``dense_rank``,
``lag``/``lead`` (offset 1 over any column), ``running_count``, and
``running_sum`` over a numeric column.

The result is the sorted table plus one appended column per requested
function (window semantics over the sorted frame; callers needing the
original row order can carry a position column through).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import SortError
from repro.sort.operator import SortConfig, sort_table
from repro.table.column import ColumnVector
from repro.table.table import Table, group_changed
from repro.types.datatypes import BIGINT, DOUBLE
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import SortKey, SortSpec

__all__ = ["WindowFunction", "WindowSpec", "window"]

_FUNCTIONS = (
    "row_number",
    "rank",
    "dense_rank",
    "lag",
    "lead",
    "running_count",
    "running_sum",
)


@dataclass(frozen=True)
class WindowFunction:
    """One requested window computation.

    Attributes:
        name: one of the supported function names.
        column: argument column (required by lag/lead/running_sum).
        output: output column name (defaults to a derived name).
    """

    name: str
    column: str | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _FUNCTIONS:
            raise SortError(
                f"unknown window function {self.name!r}; "
                f"supported: {_FUNCTIONS}"
            )
        if self.name in ("lag", "lead", "running_sum") and self.column is None:
            raise SortError(f"{self.name} needs an argument column")

    @property
    def output_name(self) -> str:
        if self.output:
            return self.output
        if self.column:
            return f"{self.name}_{self.column}"
        return self.name


@dataclass(frozen=True)
class WindowSpec:
    """PARTITION BY / ORDER BY of a window clause."""

    partition_by: tuple[str, ...] = ()
    order_by: tuple[SortKey, ...] = ()

    @classmethod
    def of(cls, partition_by: Sequence[str] = (), order_by: Sequence[str] = ()):
        return cls(
            tuple(partition_by),
            tuple(SortKey.parse(k) for k in order_by),
        )

    def sort_spec(self) -> SortSpec:
        keys = tuple(SortKey(c) for c in self.partition_by) + self.order_by
        if not keys:
            raise SortError("window needs PARTITION BY and/or ORDER BY keys")
        return SortSpec(keys)


def _group_starts(sorted_table: Table, names: Sequence[str]) -> np.ndarray:
    """``starts[i]``: row ``i`` of the sorted table opens a new group."""
    changed = group_changed(sorted_table, names)
    return np.concatenate(([True], changed))[: sorted_table.num_rows]


def window(
    table: Table,
    spec: WindowSpec,
    functions: Sequence[WindowFunction],
    config: SortConfig | None = None,
    presorted: bool = False,
) -> Table:
    """Evaluate window functions; returns the sorted table + new columns.

    ``presorted`` asserts the input already arrives sorted by the
    window's (PARTITION BY, ORDER BY) sort spec, so the internal sort
    is skipped -- the order-propagation fast path.  Results are
    byte-identical either way (the sort is stable, and a stable sort of
    sorted input is the identity).
    """
    if not functions:
        raise SortError("no window functions requested")
    names = {f.output_name for f in functions}
    if len(names) != len(functions):
        raise SortError("window output names collide")
    for f in functions:
        if f.column is not None:
            table.schema.column(f.column)
        if f.output_name in table.schema:
            raise SortError(
                f"output column {f.output_name!r} already exists"
            )

    if presorted:
        spec.sort_spec()  # still validates the spec is non-empty
        sorted_table = table
    else:
        sorted_table = sort_table(table, spec.sort_spec(), config)
    n = sorted_table.num_rows
    new_partition = _group_starts(sorted_table, spec.partition_by)
    # Per-row position within its partition: global index minus the
    # index of the partition's first row.
    partition_ordinal = np.cumsum(new_partition) - 1
    first_of_partition = np.flatnonzero(new_partition)[partition_ordinal]
    position = np.arange(n, dtype=np.int64) - first_of_partition

    columns = list(sorted_table.columns)
    defs = list(sorted_table.schema.columns)
    new_peer = None
    for f in functions:
        if f.name == "row_number":
            data = position + 1
            new = ColumnVector(BIGINT, data.astype(np.int64))
        elif f.name in ("rank", "dense_rank"):
            if new_peer is None:
                order_columns = [k.column for k in spec.order_by]
                new_peer = new_partition | _group_starts(
                    sorted_table, order_columns
                )
            new = _rank_column(
                new_peer, first_of_partition, dense=f.name == "dense_rank"
            )
        elif f.name in ("lag", "lead"):
            new = _shift_column(
                sorted_table.column(f.column), new_partition, f.name == "lead"
            )
        elif f.name == "running_count":
            new = ColumnVector(BIGINT, (position + 1).astype(np.int64))
        else:  # running_sum
            new = _running_sum(
                sorted_table.column(f.column), first_of_partition
            )
        columns.append(new)
        defs.append(ColumnDef(f.output_name, new.dtype))
    return Table(Schema(tuple(defs)), columns)


def _rank_column(
    new_peer: np.ndarray, first_of_partition: np.ndarray, dense: bool
) -> ColumnVector:
    """rank / dense_rank from the rows that open a peer group.

    ``new_peer[i]`` is true where row ``i`` differs from row ``i - 1`` on
    the PARTITION BY or ORDER BY columns.
    """
    if dense:
        # Count of distinct peer groups so far within the partition.
        peer_ordinal = np.cumsum(new_peer)
        ranks = peer_ordinal - peer_ordinal[first_of_partition] + 1
    else:
        # rank = position of the peer group's first row + 1.
        n = len(new_peer)
        peer_start = np.maximum.accumulate(np.where(new_peer, np.arange(n), 0))
        ranks = peer_start - first_of_partition + 1
    return ColumnVector(BIGINT, ranks.astype(np.int64))


def _shift_column(
    column: ColumnVector, new_partition: np.ndarray, lead: bool
) -> ColumnVector:
    n = len(column)
    data = np.empty_like(column.data)
    validity = np.zeros(n, dtype=bool)
    if n:
        if lead:
            data[:-1] = column.data[1:]
            validity[:-1] = column.validity[1:]
            validity[:-1] &= ~new_partition[1:]
        else:
            data[1:] = column.data[:-1]
            validity[1:] = column.validity[:-1]
            validity &= ~new_partition
        if column.dtype.is_variable_width:
            data[~validity] = ""
        else:
            data[~validity] = 0
    return ColumnVector(column.dtype, data, validity)


def _running_sum(
    column: ColumnVector, first_of_partition: np.ndarray
) -> ColumnVector:
    if column.dtype.is_variable_width:
        raise SortError("running_sum needs a numeric column")
    values = np.where(column.validity, column.data, 0).astype(np.float64)
    cumulative = np.cumsum(values)
    if len(values):
        first = first_of_partition
        base = np.where(first > 0, cumulative[first - 1], 0.0)
        cumulative = cumulative - base
    return ColumnVector(DOUBLE, cumulative)
