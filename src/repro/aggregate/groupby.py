"""Sort-based GROUP BY aggregation.

The paper's future work observes that "the aggregate, join, and window
operators are also blocking operators" sharing DuckDB's unified row
format.  This module is the aggregate: it materializes its input, sorts
by the grouping keys with the normalized-key sort operator, detects group
boundaries by comparing adjacent rows of the sorted key columns
(:func:`~repro.table.table.group_changed`), and evaluates aggregates per
group with vectorized numpy (``np.add.reduceat`` and friends).

Sort-based (rather than hash-based) aggregation is exactly the design the
paper's row format enables: groups come out in key order, so a group is
a run of equal adjacent rows and no key is encoded a second time.

Supported aggregates: ``count`` (non-NULL of a column, or ``count(*)``),
``sum``, ``min``, ``max``, ``avg``.
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

__all__ = ["Aggregate", "group_by"]

_AGGREGATES = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate expression.

    Attributes:
        name: count / sum / min / max / avg.
        column: argument column; ``None`` means ``count(*)``.
        output: output column name (defaults to ``name_column``).
    """

    name: str
    column: str | None = None
    output: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _AGGREGATES:
            raise SortError(
                f"unknown aggregate {self.name!r}; supported: {_AGGREGATES}"
            )
        if self.name != "count" and self.column is None:
            raise SortError(f"{self.name} needs an argument column")

    @property
    def output_name(self) -> str:
        if self.output:
            return self.output
        if self.column:
            return f"{self.name}_{self.column}"
        return "count_star"


def group_by(
    table: Table,
    keys: Sequence[str],
    aggregates: Sequence[Aggregate],
    config: SortConfig | None = None,
    presorted: bool = False,
) -> Table:
    """Group ``table`` by ``keys`` and evaluate ``aggregates`` per group.

    Output: one row per distinct key combination (NULL is a group, SQL
    semantics), key columns first in key order, then aggregate columns.

    ``presorted`` asserts the input already arrives sorted by ``keys``
    (ascending, NULLS LAST -- the exact spec this function would sort
    by): the internal sort is skipped and boundary detection runs
    directly.  The output is byte-identical either way, because the
    sort is stable and sorting an already-sorted table is the identity
    permutation.
    """
    keys = list(keys)
    if not keys:
        raise SortError("group_by needs at least one key column")
    if not aggregates:
        raise SortError("group_by needs at least one aggregate")
    names = [a.output_name for a in aggregates]
    if len(set(names)) != len(names) or any(n in keys for n in names):
        raise SortError("aggregate output names collide")
    for a in aggregates:
        if a.column is not None:
            dtype = table.schema.column(a.column).dtype
            if a.name in ("sum", "avg") and dtype.is_variable_width:
                raise SortError(f"{a.name} needs a numeric column")

    spec = SortSpec(tuple(SortKey(k) for k in keys))
    if presorted:
        sorted_table = table
    else:
        sorted_table = sort_table(table, spec, config)
    n = sorted_table.num_rows

    changed = group_changed(sorted_table, keys)
    starts = np.flatnonzero(np.concatenate(([n > 0], changed)))

    # Key columns: first row of each group.
    out_columns: list[ColumnVector] = []
    out_defs: list[ColumnDef] = []
    for key in keys:
        column = sorted_table.column(key)
        out_columns.append(column.take(starts))
        out_defs.append(ColumnDef(key, column.dtype))

    stops = np.concatenate((starts[1:], [n])).astype(np.int64)
    for aggregate in aggregates:
        out_columns.append(
            _evaluate(aggregate, sorted_table, starts, stops)
        )
        out_defs.append(
            ColumnDef(aggregate.output_name, out_columns[-1].dtype)
        )
    return Table(Schema(tuple(out_defs)), out_columns)


def _evaluate(
    aggregate: Aggregate, sorted_table: Table, starts, stops
) -> ColumnVector:
    num_groups = len(starts)
    if aggregate.column is None:
        counts = (stops - starts).astype(np.int64)
        return ColumnVector(BIGINT, counts)

    column = sorted_table.column(aggregate.column)
    valid = column.validity.astype(np.int64)
    if aggregate.name == "count":
        counts = _reduceat_sum(valid, starts)
        return ColumnVector(BIGINT, counts.astype(np.int64))

    if column.dtype.is_variable_width:
        # min/max over strings: per-group Python reduction.
        values = []
        validity = np.zeros(num_groups, dtype=bool)
        out = np.empty(num_groups, dtype=object)
        for g, (start, stop) in enumerate(zip(starts, stops)):
            group = [
                column.value(r)
                for r in range(int(start), int(stop))
                if column.validity[r]
            ]
            if group:
                validity[g] = True
                out[g] = min(group) if aggregate.name == "min" else max(group)
            else:
                out[g] = ""
        del values
        return ColumnVector(column.dtype, out, validity)

    data = column.data.astype(np.float64)
    masked = np.where(column.validity, data, 0.0)
    counts = _reduceat_sum(valid, starts)
    validity = counts > 0
    if aggregate.name in ("sum", "avg"):
        sums = _reduceat_sum(masked, starts)
        if aggregate.name == "avg":
            safe = np.where(counts > 0, counts, 1)
            return ColumnVector(DOUBLE, sums / safe, validity)
        return ColumnVector(DOUBLE, sums, validity)
    # min / max: mask NULLs with the opposite extreme, reduce per group.
    if aggregate.name == "min":
        filler = np.inf
        reducer = np.minimum
    else:
        filler = -np.inf
        reducer = np.maximum
    masked = np.where(column.validity, data, filler)
    extremes = reducer.reduceat(masked, starts) if len(starts) else np.zeros(0)
    extremes = np.where(validity, extremes, 0.0)
    return ColumnVector(DOUBLE, extremes.astype(np.float64), validity)


def _reduceat_sum(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    if len(starts) == 0:
        return np.zeros(0, dtype=np.float64)
    return np.add.reduceat(values, starts)
