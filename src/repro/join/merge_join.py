"""Sort-merge equi-join: the classic consumer of sorted runs.

The paper motivates efficient relational sorting partly through join
algorithms: "merge joins ... iterate sequentially over sorted runs and
compare tuples", requiring the full tuple comparisons that make
interpreted engines slow and normalized keys attractive (Section V-B).

This operator does exactly that: both inputs are sorted by their join
keys with the paper's sort operator (normalized keys and all), then the
equal-key groups of the two sides are aligned and their cross products
emitted.  After the sort nothing needs the normalized keys again: each
side's groups are runs of equal adjacent rows
(:func:`repro.table.table.group_changed` compares the key columns
themselves, exactly, strings included), and one representative row per
group carries the group's key.  The representatives of both sides get
joint dense codes -- one ``np.unique`` per key column over both sides'
values, folded column by column -- so two groups match exactly when
their codes are equal, and one lookup pairs every left group with its
right group.  The matched groups' cross products are expanded with
``repeat``/arange arithmetic, no per-group Python loop.

``left_presorted`` / ``right_presorted`` skip that side's input sort
when the caller knows the input already arrives sorted by its join
keys.  The engine's merge join passes both: :mod:`repro.engine.plan`
puts each side's sort in a Sort node of its own, which the optimizer
may elide and which reports its ``SortStats``.

SQL semantics: NULL join keys match nothing (inner join), and rows
within a group keep their sorted order, so output order is
deterministic -- key groups ascend by the left join keys, pairs within
a group are in (left-sorted, right-sorted) nested order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SortError
from repro.sort.operator import SortConfig, sort_table
from repro.table.table import Table, group_changed
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import SortKey, SortSpec

__all__ = ["merge_join"]


def _prefixed_schema(schema: Schema, prefix: str, other: Schema) -> list[str]:
    """Output names for one side, prefixing collisions with ``prefix``."""
    names = []
    for column in schema.names:
        if column in other:
            names.append(f"{prefix}{column}")
        else:
            names.append(column)
    return names


def merge_join(
    left: Table,
    right: Table,
    left_keys: Sequence[str],
    right_keys: Sequence[str],
    left_prefix: str = "l_",
    right_prefix: str = "r_",
    config: SortConfig | None = None,
    left_presorted: bool = False,
    right_presorted: bool = False,
) -> Table:
    """Inner sort-merge join of two tables on equality of key columns.

    Args:
        left, right: input tables.
        left_keys, right_keys: equal-length column lists joined pairwise.
        left_prefix, right_prefix: prefixes applied to colliding output
            column names.
        config: sort configuration for the two input sorts.
        left_presorted, right_presorted: skip that side's input sort;
            the caller asserts the table already arrives sorted by its
            join keys (ascending, NULLS LAST).

    Returns:
        The joined table: all left columns then all right columns, with
        key groups in key order and pairs in (left-sorted, right-sorted)
        nested order.
    """
    left_keys = list(left_keys)
    right_keys = list(right_keys)
    if len(left_keys) != len(right_keys) or not left_keys:
        raise SortError("join needs equally many key columns on both sides")
    for name in left_keys:
        left.schema.column(name)
    for name in right_keys:
        right.schema.column(name)
    for lk, rk in zip(left_keys, right_keys):
        lt = left.schema.column(lk).dtype
        rt = right.schema.column(rk).dtype
        if lt.type_id is not rt.type_id:
            raise SortError(
                f"cannot join {lk} ({lt.name}) with {rk} ({rt.name})"
            )

    left_sorted = left if left_presorted else sort_table(
        left, SortSpec(tuple(SortKey(k) for k in left_keys)), config
    )
    right_sorted = right if right_presorted else sort_table(
        right, SortSpec(tuple(SortKey(k) for k in right_keys)), config
    )

    left_index, right_index = _align_groups(
        left_sorted, right_sorted, left_keys, right_keys
    )
    left_rows = left_sorted.take(left_index)
    right_rows = right_sorted.take(right_index)

    left_names = _prefixed_schema(left.schema, left_prefix, right.schema)
    right_names = _prefixed_schema(right.schema, right_prefix, left.schema)
    columns = list(left_rows.columns) + list(right_rows.columns)
    defs = tuple(
        ColumnDef(name, col.dtype)
        for name, col in zip(left_names + right_names, columns)
    )
    return Table(Schema(defs), columns)


def _all_keys_valid(table: Table, keys: list[str]) -> np.ndarray:
    valid = np.ones(table.num_rows, dtype=bool)
    for name in keys:
        column = table.column(name)
        if column.has_nulls:
            valid &= column.validity
    return valid


def _key_groups(sorted_table: Table, keys: list[str]):
    """Rows with no NULL key, and where their equal-key groups start.

    Returns ``(rows, starts)``; ``starts`` indexes ``rows``.  Dropping the
    NULL-key rows keeps every group whole: equal keys are adjacent in a
    sorted table, so the row before a group's first valid row differs
    from it whether or not that row is dropped.
    """
    rows = np.flatnonzero(_all_keys_valid(sorted_table, keys))
    opens = np.concatenate(([True], group_changed(sorted_table, keys)))
    return rows, np.flatnonzero(opens[rows])


def _joint_codes(
    left: Table,
    left_reps: np.ndarray,
    left_keys: list[str],
    right: Table,
    right_reps: np.ndarray,
    right_keys: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Dense codes of both sides' group representatives: equal keys, equal
    codes.  ``np.unique`` treats NaN as NaN and ``-0.0`` as ``0.0``, as the
    sort does; a fold is re-densified so the next one cannot overflow."""
    code = np.zeros(len(left_reps) + len(right_reps), dtype=np.int64)
    for lk, rk in zip(left_keys, right_keys):
        values = np.concatenate(
            (left.column(lk).data[left_reps], right.column(rk).data[right_reps])
        )
        distinct, inverse = np.unique(values, return_inverse=True)
        code = np.unique(
            code * len(distinct) + inverse, return_inverse=True
        )[1]
    return code[: len(left_reps)], code[len(left_reps):]


def _align_groups(
    left_sorted: Table,
    right_sorted: Table,
    left_keys: list[str],
    right_keys: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Row index pairs of the join, fully vectorized.

    NULL keys are dropped up front (they match nothing); each side's
    exact groups are matched through their representatives' joint codes;
    matched groups expand to their cross products with repeat/arange
    arithmetic, left groups in left-sorted order.
    """
    empty = np.zeros(0, dtype=np.int64)
    l_rows, l_starts = _key_groups(left_sorted, left_keys)
    r_rows, r_starts = _key_groups(right_sorted, right_keys)
    if len(l_starts) == 0 or len(r_starts) == 0:
        return empty, empty
    l_code, r_code = _joint_codes(
        left_sorted, l_rows[l_starts], left_keys,
        right_sorted, r_rows[r_starts], right_keys,
    )
    # Right group of each code (-1: none); a side's codes are distinct.
    right_group = np.full(len(l_code) + len(r_code), -1, dtype=np.int64)
    right_group[r_code] = np.arange(len(r_code))
    rg = right_group[l_code]
    lg = np.flatnonzero(rg >= 0)
    rg = rg[lg]
    if len(lg) == 0:
        return empty, empty

    left_starts = np.append(l_starts, len(l_rows))
    right_starts = np.append(r_starts, len(r_rows))
    l_start = left_starts[lg]
    l_len = left_starts[lg + 1] - l_start
    r_start = right_starts[rg]
    r_len = right_starts[rg + 1] - r_start
    pair_counts = l_len * r_len
    total = int(pair_counts.sum())
    base = np.repeat(np.cumsum(pair_counts) - pair_counts, pair_counts)
    ordinal = np.arange(total, dtype=np.int64) - base
    r_len_rep = np.repeat(r_len, pair_counts)
    left_pos = np.repeat(l_start, pair_counts) + ordinal // r_len_rep
    right_pos = np.repeat(r_start, pair_counts) + ordinal % r_len_rep
    return l_rows[left_pos], r_rows[right_pos]
