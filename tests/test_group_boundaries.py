"""Group boundaries on column values, against plain-Python oracles.

GROUP BY, window and merge join find their groups with
:func:`repro.table.table.group_changed`: adjacent rows of the sorted
table compared on the key columns themselves.  The inputs here are the
values where that equality is easy to get wrong -- NaN, ``-0.0`` next to
``+0.0``, NULL rows whose data slot holds a nonzero filler, ``""`` next
to NULL, strings that end in NUL, strings sharing a stem longer than the
key's string prefix -- over 1-3 key columns in every direction and NULL
placement.  In the oracles NULL equals NULL and NaN equals NaN.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from test_string_sort_exact import string_table
from repro.aggregate.groupby import Aggregate, group_by
from repro.join.merge_join import merge_join
from repro.keys.normalizer import MAX_STRING_PREFIX
from repro.sort.operator import sort_table
from repro.table.column import ColumnVector
from repro.table.table import Table, group_changed
from repro.types.datatypes import BIGINT, DOUBLE, VARCHAR
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import NullOrder, Order, SortKey, SortSpec
from repro.window.functions import WindowFunction, WindowSpec, window

STEM = "s" * (MAX_STRING_PREFIX + 5)
ALPHABET = {
    DOUBLE: [math.nan, -0.0, 0.0, 1.5, -1.5, None],
    VARCHAR: [
        "", None, "a", "a\0", "a\0\0", "b",
        STEM, STEM + "a", STEM + "a\0", STEM + "b",
    ],
    BIGINT: [0, -1, 1, None],
}
# What a NULL row's data slot holds: never the zero a normalizer writes.
FILLER = {DOUBLE: 7.25, VARCHAR: "filler", BIGINT: 99}
SEEDS = range(16)


def edge_table(rng: random.Random, dtypes, n: int) -> Table:
    """Key columns ``k0..`` drawn from the alphabet, plus ``v`` and ``id``."""
    defs, columns = [], []
    for i, dtype in enumerate(dtypes):
        values = [rng.choice(ALPHABET[dtype]) for _ in range(n)]
        validity = np.array([v is not None for v in values], dtype=bool)
        data = [FILLER[dtype] if v is None else v for v in values]
        array = np.empty(n, dtype=dtype.numpy_dtype)
        array[:] = data
        defs.append(ColumnDef(f"k{i}", dtype))
        columns.append(ColumnVector(dtype, array, validity))
    v = [None if rng.random() < 0.2 else rng.randrange(-3, 4) for _ in range(n)]
    extra = Table.from_pydict({"v": v, "id": list(range(n))})
    return Table(
        Schema(tuple(defs) + extra.schema.columns),
        columns + list(extra.columns),
    )


def edge_case(seed: int):
    """``(table, keys, spec)``: 1-3 keys, random directions and NULL order."""
    rng = random.Random(seed)
    dtypes = [rng.choice(list(ALPHABET)) for _ in range(rng.randint(1, 3))]
    keys = [f"k{i}" for i in range(len(dtypes))]
    spec = SortSpec(
        tuple(
            SortKey(
                k,
                rng.choice(list(Order)),
                rng.choice(list(NullOrder)),
            )
            for k in keys
        )
    )
    return edge_table(rng, dtypes, 60), keys, spec


def canon(value):
    if value is None:
        return ("null",)
    if isinstance(value, float) and math.isnan(value):
        return ("nan",)
    return ("value", value)  # -0.0 == 0.0, and they hash alike


def key_tuples(table: Table, keys) -> list[tuple]:
    columns = [table.column(k).to_pylist() for k in keys]
    return [tuple(canon(c[i]) for c in columns) for i in range(len(table))]


def dup_heavy_strings():
    table = string_table(23, 1200, dup_heavy=True)
    return table, ["s"], SortSpec.of("s")


@pytest.mark.parametrize(
    "case",
    [pytest.param(lambda s=s: edge_case(s), id=f"seed{s}") for s in SEEDS]
    + [pytest.param(dup_heavy_strings, id="dup_heavy_strings")],
)
def test_group_changed_matches_tuple_compare(case):
    table, keys, spec = case()
    for t in (table, sort_table(table, spec)):
        rows = key_tuples(t, keys)
        expected = [rows[i] != rows[i - 1] for i in range(1, len(rows))]
        assert group_changed(t, keys).tolist() == expected


def test_group_changed_empty_and_single_row():
    table, keys, _ = edge_case(0)
    for n in (0, 1):
        assert group_changed(table.slice(0, n), keys).shape == (0,)


@pytest.mark.parametrize("seed", SEEDS)
def test_group_by_matches_oracle(seed):
    table, keys, _ = edge_case(seed)
    result = group_by(
        table, keys, [Aggregate("count"), Aggregate("sum", "v")]
    )
    groups: dict[tuple, list] = {}
    for key, v in zip(key_tuples(table, keys), table.column("v").to_pylist()):
        groups.setdefault(key, []).append(v)
    expected = {}
    for key, vs in groups.items():
        valid = [v for v in vs if v is not None]
        expected[key] = (len(vs), float(sum(valid)) if valid else None)
    got = dict(
        zip(
            key_tuples(result, keys),
            zip(
                result.column("count_star").to_pylist(),
                result.column("sum_v").to_pylist(),
            ),
        )
    )
    assert result.num_rows == len(expected)
    assert got == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_window_ranks_match_oracle(seed):
    table, keys, spec = edge_case(seed)
    split = seed % (len(keys) + 1)
    wspec = WindowSpec(tuple(keys[:split]), spec.keys[split:])
    result = window(
        table,
        wspec,
        [
            WindowFunction("row_number"),
            WindowFunction("rank"),
            WindowFunction("dense_rank"),
        ],
    )
    assert result.select(table.schema.names).equals(
        sort_table(table, wspec.sort_spec())
    )
    partitions = key_tuples(result, keys[:split])
    peers = key_tuples(result, [k.column for k in spec.keys[split:]])
    expected = []
    for i, (part, peer) in enumerate(zip(partitions, peers)):
        if i == 0 or part != partitions[i - 1]:
            number, rank, dense = 1, 1, 1
        else:
            number += 1
            if peer != peers[i - 1]:
                rank, dense = number, dense + 1
        expected.append((number, rank, dense))
    got = list(
        zip(
            result.column("row_number").to_pylist(),
            result.column("rank").to_pylist(),
            result.column("dense_rank").to_pylist(),
        )
    )
    assert got == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_merge_join_matches_oracle(seed):
    left, keys, _ = edge_case(seed)
    dtypes = [left.column(k).dtype for k in keys]
    right = edge_table(random.Random(seed + 1000), dtypes, 40)
    result = merge_join(left, right, keys, keys)
    # Output order: left rows in left-sorted order, each paired with
    # its matches in right-sorted order.
    spec = SortSpec(tuple(SortKey(k) for k in keys))
    left_sorted = sort_table(left, spec)
    right_sorted = sort_table(right, spec)
    right_rows = list(
        zip(key_tuples(right_sorted, keys), right_sorted.column("id").to_pylist())
    )
    expected = [
        (lid, rid)
        for lkey, lid in zip(
            key_tuples(left_sorted, keys), left_sorted.column("id").to_pylist()
        )
        if ("null",) not in lkey
        for rkey, rid in right_rows
        if rkey == lkey
    ]
    got = list(
        zip(result.column("l_id").to_pylist(), result.column("r_id").to_pylist())
    )
    assert got == expected
