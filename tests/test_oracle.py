"""Property-based oracle tests: every pipeline vs. a Python tuple-key sort.

The oracle builds, per row, an actual Python *tuple key* (NULL rank,
NaN rank, possibly direction-reversed value) whose plain ``sorted()``
order is the ORDER BY semantics of :mod:`repro.types.sortspec` --
including NULLS FIRST/LAST placement (independent of direction) and
NaN-after-all-floats (before, under DESC).  Because ``sorted()`` is
stable, the oracle also pins tie order to input order, which every
pipeline reproduces via the row-id key suffix.

Each seed-deterministic random table is then pushed through the
in-memory operator, the scalar reference sort
(:func:`repro.scalar.reference.reference_sort`), the spilling external
operator, and Top-N, and each result must match the oracle byte for
byte.  The two operators share their run generator and merger; one grid
drives both classes over every catalog scenario x {1, 2, 7 runs} x VARCHAR
prefix chosen from the data or forced, and a second drives the stages
themselves over 2 and 7 *resident* runs (the in-memory operator cuts one).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import sort_resident_runs, sort_spilling
from test_external_kway import assert_byte_identical
from repro.errors import SortError
from repro.scalar.reference import ALGORITHMS, ReferenceStats, reference_sort
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig, SortOperator, sort_table
from repro.sort.topn import TopNOperator
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec


class _Reversed:
    """Wraps a comparable so ``sorted`` orders it descending."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        # Needed so tuple comparison falls through to later sort keys
        # when this key ties.
        return self.value == other.value


def oracle_order(table: Table, spec: SortSpec) -> np.ndarray:
    """Row permutation from ``sorted()`` over Python tuple keys."""
    key_indices = [table.schema.index_of(k.column) for k in spec.keys]
    rows = [table.row(i) for i in range(table.num_rows)]

    def tuple_key(index: int):
        parts = []
        for col, key in zip(key_indices, spec.keys):
            value = rows[index][col]
            if value is None:
                # NULL placement ignores direction; the inner slot is
                # never compared against a non-NULL row's (disjoint rank).
                parts.append((0 if key.nulls_first else 1, 0))
                continue
            if isinstance(value, float) and math.isnan(value):
                inner = (1, 0.0)  # after every float, ascending
            else:
                inner = (0, value)
            if key.descending:
                inner = _Reversed(inner)
            parts.append((1 if key.nulls_first else 0, inner))
        return tuple(parts)

    order = sorted(range(table.num_rows), key=tuple_key)
    return np.asarray(order, dtype=np.int64)


def oracle_sort(table: Table, spec: SortSpec) -> Table:
    if table.num_rows == 0:
        return table
    return table.take(oracle_order(table, spec))


def random_table(rng: np.random.Generator, n: int) -> Table:
    """Ints, strings, floats; NULLs in all three; NaNs among the floats."""
    ints = rng.integers(-40, 40, max(n, 1))
    strs = rng.integers(0, 25, max(n, 1))
    floats = rng.uniform(-10, 10, max(n, 1))
    nan_mask = rng.random(max(n, 1)) < 0.15
    null_mask = rng.random((3, max(n, 1))) < 0.12
    return Table.from_pydict(
        {
            "i": [
                None if null_mask[0][k] else int(ints[k]) for k in range(n)
            ],
            "s": [
                None if null_mask[1][k] else f"v{strs[k]:02d}"
                for k in range(n)
            ],
            "f": [
                None
                if null_mask[2][k]
                else (float("nan") if nan_mask[k] else float(floats[k]))
                for k in range(n)
            ],
            "row_id": list(range(n)),
        }
    )


SPECS = [
    "i",
    "i DESC",
    "f",
    "f DESC NULLS FIRST",
    "s NULLS FIRST, i DESC",
    "f DESC, s, i NULLS FIRST",
]

SIZES = [0, 1, 2, 700, 1500]


@pytest.mark.parametrize("spec_text", SPECS)
@pytest.mark.parametrize("size", SIZES)
def test_in_memory_matches_oracle(spec_text, size):
    rng = np.random.default_rng(hash((spec_text, size)) % (1 << 32))
    table = random_table(rng, size)
    spec = SortSpec.of(*[p.strip() for p in spec_text.split(",")])
    expected = oracle_sort(table, spec)
    result = sort_table(table, spec, SortConfig(run_threshold=500))
    assert_byte_identical(expected, result)
    assert_byte_identical(expected, reference_sort(table, spec))


@pytest.mark.parametrize("spec_text", ["i", "f DESC, s", "s NULLS FIRST, f"])
def test_external_matches_oracle(tmp_path, spec_text):
    rng = np.random.default_rng(hash(spec_text) % (1 << 32))
    table = random_table(rng, 1400)
    spec = SortSpec.of(*[p.strip() for p in spec_text.split(",")])
    expected = oracle_sort(table, spec)
    result = sort_spilling(
        table, spec, SortConfig(run_threshold=400), str(tmp_path)
    )
    assert_byte_identical(expected, result)


@pytest.mark.parametrize("limit,offset", [(10, 0), (25, 5), (1000, 0), (7, 3)])
def test_topn_matches_oracle_prefix(limit, offset):
    rng = np.random.default_rng(limit * 100 + offset)
    table = random_table(rng, 900)
    spec = SortSpec.of("f DESC", "i")
    expected = oracle_sort(table, spec).slice(
        min(offset, table.num_rows),
        min(offset + limit, table.num_rows),
    )
    operator = TopNOperator(table.schema, spec, limit, offset)
    for chunk in chunk_table(table, 128):
        operator.sink(chunk)
    assert_byte_identical(expected, operator.finalize())


def test_oracle_agrees_with_reference_sort():
    """The tuple-key oracle and the cmp-based reference must coincide."""
    from conftest import reference_sort as cmp_reference_sort

    rng = np.random.default_rng(99)
    table = random_table(rng, 400)
    spec = SortSpec.of("f DESC NULLS FIRST", "s", "i DESC")
    assert_byte_identical(
        cmp_reference_sort(table, spec), oracle_sort(table, spec)
    )


# --------------------------------------------------------------------- #
# Scenario-parameterized differential suite: every workload generator
# in the catalog, through every sort path, against the tuple-key oracle.
# --------------------------------------------------------------------- #

from repro.sort.incremental import IncrementalSorter  # noqa: E402
from repro.workloads.scenarios import SCENARIOS  # noqa: E402

SCENARIO_ROWS = 1200
SCENARIO_SEED = 23
FORCED_PREFIX = 8  # a forced VARCHAR key width that truncates most strings


def prefix_config(forced_prefix: bool, **config) -> SortConfig:
    return SortConfig(
        string_prefix=FORCED_PREFIX if forced_prefix else None, **config
    )


def _scenario_case(name: str):
    scenario = SCENARIOS[name]
    table = scenario.table(SCENARIO_ROWS, seed=SCENARIO_SEED)
    spec = SortSpec.of(*[p.strip() for p in scenario.order_by.split(",")])
    return table, spec


def _assert_oracle(expected: Table, actual: Table, name: str, path: str):
    """Byte identity, re-raised with the reproduction coordinates."""
    try:
        assert_byte_identical(expected, actual)
    except AssertionError as exc:
        raise AssertionError(
            f"scenario {name!r} path {path!r} diverged from the oracle "
            f"(rows={SCENARIO_ROWS} seed={SCENARIO_SEED}): {exc}"
        ) from exc


@pytest.mark.parametrize("use_kernels", [True, False])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_in_memory_matches_oracle(name, use_kernels):
    # False: the scalar reference sort under DuckDB's algorithm rule.
    table, spec = _scenario_case(name)
    expected = oracle_sort(table, spec)
    if use_kernels:
        result = sort_table(table, spec, SortConfig(run_threshold=500))
    else:
        result = reference_sort(table, spec)
    _assert_oracle(
        expected, result, name, f"in_memory(kernels={use_kernels})"
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS[1:])  # None: above
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_reference_sort_matches_oracle(name, algorithm):
    table, spec = _scenario_case(name)
    stats = ReferenceStats()
    result = reference_sort(table, spec, algorithm, stats)
    _assert_oracle(
        oracle_sort(table, spec), result, name, f"reference({algorithm})"
    )
    assert stats.algorithm in ("radix", "pdqsort")
    if algorithm == "pdqsort":
        assert stats.algorithm == "pdqsort"


# Embedded NULs, and pairs that differ by trailing NULs only (those tie
# in zero-padded key bytes, so the segment is inexact at any width).
NUL_STRINGS = {
    "fits_prefix": ["a\0b", "a", "a\0a", "ab", None, "\0a", "b", "a\0b"],
    "trailing": ["a\0", "a", "a", "a\0", "", "\0", None, "\0\0"],
    "truncates": [
        "p" * 13 + tail for tail in ("\0b", "", "\0a", "b", "a", "\0b")
    ]
    + [None],
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("order_by", ["s", "s DESC NULLS FIRST"])
@pytest.mark.parametrize("case", sorted(NUL_STRINGS))
def test_reference_sort_embedded_nuls_match_oracle(case, order_by, algorithm):
    values = NUL_STRINGS[case]
    table = Table.from_pydict({"s": values, "k": list(range(len(values)))})
    spec = SortSpec.of(order_by, "k DESC")
    stats = ReferenceStats()
    result = reference_sort(table, spec, algorithm, stats)
    assert_byte_identical(oracle_sort(table, spec), result)
    if case != "fits_prefix":
        # Radix cannot break an inexact prefix's ties.
        assert stats.algorithm == "pdqsort"


def test_reference_sort_rejects_unknown_algorithm():
    table = Table.from_pydict({"a": [2, 1]})
    with pytest.raises(SortError, match="algorithm"):
        reference_sort(table, SortSpec.of("a"), "timsort")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_external_matches_oracle(tmp_path, name):
    table, spec = _scenario_case(name)
    expected = oracle_sort(table, spec)
    result = sort_spilling(
        table, spec, SortConfig(run_threshold=400), str(tmp_path)
    )
    _assert_oracle(expected, result, name, "external")


@pytest.mark.parametrize("forced_prefix", [True, False])
@pytest.mark.parametrize("runs", [1, 2, 7])
@pytest.mark.parametrize("operator_class", [SortOperator, ExternalSortOperator])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_shared_stages_match_oracle(
    tmp_path, name, operator_class, runs, forced_prefix
):
    # Both operators are the same generator and merger around a
    # different run store, so each must hit the oracle under a
    # run_threshold of the whole input, half of it and a seventh, with
    # the VARCHAR prefix chosen from the data and forced (either way
    # the layout is the statistics one: rebased, key-carried where
    # eligible).  The spilling store cuts that many runs and merges them
    # in one pass; the resident store cuts one whatever the threshold
    # and hands it back unmerged (a truncating prefix still takes the
    # round loop, the one string repair).
    table, spec = _scenario_case(name)
    expected = oracle_sort(table, spec)
    chunk_rows = -(-table.num_rows // runs)
    config = prefix_config(forced_prefix, run_threshold=chunk_rows)
    if operator_class is ExternalSortOperator:
        operator = ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        )
    else:
        operator = SortOperator(table.schema, spec, config)
    for chunk in chunk_table(table, chunk_rows):
        operator.sink(chunk)
    result = operator.finalize()
    stats = operator.stats
    _assert_oracle(
        expected,
        result,
        name,
        f"{operator_class.__name__}(runs={runs}, forced={forced_prefix})",
    )
    if operator_class is SortOperator:
        assert stats.runs_generated == 1
        passes = 0 if stats.prefix_exact else 1
    else:
        assert stats.runs_generated == runs
        passes = 1
    assert stats.merge_passes == passes
    assert stats.kernel_kway_merges == passes


@pytest.mark.parametrize("forced_prefix", [True, False])
@pytest.mark.parametrize("runs", [2, 7])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_resident_runs_match_oracle(name, runs, forced_prefix):
    # Merging several *resident* runs is real where the external sort
    # falls back to memory, so the stages are driven directly: k runs
    # (rebased, key-carried where eligible), one k-way pass.
    table, spec = _scenario_case(name)
    result, stats = sort_resident_runs(
        table, spec, runs, prefix_config(forced_prefix)
    )
    _assert_oracle(
        oracle_sort(table, spec),
        result,
        name,
        f"resident(runs={runs}, forced={forced_prefix})",
    )
    assert stats.runs_generated == runs
    assert stats.merge_passes == 1
    assert stats.kernel_kway_merges == 1


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_incremental_matches_oracle(name):
    table, spec = _scenario_case(name)
    expected = oracle_sort(table, spec)
    for forced_prefix in (False, True):
        sorter = IncrementalSorter(
            table.schema,
            spec,
            prefix_config(forced_prefix),
            compact_threshold=3,
        )
        step = max(1, table.num_rows // 5)
        for start in range(0, table.num_rows, step):
            sorter.insert(
                table.slice(start, min(start + step, table.num_rows))
            )
        _assert_oracle(
            expected,
            sorter.view(),
            name,
            f"incremental forced_prefix={forced_prefix}",
        )


def _value_equal(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
    return a == b


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_topn_matches_oracle_prefix(name):
    # Value-level comparison: Top-N rebuilds its result rows, so bytes
    # under NULL positions are the canonical sentinels rather than the
    # generator's (the values, including NULLness, must still agree).
    table, spec = _scenario_case(name)
    limit, offset = 40, 5
    expected = oracle_sort(table, spec).slice(offset, offset + limit)
    operator = TopNOperator(table.schema, spec, limit, offset)
    for chunk in chunk_table(table, 256):
        operator.sink(chunk)
    actual = operator.finalize()
    assert actual.num_rows == expected.num_rows
    for i in range(expected.num_rows):
        left, right = expected.row(i), actual.row(i)
        assert all(
            _value_equal(a, b) for a, b in zip(left, right)
        ), (
            f"scenario {name!r} path 'topn' row {i} diverged "
            f"(rows={SCENARIO_ROWS} seed={SCENARIO_SEED}): "
            f"{left!r} != {right!r}"
        )
