"""The incremental sorter: maintained-view semantics, unit by unit.

The scenario differential suite (tests/test_oracle.py) already proves
the view equals the one-shot sort for every workload generator; these
tests pin the *contract* -- argument validation, run buffering and
auto-compaction, view caching, the deferred-string edge the harness
exposed, and the SortService integration (appends/snapshots as
governed tickets).
"""

from __future__ import annotations

import dataclasses

import pytest

from conftest import stems_first
from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort, prefix_config
from repro.engine.database import Database
from repro.errors import (
    SchemaError,
    ServiceError,
    SortCancelledError,
    SortError,
)
from repro.service.core import SortService
from repro.scalar.reference import reference_sort
from repro.sort.incremental import IncrementalSorter
from repro.sort.operator import SortConfig
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS


def _table(values: dict) -> Table:
    return Table.from_pydict(values)


def _ints(n: int, start: int = 0) -> Table:
    return _table(
        {"a": [(start + i) * 7 % 23 for i in range(n)], "p": list(range(n))}
    )


def oracle(table: Table, spec: str) -> Table:
    parsed = SortSpec.of(*[p.strip() for p in spec.split(",")])
    return reference_sort(table, parsed)


# --------------------------------------------------------------------- #
# Construction and validation
# --------------------------------------------------------------------- #


def test_compact_threshold_must_be_at_least_two():
    table = _ints(4)
    with pytest.raises(SortError, match="at least 2"):
        IncrementalSorter(table.schema, "a", compact_threshold=1)


def test_unknown_sort_column_rejected_at_construction():
    table = _ints(4)
    with pytest.raises(SchemaError):
        IncrementalSorter(table.schema, "nope")


def test_delta_schema_must_match():
    table = _ints(4)
    sorter = IncrementalSorter(table.schema, "a")
    with pytest.raises(SortError, match="does not match view"):
        sorter.insert(_table({"b": [1]}))


# --------------------------------------------------------------------- #
# Run buffering, compaction, caching
# --------------------------------------------------------------------- #


def test_empty_insert_and_empty_view():
    table = _ints(4)
    sorter = IncrementalSorter(table.schema, "a")
    sorter.insert(table.slice(0, 0))
    assert sorter.num_rows == 0
    assert sorter.pending_runs == 0
    assert sorter.view().num_rows == 0
    assert sorter.stats.deltas_inserted == 0


def test_runs_buffer_until_threshold_then_compact():
    table = _ints(40)
    sorter = IncrementalSorter(table.schema, "a", compact_threshold=3)
    sorter.insert(table.slice(0, 10))
    sorter.insert(table.slice(10, 20))
    assert sorter.pending_runs == 2
    assert sorter.stats.compactions == 0
    sorter.insert(table.slice(20, 30))  # third run triggers compaction
    assert sorter.pending_runs == 1
    assert sorter.stats.compactions == 1
    assert sorter.stats.runs_compacted == 3
    assert sorter.stats.rows_compacted == 30
    assert sorter.stats.peak_runs == 3
    assert sorter.num_rows == 30
    sorter.insert(table.slice(30, 40))
    assert sorter.num_rows == 40
    assert_byte_identical(oracle(table, "a, p"), sorter.view())
    # view() compacted the trailing run into the single view run.
    assert sorter.pending_runs == 1


def test_view_snapshot_cached_until_next_insert():
    table = _ints(30)
    sorter = IncrementalSorter(table.schema, "a")
    sorter.insert(table.slice(0, 15))
    first = sorter.view()
    assert sorter.view() is first  # steady reads are free
    sorter.insert(table.slice(15, 30))
    second = sorter.view()
    assert second is not first
    assert_byte_identical(oracle(table, "a, p"), second)


def test_stable_tie_order_across_deltas():
    # Equal keys across deltas must keep arrival order (row-id suffix +
    # earlier-run-wins merge), exactly like the one-shot stable sort.
    table = _table({"a": [5] * 12, "p": list(range(12))})
    sorter = IncrementalSorter(table.schema, "a", compact_threshold=2)
    for start in range(0, 12, 3):
        sorter.insert(table.slice(start, start + 3))
    assert_byte_identical(table, sorter.view())


def test_deferred_string_refinement_through_compaction():
    # Duplicate full strings beyond the 12-byte prefix with a trailing
    # tiebreak key: refinement must not scramble the trailing key bytes
    # before compaction merges (the deferred-refinement bug the bench
    # matrix exposed in the one-shot operators).
    strings = [f"prefix-{'pad' * 4}-{i % 3:02d}" for i in range(24)]
    table = _table({"s": strings, "p": [23 - i for i in range(24)]})
    sorter = IncrementalSorter(table.schema, "s, p", compact_threshold=2)
    for start in range(0, 24, 6):
        sorter.insert(table.slice(start, start + 6))
    assert_byte_identical(oracle(table, "s, p"), sorter.view())
    assert sorter.stats.sort.full_key_compares >= 0  # refine ran per view


# --------------------------------------------------------------------- #
# The compacting store over the shared stages
# --------------------------------------------------------------------- #


def _scenario(name: str, rows: int = 1500):
    scenario = SCENARIOS[name]
    table = scenario.table(rows, seed=29)
    spec = SortSpec.of(*[p.strip() for p in scenario.order_by.split(",")])
    return table, spec


def _stems_first_scenario(name: str, rows: int):
    table, spec = _scenario(name, rows)
    return stems_first(table), spec


def _assert_both_oracles(table: Table, spec: SortSpec, view: Table):
    assert_byte_identical(oracle_sort(table, spec), view)
    assert_byte_identical(reference_sort(table, spec), view)


@pytest.mark.parametrize("forced_prefix", [True, False])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_view_matches_both_oracles(name, forced_prefix):
    # The VARCHAR key width forced or chosen from the deltas seen so
    # far: either way the statistics layout.
    table, spec = _scenario(name)
    sorter = IncrementalSorter(
        table.schema, spec, prefix_config(forced_prefix), compact_threshold=3
    )
    for start in range(0, table.num_rows, 250):
        sorter.insert(table.slice(start, start + 250))
    _assert_both_oracles(table, spec, sorter.view())
    assert sorter.stats.compactions >= 2


def test_uniform_view_is_compressed_and_key_carried():
    table, spec = _scenario("uniform")
    sorter = IncrementalSorter(table.schema, spec, compact_threshold=3)
    for start in range(0, table.num_rows, 300):
        sorter.insert(table.slice(start, start + 300))
    _assert_both_oracles(table, spec, sorter.view())
    stats = sorter.stats.sort
    assert stats.key_width_used < stats.key_width_full
    assert stats.key_carried_runs == sorter.stats.deltas_inserted > 0
    assert stats.runs_generated == sorter.stats.deltas_inserted
    assert stats.rows_sorted == sorter.num_rows == table.num_rows


def test_widening_layout_rebases_earlier_runs():
    # Each delta's values need one more byte than the last, so every
    # earlier run is rebased onto the wider layout when compacted.
    values = [7, 3, 300, 70_000, 2, 5_000_000_000, 1, 9]
    table = _table({"a": values, "p": list(range(len(values)))})
    sorter = IncrementalSorter(table.schema, "a", compact_threshold=4)
    for start in range(0, len(values), 2):
        sorter.insert(table.slice(start, start + 2))
    assert sorter.stats.compactions == 1
    assert sorter.stats.sort.key_layout_rebases >= 1
    assert_byte_identical(oracle(table, "a, p"), sorter.view())


def _tied_strings(rows: int = 1400) -> tuple[Table, SortSpec]:
    """Few full strings, two stems that differ in the first byte and
    share the next 20 (nothing to skip), a trailing key."""
    strings = [
        f"{i % 2}prefix-{'pad' * 4}-{i * 7 % 5:02d}" for i in range(rows)
    ]
    table = _table({"s": strings, "p": [(i * 37) % 101 for i in range(rows)]})
    return table, SortSpec.of("s", "p")


@pytest.mark.parametrize(
    "case, config",
    [
        (_tied_strings, SortConfig()),
        (lambda: _scenario("mixed_null", 1400), SortConfig()),
        # The prefix forced to the cap from the first delta on.
        (lambda: _scenario("mixed_null", 1400), SortConfig(string_prefix=12)),
        # Truncated VARCHARs followed by later ORDER BY columns (stems
        # differing in the first byte: no skipped prefix unties them).
        (lambda: _stems_first_scenario("long_string", 1400), SortConfig()),
        (lambda: _scenario("tpcds_customer", 1400), SortConfig(string_prefix=2)),
    ],
    ids=[
        "tied_strings",
        "mixed_null",
        "mixed_null-plain",
        "long_string",
        "tpcds_customer",
    ],
)
def test_compacted_runs_stay_in_key_byte_order(case, config):
    # Compaction must not repair strings: a refined intermediate run is
    # no longer sorted by its key bytes, and the next compaction (or the
    # view's own repair) would merge it wrongly.
    table, spec = case()
    head, tail = table.slice(0, 1200), table.slice(1200, 1400)
    sorter = IncrementalSorter(
        table.schema, spec, config, compact_threshold=2
    )
    for start in range(0, head.num_rows, 200):
        sorter.insert(head.slice(start, start + 200))
    assert sorter.stats.compactions >= 2
    assert not sorter.stats.sort.prefix_exact
    _assert_both_oracles(head, spec, sorter.view())
    sorter.insert(tail)
    _assert_both_oracles(table, spec, sorter.view())
    assert sorter.stats.sort.full_key_compares > 0


class _SetAfter:
    """A cancel event that reads set from its ``polls + 1``-th poll on."""

    def __init__(self, polls: int) -> None:
        self.polls = polls

    def is_set(self) -> bool:
        self.polls -= 1
        return self.polls < 0


def test_cancellation_reads_the_current_config():
    # A service swaps ``sorter.config`` per call to carry that call's
    # cancel event.  The sorter's own entry check takes the first poll;
    # the second comes from the run generator (insert) or the merger's
    # round hook (view), which must see the swapped config too.
    table = _ints(40)
    sorter = IncrementalSorter(table.schema, "a", compact_threshold=3)
    quiet = sorter.config
    sorter.insert(table.slice(0, 10))
    sorter.insert(table.slice(10, 20))
    for call in (lambda: sorter.insert(table.slice(20, 30)), sorter.view):
        sorter.config = dataclasses.replace(quiet, cancel_event=_SetAfter(1))
        with pytest.raises(SortCancelledError):
            call()
        assert sorter.num_rows == 20 and sorter.pending_runs == 2
    sorter.config = quiet
    sorter.insert(table.slice(20, 40))
    assert_byte_identical(oracle(table, "a, p"), sorter.view())


# --------------------------------------------------------------------- #
# Service integration: appends and snapshots as governed tickets
# --------------------------------------------------------------------- #


def _service(db: Database) -> SortService:
    return SortService(
        db, memory_budget=8 << 20, workers=1, cache_capacity=0
    )


def test_service_maintained_view_round_trip():
    table = _ints(36)
    db = Database()
    db.register("t", table)
    with _service(db) as service:
        service.maintain_view("v", "t", "a, p", compact_threshold=3)
        for start in range(0, 36, 9):
            delta = table.slice(start, start + 9)
            # result() is the write barrier that pins arrival order.
            assert service.append_delta("v", delta).result(10.0) is delta
        snapshot = service.view_snapshot("v").result(10.0)
        assert_byte_identical(oracle(table, "a, p"), snapshot)
        stats = service.view_stats("v")
        assert stats.deltas_inserted == 4
        assert stats.rows_inserted == 36
        assert service.stats.view_deltas == 4
        assert service.stats.view_snapshots == 1


def test_service_duplicate_and_missing_views_rejected():
    db = Database()
    db.register("t", _ints(4))
    with _service(db) as service:
        service.maintain_view("v", "t", "a")
        with pytest.raises(ServiceError, match="already maintained"):
            service.maintain_view("v", "t", "a")
        with pytest.raises(ServiceError, match="no maintained view"):
            service.view_snapshot("ghost")
        with pytest.raises(ServiceError, match="no maintained view"):
            service.append_delta("ghost", _ints(1))
