"""Runs are a unit of spilling: the resident store cuts one and returns it.

``SortOperator`` buffers in ``sink`` and sorts everything once in
``finalize``; neither ``run_threshold`` nor a memory grant cuts a
resident run, and ``RunMerger.merge`` hands one resident run on the
final layout back without a k-way pass.  What needs pinning is the edge
of that shortcut: the truncated-VARCHAR repair that still takes the
round loop, the external sort's lone memory-fallback run, and
cancellation with all the work in ``finalize``.
``ExternalSortOperator`` extends that operator, so the other edge is
the threshold itself: below it the sort is the resident one (no file,
no directory, the same stats), at and above it every cut run is a file
and the tail stays resident.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading

import pytest

from conftest import stems_first
from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort, prefix_config
from repro.aggregate.groupby import Aggregate, group_by
from repro.errors import SortCancelledError
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import FaultInjector, InjectedFault
from repro.sort.operator import (
    SortConfig,
    SortOperator,
    SortStats,
    sort_table,
)
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 10_000
SEED = 17


@functools.lru_cache(maxsize=None)
def scenario_case(name: str):
    scenario = SCENARIOS[name]
    table = scenario.table(ROWS, seed=SEED)
    spec = SortSpec.of(*[p.strip() for p in scenario.order_by.split(",")])
    return table, spec, oracle_sort(table, spec)


def run_operator(operator, table, chunk_rows=1024):
    for chunk in chunk_table(table, chunk_rows):
        operator.sink(chunk)
    return operator.finalize()


class SqueezedGrant:
    """A memory grant shrunk as far as it goes: one row per run."""

    def effective_run_threshold(self, base_rows: int) -> int:
        return 1

    def record_spill(self, nbytes: int) -> None:
        raise AssertionError("a resident store spilled")


class TestNothingCutsAResidentRun:
    @pytest.mark.parametrize("forced_prefix", [True, False])
    @pytest.mark.parametrize(
        "grant", [None, SqueezedGrant()], ids=["free", "squeezed"]
    )
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_threshold_and_grant_are_inert(self, name, grant, forced_prefix):
        table, spec, expected = scenario_case(name)
        config = prefix_config(
            forced_prefix, run_threshold=1000, memory_grant=grant
        )
        operator = SortOperator(table.schema, spec, config)
        assert_byte_identical(expected, run_operator(operator, table))
        stats = operator.stats
        assert stats.runs_generated == 1
        assert stats.run_lengths == [ROWS]
        assert stats.governor_forced_spills == 0
        assert stats.key_layout_rebases == 0
        # The run is the result; only a truncating prefix takes a pass.
        passes = 0 if stats.prefix_exact else 1
        assert stats.merge_passes == stats.kernel_kway_merges == passes

    @pytest.mark.parametrize("name", ["long_string", "mixed_null"])
    def test_truncating_prefix_is_still_repaired(self, name):
        # Stems differing in their first byte: no prefix to skip, and the
        # 12 key bytes after it tie.
        table, spec, _ = scenario_case(name)
        table = stems_first(table)
        operator = SortOperator(table.schema, spec)
        assert_byte_identical(
            oracle_sort(table, spec), run_operator(operator, table)
        )
        stats = operator.stats
        assert not stats.prefix_exact
        assert stats.runs_generated == 1
        assert stats.kernel_kway_merges == 1
        assert stats.reencoded_rows > 0
        assert stats.full_key_compares > 0

    def test_row_payload_with_strings_and_nulls_decodes_unmerged(self):
        # Not key-carried: the result is the run's table taken by its
        # positions, NULL strings among the keys and the payload.
        table, spec, expected = scenario_case("tpcds_customer")
        operator = SortOperator(table.schema, spec)
        assert_byte_identical(expected, run_operator(operator, table))
        stats = operator.stats
        assert stats.prefix_exact
        assert stats.key_carried_runs == 0
        assert stats.kernel_kway_merges == 0
        assert None in table.column("c_last_name").to_pylist()

    def test_all_key_run_is_taken_not_decoded(self):
        # Every column is a key, yet a resident run is its table taken by
        # position: only a run spilled without payload is key-carried.
        table, spec, expected = scenario_case("uniform")
        operator = SortOperator(table.schema, spec)
        assert_byte_identical(expected, run_operator(operator, table))
        assert operator.stats.key_carried_runs == 0
        assert operator.stats.kernel_kway_merges == 0

    def test_cancel_after_last_sink_stops_finalize(self):
        table, spec, _ = scenario_case("uniform")
        event = threading.Event()
        operator = SortOperator(
            table.schema, spec, SortConfig(cancel_event=event)
        )
        for chunk in chunk_table(table, 1024):
            operator.sink(chunk)
        event.set()
        with pytest.raises(SortCancelledError):
            operator.finalize()
        assert operator.stats.runs_generated == 0


class TestExternalMemoryFallback:
    @staticmethod
    def unwritable(table, spec, tmp_path, **config):
        injector = FaultInjector([InjectedFault("enospc", times=None)])
        operator = ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(spill_retries=0, spill_retry_backoff_s=0.0, **config),
            spill_directory=str(tmp_path),
            io=injector,
        )
        return operator, injector

    def test_lone_fallback_run_is_the_result(self, tmp_path, recwarn):
        # Input below the threshold, spill target unwritable: no write
        # is attempted (so nothing degrades and nothing warns); the only
        # run is resident from the start and returns unmerged.
        table, spec, expected = scenario_case("tpcds_customer")
        operator, injector = self.unwritable(table, spec, tmp_path)
        with operator:
            result = run_operator(operator, table)
        assert_byte_identical(expected, result)
        assert not [w for w in recwarn if w.category is RuntimeWarning]
        assert injector.stats.writes == 0
        stats = operator.stats
        assert stats.runs_generated == 1
        assert stats.memory_run_fallbacks == 0
        assert stats.merge_passes == stats.kernel_kway_merges == 0

    def test_lone_fallback_run_at_the_threshold_still_warns(self, tmp_path):
        # Input that reaches the threshold on its last chunk: the cut
        # run's write fails, it falls back to memory, and being the only
        # run it still returns through the shortcut.
        table, spec, expected = scenario_case("tpcds_customer")
        operator, _ = self.unwritable(
            table, spec, tmp_path, run_threshold=ROWS
        )
        with operator, pytest.warns(RuntimeWarning, match="degrading"):
            result = run_operator(operator, table)
        assert_byte_identical(expected, result)
        stats = operator.stats
        assert stats.runs_generated == stats.memory_run_fallbacks == 1
        assert stats.merge_passes == stats.kernel_kway_merges == 0

THRESHOLD = 2048  # a multiple of vector_size, so cuts land exactly on it
BOUNDARY_ROWS = {
    "below": THRESHOLD - 1,
    "at": THRESHOLD,
    "above": 2 * THRESHOLD + 777,
}


@functools.lru_cache(maxsize=None)
def boundary_case(name: str, rows: int):
    table, spec, _ = scenario_case(name)
    table = table.slice(0, rows)
    return table, spec, oracle_sort(table, spec)


def comparable(stats: SortStats) -> dict:
    """Every counter of a ``SortStats``; wall-clock phases left out."""
    fields = dataclasses.asdict(stats)
    del fields["phase_seconds"]
    return fields


class RecordingGrant:
    """A memory grant that can shrink, and records what was spilled."""

    def __init__(self, rows: int | None = None) -> None:
        self.rows = rows
        self.spilled: list[int] = []

    def effective_run_threshold(self, base_rows: int) -> int:
        return base_rows if self.rows is None else self.rows

    def record_spill(self, nbytes: int) -> None:
        self.spilled.append(nbytes)


class TestThresholdBoundary:
    @pytest.mark.parametrize("forced_prefix", [True, False])
    @pytest.mark.parametrize("size", sorted(BOUNDARY_ROWS))
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_files_written_are_the_cut_runs(
        self, name, size, forced_prefix, tmp_path
    ):
        rows = BOUNDARY_ROWS[size]
        table, spec, expected = boundary_case(name, rows)
        config = prefix_config(
            forced_prefix, external=True, run_threshold=THRESHOLD
        )
        io = FaultInjector()  # no faults armed: it only counts
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path), io=io
        ) as operator:
            for chunk in chunk_table(table, config.vector_size):
                operator.sink(chunk)
                if rows < THRESHOLD:
                    assert os.listdir(tmp_path) == []
            result = operator.finalize()
        assert_byte_identical(expected, result)
        assert os.listdir(tmp_path) == []
        stats = operator.stats
        assert io.stats.writes == rows // THRESHOLD
        assert stats.runs_generated == -(-rows // THRESHOLD)
        if rows >= THRESHOLD:
            assert stats.rungen_path == "argsort"
            assert stats.checksum_verifications > 0
            return
        # Below the threshold the sort is the resident operator's.
        assert stats.checksum_verifications == 0
        assert stats.merge_passes == (0 if stats.prefix_exact else 1)
        resident = SortOperator(table.schema, spec, config)
        assert_byte_identical(expected, run_operator(resident, table))
        assert comparable(stats) == comparable(resident.stats)

    def test_no_directory_is_made_below_the_threshold(self, monkeypatch):
        table, spec, expected = boundary_case("uniform", THRESHOLD - 1)
        made: list[str] = []
        monkeypatch.setattr(
            "tempfile.mkdtemp", lambda **kwargs: made.append(kwargs) or "/x"
        )
        config = SortConfig(external=True, run_threshold=THRESHOLD)
        with ExternalSortOperator(table.schema, spec, config) as operator:
            assert_byte_identical(expected, run_operator(operator, table))
        assert made == []

    def test_shrinking_grant_still_cuts_a_run(self, tmp_path):
        # The input never reaches the configured threshold; the grant
        # shrinks mid-sink, the live threshold drops under what is
        # buffered, and the next sink cuts and spills.
        table, spec, expected = boundary_case("uniform", THRESHOLD - 1)
        grant = RecordingGrant()
        config = SortConfig(
            external=True, run_threshold=THRESHOLD, memory_grant=grant
        )
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as operator:
            chunks = list(chunk_table(table, 256))
            for chunk in chunks[:3]:
                operator.sink(chunk)
            assert os.listdir(tmp_path) == []
            grant.rows = 512
            for chunk in chunks[3:]:
                operator.sink(chunk)
            assert len(os.listdir(tmp_path)) == len(grant.spilled) > 0
            result = operator.finalize()
        assert_byte_identical(expected, result)
        stats = operator.stats
        assert stats.governor_forced_spills == len(grant.spilled)
        assert stats.runs_generated == len(grant.spilled) + 1  # + the tail

    def test_forced_replacement_selection_with_a_short_tail(self, tmp_path):
        table, spec, expected = boundary_case(
            "near_sorted", BOUNDARY_ROWS["above"]
        )
        config = SortConfig(
            external=True, run_threshold=THRESHOLD, replacement_selection=True
        )
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as operator:
            result = run_operator(operator, table)
        assert_byte_identical(expected, result)
        stats = operator.stats
        assert stats.rungen_path == "replacement_selection"
        # The selection drains into spilled run(s); the 777-row tail is
        # its own resident run, last.
        assert stats.run_lengths[-1] == 777
        assert sum(stats.run_lengths) == BOUNDARY_ROWS["above"]
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("size", ["below", "above"])
    def test_cancel_after_last_sink_stops_finalize(self, size, tmp_path):
        table, spec, _ = boundary_case("uniform", BOUNDARY_ROWS[size])
        event = threading.Event()
        config = SortConfig(
            external=True, run_threshold=THRESHOLD, cancel_event=event
        )
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, 1024):
                operator.sink(chunk)
            event.set()
            with pytest.raises(SortCancelledError):
                operator.finalize()
        assert operator.stats.runs_generated == BOUNDARY_ROWS[size] // THRESHOLD
        assert os.listdir(tmp_path) == []

    def test_sort_table_and_group_by_honour_the_flag(self):
        table, spec, expected = boundary_case("dup_heavy", BOUNDARY_ROWS["above"])
        grant = RecordingGrant()
        config = SortConfig(
            external=True, run_threshold=THRESHOLD, memory_grant=grant
        )
        assert_byte_identical(expected, sort_table(table, spec, config))
        assert len(grant.spilled) == 2
        keys = list(spec.column_names)
        counted = group_by(table, keys, [Aggregate("count")], config)
        assert len(grant.spilled) == 4
        resident = group_by(table, keys, [Aggregate("count")])
        assert_byte_identical(resident, counted)
        # Without the flag the same config never spills.
        quiet = dataclasses.replace(config, external=False)
        assert_byte_identical(expected, sort_table(table, spec, quiet))
        assert len(grant.spilled) == 4
