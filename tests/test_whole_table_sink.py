"""Pipeline breakers read a resident input whole; run cuts do not move.

A sort over a scan sinks the registered table as one chunk, and the
sorted table is the query's result: nothing slices the input into
vectors and nothing concatenates them back (call counts pinned here).
The spilling sort cuts that one chunk into zero-copy runs at the rows
where its 1,024-row vectors would have cut, so a table sunk whole and
the same table sunk vector by vector write the same spill files, byte
for byte.  A streaming child (a filter) still hands the sort vectors.
"""

from __future__ import annotations

import collections
import threading

import numpy as np
import pytest

from repro.engine import operators
from repro.engine.database import Database
from repro.engine.operators import ScanOperator, TopNExecOperator
from repro.errors import SortCancelledError
from repro.service.governor import MemoryGovernor
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import SpillIO
from repro.sort.operator import SortConfig, SortOperator, sort_table
from repro.sort.topn import TopNOperator
from repro.table import chunk
from repro.table.chunk import DataChunk, chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS


def spec_of(text: str) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in text.split(",")])


class RecordingIO(SpillIO):
    """The real backend, keeping the bytes of every file it writes.

    ``on_write`` runs after each file is written (a revocation or a
    cancellation between run cuts)."""

    def __init__(self, on_write=None) -> None:
        super().__init__()
        self.files: list[bytes] = []
        self.on_write = on_write

    def write_file(self, path, sections):
        super().write_file(path, sections)
        self.files.append(b"".join(sections))
        if self.on_write is not None:
            self.on_write(len(self.files))


def revoke_after_first_file(config_threshold: int):
    """A live grant of 6,000 rows that a second query halves while the
    first run is written; returns ``(grant, on_write, governor)``."""
    governor = MemoryGovernor(6000 * 64, min_grant_bytes=6000 * 16)
    grant = governor.acquire("sort")
    assert grant.effective_run_threshold(config_threshold) == min(
        6000, config_threshold
    )

    def on_write(files: int) -> None:
        if files == 1:
            governor.acquire("other")

    return grant, on_write, governor


CASES = {
    # Every column an integer sort key: the files hold keys only.
    "key_carried": ("uniform", "a, p"),
    # The VARCHAR column rides as payload rows and a heap.
    "varchar_payload": ("long_string", "p"),
}


def spill_sort(table, spec, tmp_path, threshold, feed, revoke):
    """Sort through ``ExternalSortOperator``; ``feed`` is ``"whole"`` or
    ``"vectors"``.  Returns ``(result, stats, file bytes)``."""
    directory = tmp_path / feed
    directory.mkdir()
    grant = on_write = None
    if revoke:
        grant, on_write, _ = revoke_after_first_file(threshold)
    io = RecordingIO(on_write)
    config = SortConfig(run_threshold=threshold, memory_grant=grant)
    with ExternalSortOperator(
        table.schema, spec, config, str(directory), io=io
    ) as operator:
        if feed == "whole":
            operator.sink(DataChunk.from_table(table))
        else:
            for part in chunk_table(table, 1024):
                operator.sink(part)
        result = operator.finalize()
    assert list(directory.iterdir()) == []
    return result, operator.stats, io.files


class TestRunCutsDoNotMove:
    @pytest.mark.parametrize("revoke", [False, True], ids=["fixed", "revoked"])
    @pytest.mark.parametrize("threshold", [2000, 16_384])
    @pytest.mark.parametrize("case", CASES)
    def test_whole_table_cuts_where_vectors_cut(
        self, tmp_path, case, threshold, revoke
    ):
        name, order_by = CASES[case]
        table, spec = SCENARIOS[name].table(40_000, seed=17), spec_of(order_by)
        whole, whole_stats, whole_files = spill_sort(
            table, spec, tmp_path, threshold, "whole", revoke
        )
        vectors, vector_stats, vector_files = spill_sort(
            table, spec, tmp_path, threshold, "vectors", revoke
        )
        assert whole.equals(vectors)
        assert whole.equals(sort_table(table, spec))
        assert whole_stats.run_lengths == vector_stats.run_lengths
        assert whole_stats.runs_generated == vector_stats.runs_generated
        assert (
            whole_stats.governor_forced_spills
            == vector_stats.governor_forced_spills
        )
        assert whole_files == vector_files
        # Cuts land on the first vector boundary at or past the live
        # threshold: 6,000 rows under the grant, 3,000 once it is halved.
        first, later = (6000, 3000) if revoke else (threshold, threshold)
        assert whole_stats.run_lengths[:2] == [
            -(-min(threshold, live) // 1024) * 1024 for live in (first, later)
        ]
        forced = revoke and threshold > 3000
        assert whole_stats.governor_forced_spills == (
            len(whole_files) if forced else 0
        )
        assert len(whole_files) == whole_stats.runs_generated - 1
        assert (whole_stats.key_carried_runs > 0) == (case == "key_carried")

    def test_set_cancel_event_refuses_a_whole_table(self, tmp_path):
        table = SCENARIOS["uniform"].table(10_000, seed=3)
        event = threading.Event()
        event.set()
        config = SortConfig(run_threshold=2000, cancel_event=event)
        with ExternalSortOperator(
            table.schema, spec_of("a, p"), config, str(tmp_path)
        ) as operator:
            with pytest.raises(SortCancelledError):
                operator.sink(DataChunk.from_table(table))
        assert list(tmp_path.iterdir()) == []

    def test_cancel_between_run_cuts_of_one_sink(self, tmp_path):
        # The event is set while the first run is written: the next cut of
        # the same sink call raises, and no file is left behind.
        table = SCENARIOS["uniform"].table(10_000, seed=3)
        event = threading.Event()
        io = RecordingIO(lambda files: event.set())
        config = SortConfig(run_threshold=2000, cancel_event=event)
        with ExternalSortOperator(
            table.schema, spec_of("a, p"), config, str(tmp_path), io=io
        ) as operator:
            with pytest.raises(SortCancelledError):
                operator.sink(DataChunk.from_table(table))
        assert len(io.files) == 1
        assert list(tmp_path.iterdir()) == []


@pytest.fixture
def calls(monkeypatch):
    """Calls of ``Table.concat``, ``Table.take`` and ``chunk_table``, and
    the length of every chunk a full sort sinks."""
    counter = collections.Counter()
    sunk: list[int] = []

    def counting(name, function):
        def wrapper(*args, **kwargs):
            counter[name] += 1
            return function(*args, **kwargs)

        return wrapper

    def sink(self, part):
        sunk.append(len(part))
        return original_sink(self, part)

    original_sink = SortOperator.sink
    monkeypatch.setattr(SortOperator, "sink", sink)
    monkeypatch.setattr(Table, "concat", counting("concat", Table.concat))
    monkeypatch.setattr(Table, "take", counting("take", Table.take))
    for module in (chunk, operators):
        monkeypatch.setattr(
            module, "chunk_table", counting("chunk_table", chunk_table)
        )
    return counter, sunk


class TestNoCopiesAroundTheSort:
    def test_sorted_scan_is_one_take(self, calls):
        counter, sunk = calls
        table = SCENARIOS["uniform"].table(50_000, seed=17)
        a, p = (table.column(name).data for name in ("a", "p"))
        expected = table.take(np.lexsort((p, a)))
        counter.clear()
        db = Database()
        db.register("t", table)
        result = db.execute("SELECT * FROM t ORDER BY a, p")
        assert dict(counter) == {"take": 1}
        assert sunk == [50_000]
        assert result.equals(expected)

    def test_spilling_sorted_scan_slices_its_runs(self, calls):
        counter, sunk = calls
        table = SCENARIOS["uniform"].table(50_000, seed=17)
        db = Database(SortConfig(external=True, run_threshold=16_384))
        db.register("t", table)
        result, (stats,) = db.execute_detailed("SELECT * FROM t ORDER BY a, p")
        # Three 16,384-row slices spill and the tail stays resident.
        assert stats.run_lengths == [16_384] * 3 + [848]
        assert sunk == [16_384] * 3 + [848]
        assert "concat" not in counter and "chunk_table" not in counter
        assert result.equals(sort_table(table, spec_of("a, p")))

    def test_filtered_sort_still_sinks_vectors(self, calls):
        counter, sunk = calls
        db = Database()
        db.register("t", SCENARIOS["uniform"].table(50_000, seed=17))
        result = db.execute("SELECT * FROM t WHERE a > 0 ORDER BY a, p")
        assert len(sunk) > 1 and max(sunk) <= 1024
        assert sum(sunk) == result.num_rows
        assert counter["chunk_table"] == 1  # the scan's

    def test_group_by_reads_its_scan_whole(self, calls):
        counter, sunk = calls
        db = Database()
        db.register("t", SCENARIOS["dup_heavy"].table(20_000, seed=5))
        result = db.execute("SELECT a, count(*) FROM t GROUP BY a")
        assert result.num_rows == 16
        assert sunk == [20_000]
        assert "concat" not in counter

    def test_merge_join_reads_both_scans_whole(self, calls):
        counter, sunk = calls
        db = Database()
        db.register("l", SCENARIOS["dup_heavy"].table(2000, seed=5))
        db.register("r", SCENARIOS["dup_heavy"].table(300, seed=6))
        result = db.execute("SELECT * FROM l JOIN r ON a = a")
        assert result.num_rows > 0
        assert sorted(sunk) == [300, 2000]
        assert "concat" not in counter

    def test_refined_sort_reads_its_scan_whole(self, calls):
        """A view declared ``a`` under ``ORDER BY a, p``: the provided
        prefix changes nothing, the sort is a full sort of the whole
        scanned table."""
        counter, sunk = calls
        table = SCENARIOS["dup_heavy"].table(20_000, seed=5)
        db = Database()
        db.register("t", sort_table(table, spec_of("a")))
        db.declare_ordering("t", "a")
        counter.clear()
        sunk.clear()
        result, (stats,) = db.execute_detailed("SELECT * FROM t ORDER BY a, p")
        assert stats.sorts_elided == stats.sorts_subsumed == 0
        assert stats.rows_sorted == 20_000
        assert sunk == [20_000]
        assert dict(counter) == {"take": 1}
        assert result.equals(sort_table(table, spec_of("a, p")))


class TestTopNBatches:
    def test_scan_sinks_batch_views_with_the_same_pruning(self, monkeypatch):
        table = SCENARIOS["uniform"].table(50_000, seed=17)
        spec = spec_of("a, p")
        sunk: list[int] = []
        original = TopNOperator.sink

        def sink(self, part):
            sunk.append(len(part))
            return original(self, part)

        monkeypatch.setattr(TopNOperator, "sink", sink)
        vectors = TopNOperator(table.schema, spec, 100, 7)
        for part in chunk_table(table, 1024):
            vectors.sink(part)
        expected = vectors.finalize()
        sunk.clear()
        operator = TopNExecOperator(ScanOperator(table), spec, 100, 7)
        result = operator.table()
        # A resident table is one batch: one sink, one absorb, and the
        # same rows as the operator fed one vector at a time.
        assert sunk == [50_000]
        assert result.equals(expected)
        assert result.equals(sort_table(table, spec).slice(7, 107))
