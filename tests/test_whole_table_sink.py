"""Pipeline breakers read a resident input whole; run cuts do not move.

A sort over a scan sinks the registered table as one chunk, and the
sorted table is the query's result: nothing slices the input into
vectors and nothing concatenates them back (call counts pinned here).
The spilling sort cuts that one chunk into zero-copy runs at the rows
where its 1,024-row vectors would have cut, so a table sunk whole and
the same table sunk vector by vector write the same spill files, byte
for byte.  A filter over a scan hands its consumer one chunk too: the
scan's vectors and a selection of the rows that pass.  The sort cuts
that selection as it cuts a table and gathers each run once, so a
filtered sort cuts the runs, and writes the spill files, of the
pre-filtered table.
"""

from __future__ import annotations

import collections
import errno
import threading
import warnings

import numpy as np
import pytest

from test_external_kway import assert_byte_identical
from test_one_run import comparable
from test_oracle import oracle_sort
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
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS


def spec_of(text: str) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in text.split(",")])


class RecordingIO(SpillIO):
    """The real backend, keeping the bytes of every file it writes.

    ``on_write`` runs after each file is written (a cancellation between
    run cuts)."""

    def __init__(self, on_write=None) -> None:
        super().__init__()
        self.files: list[bytes] = []
        self.on_write = on_write

    def write_file(self, path, sections):
        super().write_file(path, sections)
        self.files.append(b"".join(sections))
        if self.on_write is not None:
            self.on_write(len(self.files))


class FullAfterFirstFile(RecordingIO):
    """Every write after the first fails with ``ENOSPC``: the sort keeps
    later runs resident and, from the third on, cuts them at half its
    threshold."""

    def write_file(self, path, sections):
        if self.files:
            raise OSError(errno.ENOSPC, "No space left on device", path)
        super().write_file(path, sections)


GRANT_ROWS = 3000


def grant_from_the_first_row(config_threshold: int):
    """A grant of 3,000 rows (64 bytes a row), held for the whole sort."""
    grant = MemoryGovernor(GRANT_ROWS * 64).acquire("sort")
    assert grant.effective_run_threshold(config_threshold) == min(
        GRANT_ROWS, config_threshold
    )
    return grant


CASES = {
    # Every column an integer sort key: the files hold keys only.
    "key_carried": ("uniform", "a, p"),
    # The VARCHAR column rides as payload rows and a heap.
    "varchar_payload": ("long_string", "p"),
}


def spill_sort(table, spec, tmp_path, threshold, feed, live):
    """Sort through ``ExternalSortOperator``; ``feed`` is ``"whole"`` or
    ``"vectors"``, ``live`` what moves the threshold (``"fixed"``,
    ``"granted"`` or ``"degraded"``).  Returns ``(result, stats, file
    bytes)``."""
    directory = tmp_path / feed
    directory.mkdir()
    grant = grant_from_the_first_row(threshold) if live == "granted" else None
    io = FullAfterFirstFile() if live == "degraded" else RecordingIO()
    config = SortConfig(run_threshold=threshold, memory_grant=grant)
    with ExternalSortOperator(
        table.schema, spec, config, str(directory), io=io
    ) as operator:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "external sort: no spill target")
            if feed == "whole":
                operator.sink(DataChunk.from_table(table))
            else:
                for part in chunk_table(table, 1024):
                    operator.sink(part)
        result = operator.finalize()
    assert list(directory.iterdir()) == []
    return result, operator.stats, io.files


class TestRunCutsDoNotMove:
    @pytest.mark.parametrize("live", ["fixed", "granted", "degraded"])
    @pytest.mark.parametrize("threshold", [2000, 16_384])
    @pytest.mark.parametrize("case", CASES)
    def test_whole_table_cuts_where_vectors_cut(
        self, tmp_path, case, threshold, live
    ):
        name, order_by = CASES[case]
        table, spec = SCENARIOS[name].table(40_000, seed=17), spec_of(order_by)
        whole, whole_stats, whole_files = spill_sort(
            table, spec, tmp_path, threshold, "whole", live
        )
        vectors, vector_stats, vector_files = spill_sort(
            table, spec, tmp_path, threshold, "vectors", live
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
        # threshold: the configured one, capped at 3,000 rows by a grant,
        # or halved from the third run on, once the second run's write
        # found the disk full.
        def live_threshold(run: int) -> int:
            if live == "granted":
                return min(threshold, GRANT_ROWS)
            if live == "degraded" and run >= 2:
                return threshold // 2
            return threshold

        left, cuts = table.num_rows, []
        while left >= live_threshold(len(cuts)):
            cuts.append(-(-live_threshold(len(cuts)) // 1024) * 1024)
            left -= cuts[-1]
        assert whole_stats.run_lengths == cuts + [left]
        forced = live == "granted" and threshold > GRANT_ROWS
        assert whole_stats.governor_forced_spills == (
            len(whole_files) if forced else 0
        )
        assert len(whole_files) == (
            1 if live == "degraded" else whole_stats.runs_generated - 1
        )
        # Every cut run that found no disk stayed resident; the tail run
        # is resident from the start.
        assert whole_stats.memory_run_fallbacks == (
            whole_stats.runs_generated - 1 - len(whole_files)
        )
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
    monkeypatch.setattr(
        chunk, "chunk_table", counting("chunk_table", chunk_table)
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

    def test_filtered_sort_sinks_one_selection(self, calls):
        counter, sunk = calls
        table = SCENARIOS["uniform"].table(50_000, seed=17)
        selected = table.take(np.flatnonzero(table.column("a").data > 0))
        counter.clear()
        db = Database()
        db.register("t", table)
        result = db.execute("SELECT * FROM t WHERE a > 0 ORDER BY a, p")
        assert sunk == [selected.num_rows]
        # The selection's one gather and the sort's.
        assert dict(counter) == {"take": 2}
        assert result.equals(sort_table(selected, spec_of("a, p")))

    def test_group_by_over_a_filter_gathers_once(self, calls):
        counter, sunk = calls
        table = SCENARIOS["dup_heavy"].table(20_000, seed=5)
        selected = int((table.column("p").data > 0).sum())
        db = Database()
        db.register("t", table)
        result = db.execute("SELECT a, count(*) FROM t WHERE p > 0 GROUP BY a")
        assert sum(result.column("count_star").to_pylist()) == selected
        assert sunk == [selected]
        assert "concat" not in counter and "chunk_table" not in counter

    def test_merge_join_over_a_filter_gathers_once(self, calls):
        counter, sunk = calls
        left = SCENARIOS["dup_heavy"].table(2000, seed=5)
        selected = int((left.column("p").data > 0).sum())
        db = Database()
        db.register("l", left)
        db.register("r", SCENARIOS["dup_heavy"].table(300, seed=6))
        result = db.execute(
            "SELECT * FROM (SELECT * FROM l WHERE p > 0) f JOIN r ON a = a"
        )
        assert result.num_rows > 0
        assert sorted(sunk) == [300, selected]
        assert "concat" not in counter and "chunk_table" not in counter

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


# ---------------------------------------------------------------------- #
# A filter over a scan: one selection, the pre-filtered table's runs
# ---------------------------------------------------------------------- #

FILTERED = {
    # Every column an integer sort key: the files hold keys only.
    "key_carried": ("uniform", "a > 0", "a, p"),
    # NULLs fail the predicate; the VARCHAR column rides as payload.
    "varchar_payload": ("mixed_null", "f > 0", "a NULLS FIRST, f DESC"),
}


RUN_SHAPE = (
    "rows_sorted",
    "runs_generated",
    "run_lengths",
    "governor_forced_spills",
    "key_carried_runs",
    "key_width_used",
    "key_layout_rebases",
    "merge_passes",
)
"""The ``SortStats`` fields that describe the runs (the merge's read
counters depend on the prefetch pool, which starts on read timings)."""


def run_shape(stats) -> dict:
    return {name: getattr(stats, name) for name in RUN_SHAPE}


@pytest.fixture
def spills(monkeypatch):
    """The bytes of every spill file written, and the rows of every
    gather from the registered table's column arrays.

    ``state["source"]`` is the table whose gathers are recorded."""
    state = {"files": [], "gathers": [], "source": None}
    write_file, take = SpillIO.write_file, ColumnVector.take

    def recording_write(self, path, sections):
        write_file(self, path, sections)
        state["files"].append(b"".join(sections))

    def recording_take(self, indices):
        source = state["source"]
        if source is not None and any(
            self.data is column.data for column in source.columns
        ):
            state["gathers"].append(len(indices))
        return take(self, indices)

    monkeypatch.setattr(SpillIO, "write_file", recording_write)
    monkeypatch.setattr(ColumnVector, "take", recording_take)
    return state


def database_sort(state, table, sql, threshold, granted):
    """Run ``sql`` over ``table`` registered as ``t``; ``threshold`` None
    is the resident sort.  Returns ``(result, stats, file bytes)``."""
    state["files"] = []
    if threshold is None:
        config = SortConfig()
    else:
        grant = grant_from_the_first_row(threshold) if granted else None
        config = SortConfig(
            external=True, run_threshold=threshold, memory_grant=grant
        )
    db = Database(config)
    db.register("t", table)
    result, (stats,) = db.execute_detailed(sql)
    return result, stats, state["files"]


class TestFilteredSortIsThePrefilteredSort:
    @pytest.mark.parametrize(
        "threshold, granted",
        [(None, False), (2000, False), (16_384, False), (16_384, True)],
        ids=["resident", "spill-2000", "spill-16384", "granted"],
    )
    @pytest.mark.parametrize("case", FILTERED)
    def test_same_runs_spills_and_result(
        self, spills, case, threshold, granted
    ):
        name, where, order_by = FILTERED[case]
        table = SCENARIOS[name].table(40_000, seed=17)
        db = Database()
        db.register("t", table)
        prefiltered = db.execute(f"SELECT * FROM t WHERE {where}")
        sql = "SELECT * FROM t {}ORDER BY " + order_by
        expected, expected_stats, expected_files = database_sort(
            spills, prefiltered, sql.format(""), threshold, granted
        )
        spills["source"] = table
        result, stats, files = database_sort(
            spills, table, sql.format(f"WHERE {where} "), threshold, granted
        )
        spec = spec_of(order_by)
        assert_byte_identical(expected, result)
        assert_byte_identical(oracle_sort(prefiltered, spec), result)
        assert run_shape(stats) == run_shape(expected_stats)
        assert files == expected_files
        assert (len(files) > 0) == (threshold is not None)
        assert (stats.governor_forced_spills > 0) == granted
        assert (stats.key_carried_runs > 0) == (
            case == "key_carried" and threshold is not None
        )
        # Each run is gathered once from the registered table: no gather
        # is larger than one run plus one vector.
        gathers = spills["gathers"]
        assert len(gathers) == stats.runs_generated * len(table.schema)
        if threshold is None:
            assert max(gathers) == prefiltered.num_rows
        else:
            assert max(gathers) <= threshold + 1024

    @pytest.mark.parametrize("case", FILTERED)
    def test_topn_over_a_filter_is_topn_over_its_rows(self, case):
        name, where, order_by = FILTERED[case]
        table = SCENARIOS[name].table(40_000, seed=17)
        db = Database()
        db.register("t", table)
        db.register("f", db.execute(f"SELECT * FROM t WHERE {where}"))
        tail = f"ORDER BY {order_by}, p LIMIT 100 OFFSET 7"
        expected, (expected_stats,) = db.execute_detailed(
            f"SELECT * FROM f {tail}"
        )
        result, (stats,) = db.execute_detailed(
            f"SELECT * FROM t WHERE {where} {tail}"
        )
        assert_byte_identical(expected, result)
        assert comparable(stats) == comparable(expected_stats)


class TestStreamingConsumersOfAFilter:
    def test_limit_over_a_filter_gathers_5_rows(self, monkeypatch):
        # One mask over the whole scan; LIMIT cuts the selection, and the
        # result is one gather of exactly the rows it keeps.
        masked: list[int] = []
        gathered: list[int] = []
        evaluate_mask, take = operators.evaluate_mask, Table.take

        def recording(chunk, condition):
            masked.append(len(chunk))
            return evaluate_mask(chunk, condition)

        def recording_take(self, indices):
            gathered.append(len(indices))
            return take(self, indices)

        monkeypatch.setattr(operators, "evaluate_mask", recording)
        monkeypatch.setattr(Table, "take", recording_take)
        table = SCENARIOS["uniform"].table(50_000, seed=17)
        db = Database()
        db.register("t", table)
        result = db.execute("SELECT * FROM t WHERE a > 0 LIMIT 5")
        assert masked == [50_000]
        assert gathered == [5]
        passing = np.flatnonzero(table.column("a").data > 0)
        assert result.equals(take(table, passing[:5]))

    def test_count_of_a_filter_gathers_nothing(self, monkeypatch):
        counter = collections.Counter()
        take = ColumnVector.take

        def counting_take(self, indices):
            counter["take"] += 1
            return take(self, indices)

        def counting_chunk_table(*args, **kwargs):
            counter["chunk_table"] += 1
            return chunk_table(*args, **kwargs)

        monkeypatch.setattr(ColumnVector, "take", counting_take)
        monkeypatch.setattr(chunk, "chunk_table", counting_chunk_table)
        table = SCENARIOS["uniform"].table(50_000, seed=17)
        db = Database()
        db.register("t", table)
        result = db.execute("SELECT count(*) FROM t WHERE a > 0")
        assert result.column("count_star").to_pylist() == [
            int((table.column("a").data > 0).sum())
        ]
        assert counter == {}
