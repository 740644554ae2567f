"""Fault tolerance of the external sort: integrity, injection, recovery.

Every failure the spill path can hit is driven through the deterministic
injection harness (:mod:`repro.sort.faults`) -- no monkeypatching of
``os`` internals.  The acceptance bar: for any injected single fault the
sort either completes with byte-identical output to the fault-free run
(after retry / failover / memory fallback) or raises a typed
:class:`SpillError` subclass naming the offending run file -- never a
bare numpy/OS error -- and leaves zero temp files behind either way.
"""

from __future__ import annotations

import dataclasses
import os
import threading

import numpy as np
import pytest

from test_external_kway import assert_byte_identical, mixed_table
from repro.engine import Database
from repro.errors import (
    SortCancelledError,
    SortError,
    SpillCorruptionError,
    SpillError,
)
from repro.sort.external import ExternalSortOperator, InMemoryRun
from repro.sort.faults import FaultInjector, InjectedFault, SpillIO
from repro.sort.operator import SortConfig, sort_table
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec

SPEC = "a, s DESC, f"


def fast_config(**overrides):
    defaults = dict(run_threshold=500)
    defaults.update(overrides)
    return SortConfig(**defaults)


def build_operator(
    table, tmp_path, io=None, config=None, merge_block_rows=4096,
    **config_overrides,
):
    return ExternalSortOperator(
        table.schema,
        SortSpec.of(*[part.strip() for part in SPEC.split(",")]),
        config or fast_config(**config_overrides),
        spill_directory=str(tmp_path),
        merge_block_rows=merge_block_rows,
        io=io,
    )


def run_sort(operator, table, chunk_rows=256):
    with operator:
        for chunk in chunk_table(table, chunk_rows):
            operator.sink(chunk)
        return operator.finalize()


def expected_result(table):
    return sort_table(table, SPEC, SortConfig())


def open_extent(run):
    """The sort's spill file, positioned at ``run``'s extent."""
    file, offset = run.io.locate(run.path)
    fh = open(file, "r+b")
    fh.seek(offset)
    return fh


def assert_no_spill_files(*directories):
    for directory in directories:
        assert os.path.isdir(directory)
        assert os.listdir(directory) == []


class TestSpillIntegrity:
    def test_clean_run_verifies_checksums(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        operator = build_operator(table, tmp_path)
        result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        # One CRC per key block and one per payload, for every spilled run.
        assert operator.stats.checksum_verifications >= 2 * (
            operator.stats.runs_generated - 1
        )
        assert operator.stats.checksum_failures == 0
        assert_no_spill_files(tmp_path)

    def test_silently_truncated_spill_detected(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        injector = FaultInjector(
            [InjectedFault("truncate", at=1)], seed=7
        )
        operator = build_operator(table, tmp_path, io=injector)
        with pytest.raises(SpillCorruptionError) as info:
            run_sort(operator, table)
        assert info.value.path is not None
        assert str(tmp_path) in info.value.path
        assert_no_spill_files(tmp_path)

    def test_bit_flipped_read_detected(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        # Three runs: three payload reads, then one key block each; the
        # flip lands in the second key block.
        injector = FaultInjector(
            [InjectedFault("bitflip", at=4)], seed=3
        )
        operator = build_operator(table, tmp_path, io=injector)
        with pytest.raises(SpillCorruptionError, match="keys section") as info:
            run_sort(operator, table)
        assert injector.stats.fired["bitflip"] == 1
        assert info.value.path is not None
        assert operator.stats.checksum_failures <= 1
        assert_no_spill_files(tmp_path)

    def test_garbage_extent_start_never_reaches_numpy(self, rng, tmp_path):
        """Garbage over an extent's first 64 bytes fails typed, naming
        the run, not as a numpy error."""
        table = mixed_table(rng, 1200)
        operator = build_operator(table, tmp_path)
        with operator:
            for chunk in chunk_table(table, 256):
                operator.sink(chunk)
            victim = operator._runs[1]
            with open_extent(victim) as fh:
                fh.write(bytes(range(64)))
            with pytest.raises(SpillCorruptionError) as info:
                operator.finalize()
        assert info.value.path == victim.path
        assert_no_spill_files(tmp_path)


class TestRetryFailoverFallback:
    def test_transient_enospc_retried(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        injector = FaultInjector(
            [InjectedFault("enospc", at=1, times=2)]
        )
        operator = build_operator(table, tmp_path, io=injector)
        result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        assert operator.stats.spill_retries >= 2
        assert operator.stats.spill_failovers == 0
        assert operator.stats.memory_run_fallbacks == 0
        assert_no_spill_files(tmp_path)

    def test_short_write_retried(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        injector = FaultInjector(
            [InjectedFault("short_write", at=0, times=1)]
        )
        operator = build_operator(table, tmp_path, io=injector)
        result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        assert operator.stats.spill_retries >= 1
        assert_no_spill_files(tmp_path)

    def test_persistent_enospc_fails_over_to_secondary(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        primary = tmp_path / "primary"
        secondary = tmp_path / "secondary"
        primary.mkdir()
        injector = FaultInjector(
            [
                InjectedFault(
                    "enospc", times=None, path_substring=str(primary)
                )
            ]
        )
        operator = build_operator(
            table,
            primary,
            io=injector,
            config=fast_config(spill_directories=(str(secondary),)),
        )
        result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        # Every spilled run failed over; the tail run is resident from
        # the start, which is neither a failover nor a fallback.
        assert operator.stats.spill_failovers == (
            operator.stats.runs_generated - 1
        )
        assert operator.stats.memory_run_fallbacks == 0
        assert_no_spill_files(primary, secondary)

    def test_no_writable_target_degrades_to_memory(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        injector = FaultInjector([InjectedFault("enospc", times=None)])
        operator = build_operator(table, tmp_path, io=injector)
        with pytest.warns(RuntimeWarning, match="degrading"):
            result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        # Every cut run fell back; the tail run is resident from the
        # start, which is neither a failover nor a fallback.
        assert operator.stats.memory_run_fallbacks == (
            operator.stats.runs_generated - 1
        )
        assert operator.stats.memory_run_fallbacks > 0
        # Disk was only attempted for the first run (one write and its
        # two retries); later runs skip it.
        assert injector.stats.writes <= 3
        assert all(isinstance(r, InMemoryRun) for r in operator._runs)
        assert_no_spill_files(tmp_path)

    def test_runs_kept_in_memory_are_not_spilled_runs(self, rng, tmp_path):
        table = mixed_table(rng, 20_000)
        injector = FaultInjector([InjectedFault("enospc", times=None)])
        operator = build_operator(
            table, tmp_path, io=injector, run_threshold=2048
        )
        with pytest.warns(RuntimeWarning, match="degrading"):
            with operator:
                for chunk in chunk_table(table, 256):
                    operator.sink(chunk)
                cut = operator.stats.runs_generated
                assert cut > 1
                assert operator.spilled_runs == operator.spilled_bytes == 0
                assert operator.stats.memory_run_fallbacks == cut
                result = operator.finalize()
        assert_byte_identical(result, expected_result(table))
        assert_no_spill_files(tmp_path)

    def test_degraded_mode_halves_run_threshold(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        injector = FaultInjector([InjectedFault("enospc", times=None)])
        operator = build_operator(
            table, tmp_path, io=injector, run_threshold=1000
        )
        with pytest.warns(RuntimeWarning):
            with operator:
                for chunk in chunk_table(table, 250):
                    operator.sink(chunk)
                # After degradation the threshold halves: 2000 rows cut
                # into 1000-row first run + 500-row reduced runs.
                assert operator._run_threshold == 500
                assert operator.stats.runs_generated >= 3
                operator.finalize()

    def test_uncreatable_failover_directory_skipped(self, rng, tmp_path):
        table = mixed_table(rng, 1200)
        primary = tmp_path / "primary"
        primary.mkdir()
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        injector = FaultInjector(
            [InjectedFault("enospc", times=None, path_substring=str(primary))]
        )
        operator = build_operator(
            table,
            primary,
            io=injector,
            config=fast_config(spill_directories=(str(blocker / "sub"),)),
        )
        # The only failover target cannot be created (its parent is a
        # file); it must be skipped, landing on the memory fallback
        # instead of crashing with NotADirectoryError.
        with pytest.warns(RuntimeWarning, match="degrading"):
            result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        assert operator.stats.memory_run_fallbacks > 0
        assert_no_spill_files(primary)


class TestLifecycleAndCleanup:
    def test_context_manager_cleans_up_when_sink_raises(self, rng):
        table = mixed_table(rng, 2000)
        event = threading.Event()
        operator = ExternalSortOperator(
            table.schema, SortSpec.of("a"), fast_config(cancel_event=event)
        )
        own_dir = operator._dir
        with pytest.raises(SortCancelledError):
            with operator:
                for chunk in chunk_table(table, 256):
                    operator.sink(chunk)
                    if operator.spilled_runs:
                        event.set()  # the next sink raises
                operator.finalize()
        # The operator-owned mkdtemp directory is gone, not leaked.
        assert not os.path.exists(own_dir)
        assert operator._closed

    def test_own_directory_removed_without_finalize(self, rng):
        table = mixed_table(rng, 300)
        operator = ExternalSortOperator(
            table.schema, SortSpec.of("a"), fast_config()
        )
        own_dir = operator._dir
        with operator:
            for chunk in chunk_table(table, 100):
                operator.sink(chunk)
            # finalize never called: __exit__ must still clean up
        assert not os.path.exists(own_dir)

    def test_close_is_idempotent_and_blocks_reuse(self, rng, tmp_path):
        table = mixed_table(rng, 300)
        operator = build_operator(table, tmp_path)
        operator.close()
        operator.close()
        with pytest.raises(SortError):
            operator.sink(next(chunk_table(table, 100)))
        with pytest.raises(SortError):
            operator.finalize()

    def test_cancel_before_finalize_cleans_up(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        event = threading.Event()
        operator = build_operator(table, tmp_path, cancel_event=event)
        for chunk in chunk_table(table, 256):
            operator.sink(chunk)
        assert operator.spilled_runs > 0
        event.set()
        with pytest.raises(SortCancelledError):
            operator.finalize()
        assert_no_spill_files(tmp_path)

    def test_cancel_mid_merge(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        event = threading.Event()
        state = {"merge_reads": 0}

        def on_op(op, path, index):
            # Only the merge reads spilled runs.
            if op != "read":
                return
            state["merge_reads"] += 1
            if state["merge_reads"] == 4:
                event.set()

        injector = FaultInjector(on_op=on_op)
        operator = build_operator(
            table, tmp_path, io=injector, cancel_event=event
        )
        with pytest.raises(SortCancelledError):
            run_sort(operator, table)
        assert state["merge_reads"] >= 4
        assert_no_spill_files(tmp_path)

    def test_cancel_at_every_op_index(self, rng, tmp_path):
        """Cancel fired before *every* spill I/O op never leaks a file.

        The injection hook sets the sort's cancel event at one global op
        index per trial, sweeping every index a fault-free run performs:
        writes (mid run generation), reads (mid merge, including on
        prefetch pool threads) and removes (mid cleanup).  Whatever the
        index, the sort either raises :class:`SortCancelledError` or --
        when the cancel lands after the last checkpoint -- completes
        byte-identical; either way zero temp files and zero prefetch
        threads survive.
        """
        table = mixed_table(rng, 1200)
        # Four spilled runs (a run a 256-row chunk) and a resident tail.
        config = fast_config(run_threshold=256, prefetch_blocks=2)

        # Fault-free pass: learn the op schedule and the expected bytes.
        ops = []
        baseline_io = FaultInjector(
            on_op=lambda op, path, index: ops.append(op)
        )
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        operator = build_operator(
            table, baseline_dir, io=baseline_io, config=config
        )
        expected = run_sort(operator, table)
        assert len(ops) >= 10

        for cancel_at in range(len(ops)):
            event = threading.Event()
            state = {"count": 0}

            def on_op(op, path, index):
                state["count"] += 1
                if state["count"] == cancel_at + 1:
                    event.set()

            injector = FaultInjector(on_op=on_op)
            spill_dir = tmp_path / f"cancel-{cancel_at}"
            spill_dir.mkdir()
            operator = build_operator(
                table,
                spill_dir,
                io=injector,
                config=dataclasses.replace(config, cancel_event=event),
            )
            try:
                result = run_sort(operator, table)
            except SortCancelledError:
                pass
            else:
                assert_byte_identical(result, expected)
            leaked = [
                thread.name
                for thread in threading.enumerate()
                if thread.name.startswith("spill-prefetch")
            ]
            assert not leaked, (cancel_at, leaked)
            assert_no_spill_files(spill_dir), cancel_at

    def test_cleanup_errors_recorded_not_swallowed(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        injector = FaultInjector(
            [InjectedFault("cleanup_error", at=0, times=1)]
        )
        operator = build_operator(table, tmp_path, io=injector)
        with pytest.warns(RuntimeWarning, match="clean up"):
            result = run_sort(operator, table)
        assert_byte_identical(result, expected_result(table))
        assert len(operator.stats.cleanup_errors) == 1
        assert "-00000.bin" in operator.stats.cleanup_errors[0]
        # The one file whose removal failed is still there; the rest went.
        leftovers = os.listdir(tmp_path)
        assert len(leftovers) == 1

    def test_merge_failure_still_cleans_up(self, rng, tmp_path):
        """finalize() cleanup runs even when the merge itself raises."""
        table = mixed_table(rng, 2000)
        # Three payload reads, then the first key block comes up short.
        injector = FaultInjector([InjectedFault("short_read", at=3)])
        operator = build_operator(table, tmp_path, io=injector)
        with pytest.raises(SpillError, match="truncated keys section"):
            run_sort(operator, table)
        assert injector.stats.fired["short_read"] == 1
        assert_no_spill_files(tmp_path)


class TestRandomizedSingleFault:
    """The acceptance criterion, executed literally.

    For every fault kind at every plausible injection point: either the
    sort completes byte-identical to the fault-free run, or it raises a
    typed :class:`SpillError` subclass carrying the run path -- and in
    both cases no temp files survive.
    """

    KINDS = ("enospc", "short_write", "truncate", "bitflip", "short_read")

    def test_any_single_fault_recovers_or_raises_typed(self, rng, tmp_path):
        table = mixed_table(rng, 1500)
        config = fast_config(run_threshold=400)

        # Fault-free pass: learn the op counts and the expected bytes.
        baseline_io = FaultInjector()
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        operator = build_operator(
            table, baseline_dir, io=baseline_io, config=config
        )
        expected = run_sort(operator, table)
        op_counts = {
            "write": baseline_io.stats.writes,
            "read": baseline_io.stats.reads,
        }
        assert op_counts["write"] >= 3 and op_counts["read"] >= 6

        draw = np.random.default_rng(20260807)
        for trial in range(24):
            kind = self.KINDS[int(draw.integers(len(self.KINDS)))]
            op = "write" if kind in ("enospc", "short_write", "truncate") else "read"
            at = int(draw.integers(op_counts[op]))
            injector = FaultInjector(
                [InjectedFault(kind, at=at)], seed=trial
            )
            spill_dir = tmp_path / f"trial-{trial}"
            spill_dir.mkdir()
            operator = build_operator(
                table, spill_dir, io=injector, config=config
            )
            try:
                result = run_sort(operator, table)
            except SpillError as error:
                assert error.path is not None, (kind, at)
            else:
                assert_byte_identical(result, expected)
            assert injector.stats.fired.get(kind) == 1, (kind, at)
            assert_no_spill_files(spill_dir)


class TestRandomizedConcurrentFaults:
    """Faults firing inside prefetch worker threads.

    With read-ahead enabled, spill reads (and their CRC verification)
    happen on ``spill-prefetch`` pool threads; an injected fault there
    must surface exactly like a synchronous one -- byte-identical
    recovery or a typed :class:`SpillError` raised on the consumer
    thread -- and must never leak a thread or a temp file, whichever
    thread the fault fired on.
    """

    KINDS = ("short_read", "bitflip", "slow_io")
    # Several key blocks a run, so reads prove slow with blocks left for
    # the workers to fetch (a run's payload is one read at pass open).
    BLOCK_ROWS = 64

    @staticmethod
    def _assert_no_prefetch_threads():
        import threading

        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("spill-prefetch")
        ]
        assert not leaked, leaked

    def test_prefetch_thread_faults(self, rng, tmp_path):
        table = mixed_table(rng, 1500)
        config = fast_config(run_threshold=400, prefetch_blocks=2)

        def slow_reads():
            # Latency on every read: the pool starts only once reads
            # prove slow, and page-cached tmp files never do.
            return InjectedFault("slow_io", at=0, times=None, delay_s=0.0005)

        # Fault-free pass: learn the read count and the expected bytes.
        baseline_io = FaultInjector([slow_reads()])
        baseline_dir = tmp_path / "baseline"
        baseline_dir.mkdir()
        operator = build_operator(
            table, baseline_dir, io=baseline_io, config=config,
            merge_block_rows=self.BLOCK_ROWS,
        )
        expected = run_sort(operator, table)
        reads = baseline_io.stats.reads
        assert reads >= 6
        # Blocks were fetched (and CRC-verified) on worker threads.
        assert operator.stats.phase_seconds["spill_io_overlap"] > 0
        self._assert_no_prefetch_threads()

        draw = np.random.default_rng(20260808)
        for trial in range(18):
            kind = self.KINDS[int(draw.integers(len(self.KINDS)))]
            at = int(draw.integers(reads))
            fault = InjectedFault(kind, at=at)
            if kind == "slow_io":
                fault.delay_s = 0.001
            injector = FaultInjector([slow_reads(), fault], seed=100 + trial)
            spill_dir = tmp_path / f"trial-{trial}"
            spill_dir.mkdir()
            operator = build_operator(
                table, spill_dir, io=injector, config=config,
                merge_block_rows=self.BLOCK_ROWS,
            )
            try:
                result = run_sort(operator, table)
            except SpillError as error:
                assert error.path is not None, (kind, at)
            else:
                assert_byte_identical(result, expected)
            assert injector.stats.fired.get(kind, 0) >= 1, (kind, at)
            self._assert_no_prefetch_threads()
            assert_no_spill_files(spill_dir)

    def test_corruption_under_slow_concurrent_reads(self, rng, tmp_path):
        # Latency on every read forces genuine thread overlap while a
        # bitflip corrupts one block read ahead by a worker; the typed
        # error must still surface on the consumer thread.
        table = mixed_table(rng, 1500)
        config = fast_config(run_threshold=400, prefetch_blocks=2)
        injector = FaultInjector(
            [
                InjectedFault("slow_io", at=0, times=None, delay_s=0.0005),
                InjectedFault("bitflip", at=10),
            ],
            seed=11,
        )
        operator = build_operator(
            table, tmp_path, io=injector, config=config,
            merge_block_rows=self.BLOCK_ROWS,
        )
        with pytest.raises(SpillCorruptionError) as info:
            run_sort(operator, table)
        assert info.value.path is not None
        self._assert_no_prefetch_threads()
        assert_no_spill_files(tmp_path)


class TestEngineWiring:
    def test_database_order_by_through_external_sort(self, rng):
        table = mixed_table(rng, 1500)
        external_db = Database(
            sort_config=fast_config(external=True, run_threshold=300)
        )
        in_memory_db = Database()
        external_db.register("t", table)
        in_memory_db.register("t", table)
        query = "SELECT a, s, f, seq FROM t ORDER BY a DESC, s"
        assert_byte_identical(
            external_db.execute(query), in_memory_db.execute(query)
        )

    def test_cli_external_sort_with_spill_dir(self, rng, tmp_path):
        from repro.cli import main
        from repro.table.io import read_csv, write_csv

        table = mixed_table(rng, 400).select(["a", "f", "seq"])
        source = tmp_path / "in.csv"
        target = tmp_path / "out.csv"
        write_csv(table, str(source))
        code = main(
            [
                "sort",
                str(source),
                "--by",
                "a DESC, seq",
                "--external",
                "--run-threshold",
                "100",
                "--spill-dir",
                str(tmp_path / "failover"),
                "-o",
                str(target),
            ]
        )
        assert code == 0
        result = read_csv(str(target))
        assert result.num_rows == table.num_rows
        expected = sort_table(table, "a DESC, seq", SortConfig())
        assert [
            result.column("seq").data[i] for i in range(result.num_rows)
        ] == [
            expected.column("seq").data[i] for i in range(expected.num_rows)
        ]


class TestSpillIOContract:
    def test_real_spill_io_round_trip(self, tmp_path):
        io = SpillIO()
        path = str(tmp_path / "x.bin")
        io.write_file(path, [b"abc", b"defg"])
        assert io.read(path, 0, 7) == b"abcdefg"
        assert io.read(path, 3, 4) == b"defg"
        assert io.file_size(path) == 7
        io.remove(path)
        assert not os.path.exists(path)

    def test_injected_fault_validation(self):
        with pytest.raises(ValueError):
            InjectedFault("meteor-strike")
        with pytest.raises(ValueError):
            InjectedFault("enospc", at=-1)
