"""A spilled key is read once; what a round emits comes out of held blocks.

The merge hands the kernel key blocks it reads (CRC-checks, rebases)
once at full width and *holds* each while its frontier drains; the
kernel reports a round as one span per contributing run plus one
permutation, and full key rows are sliced out of the held blocks.  Two
things can go wrong and neither shows as an exception: a span cut from
the wrong block (a read-ahead worker is a block ahead of the frontier)
and a layout that should have been rebased and was not.  So every sort
here is differential -- against the tuple-key oracle
(``conftest.reference_sort``) and the scalar
``repro.scalar.reference.reference_sort`` -- and the I/O claims are
exact counts.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from conftest import reference_sort
from repro.errors import SpillCorruptionError
from repro.scalar.reference import reference_sort as scalar_reference_sort
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import (
    FaultInjector,
    InjectedFault,
    SlowStorageIO,
    SpillIO,
)
from repro.sort.incremental import IncrementalSorter
from repro.sort.operator import SortConfig
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

BLOCK_ROWS = 64
RUN_ROWS = 4 * BLOCK_ROWS  # >= 3 blocks per run: read-ahead can lead


class CountingIO(SpillIO):
    """The real backend, counting the bytes that cross it."""

    def __init__(self) -> None:
        super().__init__()
        self.read_bytes = self.written_bytes = 0
        self._lock = threading.Lock()

    def read(self, path, offset, nbytes):
        data = super().read(path, offset, nbytes)
        with self._lock:
            self.read_bytes += len(data)
        return data

    def write_file(self, path, sections):
        self.written_bytes += sum(map(len, sections))
        super().write_file(path, sections)


class RecordingIO(SlowStorageIO):
    """Storage of a fixed read latency (none by default) that records
    every read's thread, run and byte range, and the section lengths of
    every run written: ``layout[path] = (keys, payload)``."""

    def __init__(self, read_delay_s: float = 0.0) -> None:
        super().__init__(read_delay_s=read_delay_s)
        self.log: list[tuple[str, str, int, int]] = []
        self.layout: dict[str, tuple[int, int, int]] = {}
        self._log_lock = threading.Lock()

    def write_file(self, path, sections):
        keys, *payload = sections
        self.layout[path] = (len(keys), sum(map(len, payload)))
        super().write_file(path, sections)

    def read(self, path, offset, nbytes):
        with self._log_lock:
            name = threading.current_thread().name
            self.log.append((name, path, offset, nbytes))
        return super().read(path, offset, nbytes)


def int_table(rng, n):
    """Every column an integer sort key: runs spill key-carried."""
    return Table.from_pydict(
        {
            "a": [int(v) for v in rng.integers(-40, 40, n)],
            "b": [
                None if v % 11 == 0 else int(v)
                for v in rng.integers(-(1 << 40), 1 << 40, n)
            ],
        }
    )


def payload_table(rng, n):
    """Strings and a float ride as payload rows (and a heap)."""
    return Table.from_pydict(
        {
            "a": [int(v) for v in rng.integers(-40, 40, n)],
            "s": [
                None if v % 13 == 0 else f"s{v:03d}"
                for v in rng.integers(0, 500, n)
            ],
            "f": [float(v) for v in rng.integers(0, 9, n)],
        }
    )


CASES = {
    "key_carried": (int_table, "a DESC, b NULLS FIRST"),
    "payload": (payload_table, "a DESC, s"),
}


def spec_of(text):
    return SortSpec.of(*[part.strip() for part in text.split(",")])


def spill_sort(table, spec, directory, io=None, **config):
    config.setdefault("run_threshold", RUN_ROWS)
    operator = ExternalSortOperator(
        table.schema,
        spec,
        SortConfig(**config),
        str(directory),
        merge_block_rows=BLOCK_ROWS,
        io=io,
    )
    with operator:
        for chunk in chunk_table(table, BLOCK_ROWS):
            operator.sink(chunk)
        return operator.finalize(), operator.stats


def assert_matches_both_oracles(result, table, spec):
    assert result.equals(reference_sort(table, spec))
    assert result.equals(scalar_reference_sort(table, spec))


class TestReadOnce:
    def test_key_carried_spill_reads_and_verifies_each_page_once(
        self, tmp_path
    ):
        # The int_spill shape at a quarter of its size: the parent read
        # (and CRC-checked) every keys page twice, the second time in
        # ~250-row slices per run per round.
        table = SCENARIOS["uniform"].table(62_500, 17)
        spec = SortSpec.of("a", "p")
        io = CountingIO()
        operator = ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(run_threshold=12_288),  # three 4,096-row blocks a run
            str(tmp_path),
            io=io,
        )
        with operator:
            for chunk in chunk_table(table, 2048):
                operator.sink(chunk)
            spilled = operator.spilled_runs
            pages = sum(
                len(crcs) for run in operator._runs for crcs in run.extent.block_crcs
            )
            result = operator.finalize()
        stats = operator.stats
        assert spilled == 5 and stats.runs_generated == 6
        # Every file is keys only; the resident tail is no spilled run.
        assert stats.key_carried_runs == spilled
        # One check per page.
        assert stats.checksum_verifications == pages
        assert io.read_bytes <= io.written_bytes
        # One fetch per 4,096-row block, none per round.
        assert stats.prefetch_hits + stats.prefetch_misses == 3 * spilled
        # Frontiers are topped up before they run dry, so no round is
        # cut on a sliver one run kept back: 4 rounds for 6 runs of 3
        # blocks (a drain-only refill made 16).
        assert stats.kway_rounds <= 4
        assert result.equals(scalar_reference_sort(table, spec))

    def test_key_carried_spill_file_is_its_keys(self, tmp_path):
        # Nothing per row rides beside the keys: the extent is
        # ``rows * key_words`` uint64 key words and nothing else.
        table = SCENARIOS["uniform"].table(20_000, 29)
        spec = SortSpec.of("a", "p")
        operator = ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=6000), str(tmp_path)
        )
        with operator:
            for chunk in chunk_table(table, 2000):
                operator.sink(chunk)
            assert operator.spilled_runs == 3
            for run in operator._runs:
                assert run.payload_bytes == 0
                self.assert_extent_is_its_sections(run)
            result = operator.finalize()
        assert operator.stats.key_carried_runs == 3  # the files, not the tail
        assert result.equals(scalar_reference_sort(table, spec))

    @staticmethod
    def assert_extent_is_its_sections(run):
        # The extent starts with the key words the merge reads, and its
        # length is the two sections' (no header, no layout blob).
        keys = run.num_rows * 8 * run.key_words
        assert run.io.file_size(run.path) == keys + run.payload_bytes
        file, offset = run.io.locate(run.path)
        with open(file, "rb") as fh:
            fh.seek(offset)
            on_disk = fh.read(keys)
        assert on_disk == run.read_key_block(0, run.num_rows).tobytes()

    def test_payload_spill_file_and_a_flipped_payload_byte(self, rng, tmp_path):
        table, spec = payload_table(rng, 3 * RUN_ROWS), spec_of("a DESC, s")
        operator = ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=RUN_ROWS), str(tmp_path)
        )
        with operator:
            for chunk in chunk_table(table, BLOCK_ROWS):
                operator.sink(chunk)
            assert operator.spilled_runs == 3
            for run in operator._runs:
                assert run.payload_bytes > 0
                self.assert_extent_is_its_sections(run)
            # The payload's one CRC covers its last byte (the tail of
            # the last VARCHAR value): one flip fails typed at merge.
            victim = operator._runs[1]
            file, offset = victim.io.locate(victim.path)
            position = offset + victim.io.file_size(victim.path) - 1
            with open(file, "r+b") as fh:
                fh.seek(position)
                byte = fh.read(1)[0]
                fh.seek(position)
                fh.write(bytes([byte ^ 0x04]))
            with pytest.raises(
                SpillCorruptionError, match="payload section"
            ) as info:
                operator.finalize()
        assert info.value.path == victim.path
        assert list(tmp_path.iterdir()) == []

    def test_flipped_bit_in_a_keys_page_names_the_run(self, tmp_path):
        table = SCENARIOS["uniform"].table(20_000, 29)
        operator = ExternalSortOperator(
            table.schema,
            SortSpec.of("a", "p"),
            SortConfig(run_threshold=6000),
            str(tmp_path),
        )
        with operator:
            for chunk in chunk_table(table, 2000):
                operator.sink(chunk)
            victim = operator._runs[1]
            # A byte of the second block (rows 4,096..), well inside the
            # keys section: the frontier reaches it mid-merge.
            file, offset = victim.io.locate(victim.path)
            position = offset + 5000 * 8 * victim.key_words
            with open(file, "r+b") as fh:
                fh.seek(position)
                byte = fh.read(1)[0]
                fh.seek(position)
                fh.write(bytes([byte ^ 0x10]))
            with pytest.raises(
                SpillCorruptionError, match="keys section"
            ) as info:
                operator.finalize()
        assert info.value.path == victim.path
        assert operator.stats.checksum_failures == 1
        assert list(tmp_path.iterdir()) == []


class TestPayloadReadOnce:
    """A spilled run's payload is one read (and one CRC) per pass that
    opens the run, beside its key blocks, each read once; read-ahead
    workers fetch key blocks alone."""

    @pytest.mark.parametrize("fan_in", [0, 2])
    def test_each_file_is_read_once(self, rng, tmp_path, fan_in):
        table, spec = payload_table(rng, 3 * RUN_ROWS + 37), spec_of("a DESC, s")
        io = RecordingIO()
        result, stats = spill_sort(table, spec, tmp_path, io, merge_fan_in=fan_in)
        assert_matches_both_oracles(result, table, spec)
        # Three cut runs, then (fan-in 2) two merged pairs.
        assert len(io.layout) == (5 if fan_in else 3)
        for path, (keys, payload) in io.layout.items():
            reads = [(at, n) for _, p, at, n in io.log if p == path]
            assert payload > 0 and reads.count((keys, payload)) == 1
            key_reads = [(at, n) for at, n in reads if at < keys]
            assert len(set(key_reads)) == len(key_reads)
            assert sum(n for _, n in key_reads) == keys
        # Each read is one check: a payload or one key block.
        assert stats.checksum_verifications == len(io.log)

    def test_workers_fetch_key_blocks_alone(self, rng, tmp_path):
        table, spec = payload_table(rng, 9 * RUN_ROWS + 37), spec_of("a DESC, s")
        io = RecordingIO(read_delay_s=0.0002)
        result, stats = spill_sort(table, spec, tmp_path, io, prefetch_blocks=2)
        assert_matches_both_oracles(result, table, spec)
        ahead = [
            (path, at) for name, path, at, _ in io.log
            if name.startswith("spill-prefetch")
        ]
        assert ahead  # reads proved slow, so the pool read ahead
        for path, at in ahead:
            keys, _ = io.layout[path]
            assert at < keys
        # One stream a run: depth 2 for each of the 9 files, capped at a
        # run threshold's worth of blocks (four) but never below a block
        # a file.
        assert stats.prefetch_peak_blocks <= 9


@pytest.mark.parametrize("case", CASES)
class TestHeldBlockIsDeliveredBlock:
    @pytest.mark.parametrize("fan_in", [0, 2])
    def test_pool_engaged_and_intermediate_passes(
        self, rng, tmp_path, case, fan_in
    ):
        make, spec_text = CASES[case]
        table, spec = make(rng, 9 * RUN_ROWS + 37), spec_of(spec_text)
        io = SlowStorageIO(read_delay_s=0.0002)
        result, stats = spill_sort(
            table, spec, tmp_path, io, prefetch_blocks=2, merge_fan_in=fan_in
        )
        if fan_in:
            # Pre-passes of two runs each (a pass that short may end
            # before three reads in a row have proved storage slow).
            assert stats.merge_passes == 4
        else:
            # Workers fetched ahead of the frontier, two blocks a run: a
            # span sliced from the block *fetched* last instead of
            # *delivered* last would show below.
            assert stats.phase_seconds["spill_io_overlap"] > 0
        assert (stats.key_carried_runs > 0) == (case == "key_carried")
        assert_matches_both_oracles(result, table, spec)
        assert list(tmp_path.iterdir()) == []

    def test_resident_and_spilled_runs_mixed(self, rng, tmp_path, case):
        make, spec_text = CASES[case]
        table, spec = make(rng, 6 * RUN_ROWS + 11), spec_of(spec_text)
        # The third write and every later one fail: two files, then
        # resident runs cut at half the threshold, all in one merge.
        io = FaultInjector(
            [
                InjectedFault("enospc", at=2, times=None),
                InjectedFault("slow_io", at=0, times=None, delay_s=0.0002),
            ]
        )
        with pytest.warns(RuntimeWarning, match="degrading"):
            result, stats = spill_sort(
                table,
                spec,
                tmp_path,
                io,
                prefetch_blocks=2,
            )
        assert stats.memory_run_fallbacks >= 4
        assert stats.runs_generated - stats.memory_run_fallbacks == 3
        assert_matches_both_oracles(result, table, spec)
        assert list(tmp_path.iterdir()) == []

    def test_incremental_view(self, rng, case):
        make, spec_text = CASES[case]
        table, spec = make(rng, 7 * 150), spec_of(spec_text)
        sorter = IncrementalSorter(table.schema, spec, compact_threshold=3)
        for start in range(0, table.num_rows, 150):
            sorter.insert(table.slice(start, start + 150))
            if start == 450:  # a view between compactions, then more
                head = table.slice(0, start + 150)
                assert_matches_both_oracles(sorter.view(), head, spec)
        assert sorter.stats.compactions >= 3
        assert_matches_both_oracles(sorter.view(), table, spec)


class TestLayoutsThatWiden:
    """Narrow segments keep their bias and still rebase when they widen."""

    @staticmethod
    def widening_table(rows):
        """Run 1 fits one key byte, run 2 two, run 3 four -- and run 3
        brings the first NULLs (``nobyte`` -> ``folded``)."""
        values = (
            [(i * 7) % 200 for i in range(rows)]
            + [(i * 131) % 60_000 for i in range(rows)]
            + [
                None if i % 9 == 0 else (i * 99_991) % (1 << 31)
                for i in range(rows)
            ]
        )
        return Table.from_pydict({"a": values, "seq": list(range(3 * rows))})

    @pytest.mark.parametrize(
        "spec_text", ["a DESC NULLS FIRST, seq", "a DESC NULLS FIRST"]
    )
    def test_one_two_four_bytes_then_nulls_desc(self, tmp_path, spec_text):
        table, spec = self.widening_table(RUN_ROWS), spec_of(spec_text)
        result, stats = spill_sort(table, spec, tmp_path, prefetch_blocks=2)
        assert stats.runs_generated == 3
        assert stats.key_layout_rebases == 2  # both earlier runs are stale
        assert_matches_both_oracles(result, table, spec)

    def test_sixteen_full_range_runs_rebase_nothing(self, tmp_path):
        # Every run moves min or max of both full-width int64 segments;
        # with a bias that forked the layout 13 times (int_spill).
        table = SCENARIOS["uniform"].table(16 * RUN_ROWS + 5, 17)
        spec = SortSpec.of("a", "p")
        result, stats = spill_sort(table, spec, tmp_path)
        assert stats.runs_generated == 17
        assert stats.key_width_used == 16
        assert stats.key_layout_rebases == 0
        assert result.equals(scalar_reference_sort(table, spec))
