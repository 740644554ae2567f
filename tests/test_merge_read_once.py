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
from repro.errors import KeyEncodingError, SpillCorruptionError
from repro.keys.compression import serialize_layout
from repro.scalar.reference import reference_sort as scalar_reference_sort
from repro.sort.external import ExternalSortOperator, SpilledRun
from repro.sort.faults import (
    FaultInjector,
    InjectedFault,
    SlowStorageIO,
    SpillIO,
)
from repro.sort.incremental import IncrementalSorter
from repro.sort.operator import SortConfig
from repro.sort.spillfile import _FIXED
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

BLOCK_ROWS = 64
RUN_ROWS = 4 * BLOCK_ROWS  # >= 3 blocks per run: read-ahead can lead


class CountingIO(SpillIO):
    """The real backend, counting the bytes that cross it."""

    def __init__(self) -> None:
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
            pages = sum(run.header.crc_count for run in operator._runs)
            result = operator.finalize()
        stats = operator.stats
        assert spilled == 5 and stats.runs_generated == 6
        # Every file is keys only; the resident tail is no spilled run.
        assert stats.key_carried_runs == spilled
        # One check per page plus one header re-validation per file.
        assert stats.checksum_verifications == pages + spilled
        assert io.read_bytes <= io.written_bytes
        # One fetch per 4,096-row block, none per round.
        assert stats.prefetch_hits + stats.prefetch_misses == 3 * spilled
        assert stats.kway_rounds > 3 * spilled
        assert result.equals(scalar_reference_sort(table, spec))

    def test_key_carried_spill_file_is_header_plus_keys(self, tmp_path):
        # Nothing per row rides beside the keys: the file is its header
        # and ``rows * key_width`` key bytes.
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
                assert run.row_width == run.heap_bytes == 0
                self.assert_file_is_header_plus_sections(run, table, spec)
            result = operator.finalize()
        assert operator.stats.key_carried_runs == 3  # the files, not the tail
        assert result.equals(scalar_reference_sort(table, spec))

    @staticmethod
    def assert_file_is_header_plus_sections(run, table, spec):
        # The header's extra blob *is* the run's serialized key layout
        # (no frame around it), and re-attachment reads both back.
        header = run.header
        assert header.extra == serialize_layout(run.layout)
        assert len(header.pack()) == (
            _FIXED.size + 4 * header.crc_count + len(header.extra)
        )
        assert os.path.getsize(run.path) == (
            len(header.pack())
            + run.num_rows * (run.key_width + run.row_width)
            + run.heap_bytes
        )
        reopened = SpilledRun.open(run.path, table.schema, spec)
        assert reopened.header == header
        assert reopened.layout == run.layout

    def test_payload_spill_file_and_a_flipped_layout_byte(self, rng, tmp_path):
        table, spec = payload_table(rng, 3 * RUN_ROWS), spec_of("a DESC, s")
        operator = ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=RUN_ROWS), str(tmp_path)
        )
        with operator:
            for chunk in chunk_table(table, BLOCK_ROWS):
                operator.sink(chunk)
            assert operator.spilled_runs == 3
            for run in operator._runs:
                assert run.row_width > 0 and run.heap_bytes > 0
                self.assert_file_is_header_plus_sections(run, table, spec)
            # The header CRC covers the blob: one flipped layout byte --
            # the row-id width, or the last of the bytes the VARCHAR
            # segment skips -- fails typed at re-attachment and at merge
            # start.
            victim = operator._runs[1]
            blob = victim.header.extra
            assert victim.layout.segments[1].skipped == blob[-1:] == b"s"
            start = _FIXED.size + 4 * victim.header.crc_count
            for position in (start + 1, start + len(blob) - 1):
                with open(victim.path, "r+b") as fh:
                    intact = fh.read()
                    fh.seek(position)
                    fh.write(bytes([intact[position] ^ 0x04]))
                with pytest.raises(SpillCorruptionError, match="header CRC"):
                    SpilledRun.open(victim.path, table.schema, spec)
                if position == start + 1:
                    with open(victim.path, "wb") as fh:
                        fh.write(intact)
            with pytest.raises(SpillCorruptionError, match="header CRC"):
                operator.finalize()
        assert list(tmp_path.iterdir()) == []

    def test_a_layout_of_another_sort_is_spill_corruption(self, rng, tmp_path):
        # CRC-valid, but the blob describes a different ORDER BY.
        table, spec = int_table(rng, 2 * RUN_ROWS), spec_of("a DESC, b NULLS FIRST")
        operator = ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=RUN_ROWS), str(tmp_path)
        )
        with operator:
            for chunk in chunk_table(table, BLOCK_ROWS):
                operator.sink(chunk)
            path = operator._runs[0].path
            with pytest.raises(SpillCorruptionError, match="key layout"):
                SpilledRun.open(path, table.schema, spec_of("a, b NULLS FIRST"))

    def test_skipped_bytes_of_another_sort_never_give_a_wrong_answer(
        self, rng, tmp_path
    ):
        # CRC-valid files of two sorts of one schema and ORDER BY whose
        # first runs share different bytes: under a schema where the
        # column is no VARCHAR the blob is corrupt; merged as one sort's
        # runs, the stale run cannot be rebased.
        tables = [
            Table.from_pydict({"s": [f"{stem}{v:03d}" for v in range(RUN_ROWS)]})
            for stem in ("left-", "right-")
        ]
        spec = spec_of("s")
        left, right = (
            ExternalSortOperator(
                table.schema, spec, SortConfig(run_threshold=RUN_ROWS),
                str(tmp_path),
            )
            for table in tables
        )
        with left, right:
            for operator, table in ((left, tables[0]), (right, tables[1])):
                operator.sink(next(chunk_table(table, RUN_ROWS)))
                assert operator._runs[0].layout.segments[0].skipped
            foreign = left._runs[0]
            ints = Table.from_pydict({"s": [1]})
            with pytest.raises(SpillCorruptionError, match="key layout"):
                SpilledRun.open(foreign.path, ints.schema, spec)
            right._runs.insert(0, foreign)
            with pytest.raises(KeyEncodingError, match="skipped"):
                right.finalize()

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
            position = (
                victim.header.section_offset(0) + 5000 * victim.key_width
            )
            with open(victim.path, "r+b") as fh:
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
                spill_retries=0,
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
