"""Overlapped prefetch and multipass merging.

Three properties anchor every test here:

* **Byte identity.**  Runs merge stably, in the order they were cut, so
  the final output is a function of the input alone -- not of read-ahead
  timing or merge pass shape.  Every feature configuration must
  therefore produce byte-identical output.
* **Bounded resources.**  Read-ahead stays within its block budget, no
  prefetch thread survives a sort, and spill directories end empty.
* **Honest dispatch.**  The exact-string gate keeps multipass merging
  off paths whose key bytes are refined later.
"""

from __future__ import annotations

import os
import sys
import threading

import numpy as np
import pytest

from test_external_kway import SPECS, assert_byte_identical, mixed_table
from repro.engine.database import Database
from repro.errors import SortError
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import SlowStorageIO
from repro.sort.operator import SortConfig, SortStats
from repro.sort.prefetch import BlockPrefetcher, prefetch_budget_blocks
from repro.sort.rungen import presortedness
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS


def sort_external(table, spec, directory, io=None, **overrides):
    config_kwargs = dict(run_threshold=1000)
    config_kwargs.update(overrides)
    os.makedirs(directory, exist_ok=True)
    operator = ExternalSortOperator(
        table.schema,
        SortSpec.of(*[part.strip() for part in spec.split(",")]),
        SortConfig(**config_kwargs),
        spill_directory=str(directory),
        io=io,
    )
    with operator:
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        result = operator.finalize()
    return result, operator.stats


def near_sorted_table(rng, n, jitter=40):
    """Sorted int64 keys with bounded local displacement."""
    base = np.arange(n, dtype=np.int64)
    order = np.argsort(
        base + rng.integers(-jitter, jitter + 1, n), kind="stable"
    )
    return Table.from_pydict(
        {
            "a": [int(v) for v in base[order]],
            "p": [int(v) for v in rng.integers(0, 1 << 30, n)],
        }
    )


def no_prefetch_threads():
    return not any(
        thread.name.startswith("spill-prefetch")
        for thread in threading.enumerate()
    )


class TestPrefetchByteIdentity:
    @pytest.mark.parametrize("spec", SPECS)
    def test_on_off_identical(self, rng, tmp_path, spec):
        table = mixed_table(rng, 6000)
        off, _ = sort_external(
            table, spec, tmp_path / "off", prefetch_blocks=0
        )
        # Reads that prove slow start the pool, which reads ahead (a
        # page-cached spill file reads every block on the merge's thread).
        on, stats = sort_external(
            table, spec, tmp_path / "on", SlowStorageIO(read_delay_s=0.0002),
            prefetch_blocks=2,
        )
        assert_byte_identical(on, off)
        assert stats.prefetch_hits + stats.prefetch_misses > 0
        assert stats.prefetch_peak_blocks >= 1

    def test_budget_bounds_read_ahead(self, rng, tmp_path):
        table = mixed_table(rng, 6000)
        _, stats = sort_external(
            table, "a", tmp_path, SlowStorageIO(read_delay_s=0.0002),
            prefetch_blocks=2,
        )
        runs = stats.runs_generated
        budget = prefetch_budget_blocks(2, runs, 4096, 1000)
        # Scheduled read-ahead respects the budget: key blocks are the
        # one stream, and a miss is read on the merge's thread unbuffered.
        assert 1 <= stats.prefetch_peak_blocks <= budget

    def test_zero_depth_disables_prefetch(self, rng, tmp_path):
        table = mixed_table(rng, 6000)
        result, stats = sort_external(
            table, "a", tmp_path, prefetch_blocks=0
        )
        assert result.num_rows == 6000
        assert stats.prefetch_hits == 0
        assert stats.prefetch_misses == 0
        assert stats.prefetch_peak_blocks == 0

    def test_no_leaked_threads(self, rng, tmp_path):
        table = mixed_table(rng, 4000)
        sort_external(table, "a, s DESC", tmp_path, prefetch_blocks=2)
        assert no_prefetch_threads()

    def test_spill_directory_left_empty(self, rng, tmp_path):
        table = mixed_table(rng, 4000)
        sort_external(table, "a", tmp_path, prefetch_blocks=2)
        assert os.listdir(tmp_path) == []


class TestHeldBackRanges:
    """A spilled run's rows are not served twice or lost (found by the
    e2e oracle on a consumer that re-requested held-back rows)."""

    @pytest.mark.parametrize("seed", [17, 29])
    @pytest.mark.parametrize("rows", [8193, 12500, 50000])
    def test_one_spilled_run_longer_than_two_blocks(self, rows, seed):
        # benchmarks/e2e/README.md, "Defect found": one spilled run of
        # more than two merge blocks, truncated VARCHAR as the last key.
        scenario = SCENARIOS["mixed_null"]
        table = scenario.table(rows, seed)
        results = []
        for config in (SortConfig(external=True), SortConfig()):
            database = Database(config)
            database.register("t", table)
            results.append(database.execute(scenario.sql()))
        assert results[0].num_rows == rows
        assert_byte_identical(results[0], results[1])
        assert no_prefetch_threads()


class TestSlowStorageOverlap:
    def test_slow_reads_overlap_and_stay_identical(self, rng, tmp_path):
        table = mixed_table(rng, 5000)
        reference, _ = sort_external(table, "a", tmp_path / "raw")
        io = SlowStorageIO(read_delay_s=0.0002)
        result, stats = sort_external(
            table, "a", tmp_path / "slow", io=io, prefetch_blocks=2
        )
        assert_byte_identical(result, reference)
        assert io.reads > 0
        # Background read+verify time is attributed to the overlapped
        # phase, not to the critical-path spill_io counter.
        assert stats.phase_seconds.get("spill_io_overlap", 0.0) > 0.0
        assert no_prefetch_threads()


class TestPoolStartsOnSlowReads:
    """No thread until three critical-path reads in a row were slow.

    The fetch reports its raw read time the way ``SpilledRun`` does (as
    ``spill_io`` seconds in the stats it is handed), so the test decides
    which reads are slow and no clock is involved.
    """

    @staticmethod
    def drive(read_seconds):
        reads = iter(read_seconds)
        stats = SortStats()

        def key_fetch(index, start, stop, fetch_stats):
            fetch_stats.add_phase_seconds("spill_io", next(reads))
            return np.zeros((1, stop - start), dtype=np.uint8)

        prefetcher = BlockPrefetcher(
            [10 * len(read_seconds)], [True], 10, key_fetch,
            depth=1, budget_blocks=2, stats=stats,
        )
        threads_seen = []
        try:
            for _ in prefetcher.key_source(0):
                threads_seen.append(not no_prefetch_threads())
        finally:
            prefetcher.close()
        assert no_prefetch_threads()
        return stats, threads_seen

    def test_page_cache_reads_start_no_thread(self):
        stats, threads_seen = self.drive([3e-5] * 8)
        assert not any(threads_seen)
        assert (stats.prefetch_hits, stats.prefetch_misses) == (0, 8)
        assert "spill_io_overlap" not in stats.phase_seconds
        assert "io_wait" not in stats.phase_seconds

    def test_a_lone_slow_read_resets_the_count(self):
        slow, fast = 1e-3, 3e-5
        stats, threads_seen = self.drive(
            [slow, slow, fast, slow, slow, slow, slow, slow]
        )
        # Reads 4-6 are the first three slow ones in a row: the pool
        # exists from the sixth delivery on and fetches blocks 7 and 8.
        assert threads_seen == [False] * 5 + [True] * 3
        assert stats.prefetch_hits + stats.prefetch_misses == 8
        assert stats.prefetch_misses >= 6
        assert stats.phase_seconds["spill_io_overlap"] == pytest.approx(2 * slow)


class TestForecastComparesWordTails:
    """The read-ahead slot goes to the run whose tail *key* is smallest.

    Key blocks are uint64 word columns in native byte order.  Run 0's tail
    word 256 sorts after run 1's tail word 1, but on a little-endian
    machine its bytes (``00 01 ..``) sort before run 1's (``01 00 ..``):
    a forecast comparing tail bytes would fetch run 0 first.
    """

    def test_smaller_word_tail_is_fetched_first(self):
        blocks = {0: [[0, 1], [2, 256], [300, 400]], 1: [[0, 1], [5, 6], [7, 8]]}
        fetched_by = {}

        def key_fetch(index, start, stop, fetch_stats):
            fetch_stats.add_phase_seconds("spill_io", 1e-3)  # every read slow
            fetched_by[index, start] = threading.current_thread().name
            return np.array(blocks[index][start // 2], dtype=np.uint64)[None, :]

        tail_bytes = [np.uint64(word).tobytes() for word in (256, 1)]
        assert (tail_bytes[0] < tail_bytes[1]) == (sys.byteorder == "little")
        prefetcher = BlockPrefetcher(
            [6, 6], [True, True], 2, key_fetch,
            depth=1, budget_blocks=1, stats=SortStats(),
        )
        try:
            zero, one = prefetcher.key_source(0), prefetcher.key_source(1)
            next(zero), next(one)
            # The third slow read in a row starts the pool, and its one
            # slot goes to the run with the smaller tail: run 1.
            assert next(zero).tolist() == [[2, 256]]
            assert next(one).tolist() == [[5, 6]]
        finally:
            prefetcher.close()
        assert no_prefetch_threads()
        assert fetched_by[0, 2] == fetched_by[1, 0] == "MainThread"
        assert fetched_by[1, 2].startswith("spill-prefetch")
        assert (0, 4) not in fetched_by


# ``presortedness`` has no engine caller; the end-to-end probes bind it.
def test_presortedness_probe_shapes():
    rng = np.random.default_rng(5)
    sorted_keys = np.sort(
        rng.integers(0, 1 << 62, 4096).astype(np.uint64)
    ).astype(">u8").view(np.uint8).reshape(4096, 8)
    assert presortedness(sorted_keys) == 1.0
    assert presortedness(sorted_keys[::-1]) == 0.0
    shuffled = sorted_keys[rng.permutation(4096)]
    assert 0.2 < presortedness(shuffled) < 0.8


class TestMultipassMerge:
    def test_fan_in_multipass_byte_identical(self, rng, tmp_path):
        table = mixed_table(rng, 6000)
        single, single_stats = sort_external(
            table, "a", tmp_path / "single", run_threshold=500
        )
        multi, stats = sort_external(
            table, "a", tmp_path / "multi", run_threshold=500, merge_fan_in=4
        )
        assert_byte_identical(multi, single)
        assert single_stats.merge_passes == 1
        assert stats.merge_passes >= 2
        assert os.listdir(tmp_path / "multi") == []

    def test_fan_in_multipass_with_string_heaps(self, rng, tmp_path):
        # mixed_table strings fit inside the key prefix, so byte order
        # is exact and multipass is allowed -- intermediate runs must
        # rebuild their string heaps correctly.
        table = mixed_table(rng, 6000)
        spec = "s NULLS FIRST, a"
        single, _ = sort_external(
            table, spec, tmp_path / "single", run_threshold=500
        )
        multi, stats = sort_external(
            table,
            spec,
            tmp_path / "multi",
            run_threshold=500,
            merge_fan_in=2,
        )
        assert_byte_identical(multi, single)
        assert stats.merge_passes >= 2

    def test_fan_in_gated_off_for_inexact_strings(self, rng, tmp_path):
        # Strings longer than the key prefix need exact-varchar
        # refinement, which rewrites key bytes at the final merge;
        # intermediate runs cannot be cut from unrefined keys.
        # (Two stems that differ in the first byte, so no skipped prefix
        # makes the 12 key bytes decide.)
        long_strings = [
            f"{int(v) % 2}shared-long-prefix-{int(v):012d}"
            for v in rng.integers(0, 2000, 6000)
        ]
        table = Table.from_pydict(
            {"s": long_strings, "p": list(range(6000))}
        )
        single, _ = sort_external(
            table, "s", tmp_path / "single", run_threshold=500
        )
        multi, stats = sort_external(
            table, "s", tmp_path / "multi", run_threshold=500, merge_fan_in=2
        )
        assert_byte_identical(multi, single)
        assert stats.merge_passes == 1

    def test_fan_in_validation(self):
        with pytest.raises(SortError):
            SortConfig(merge_fan_in=1)
        with pytest.raises(SortError):
            SortConfig(prefetch_blocks=-1)

    def test_fan_in_composes_with_prefetch(self, rng, tmp_path):
        table = near_sorted_table(rng, 8000)
        reference, _ = sort_external(
            table,
            "a",
            tmp_path / "ref",
            run_threshold=500,
            prefetch_blocks=0,
        )
        combined, stats = sort_external(
            table,
            "a",
            tmp_path / "combined",
            run_threshold=500,
            prefetch_blocks=2,
            merge_fan_in=4,
        )
        assert_byte_identical(combined, reference)
        assert stats.merge_passes >= 2
        assert no_prefetch_threads()
