"""One spill file per sort per directory: runs are extents, opened once.

The external sort appends every run it spills in a directory to one
file, named ``<file>#<run>`` to its :class:`repro.sort.faults.SpillIO`,
and reads them back with ``pread`` on the one descriptor.  These tests
pin what that must not change: each run still verifies its own blocks
and names the file when one is damaged, a retried append lands where
the failed one did, a run is charged its own bytes, and no descriptor
or file outlives the sort, whatever fails.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from test_external_faults import (
    build_operator,
    expected_result,
    fast_config,
    run_sort,
)
from test_external_kway import assert_byte_identical, mixed_table
from repro.errors import SortCancelledError, SpillCorruptionError
from repro.service.governor import MemoryGovernor
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import FaultInjector, InjectedFault, SpillIO
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

PROC_FD = "/proc/self/fd"


def open_fds() -> int:
    return len(os.listdir(PROC_FD))


def sink_all(operator, table):
    for chunk in chunk_table(table, 256):
        operator.sink(chunk)


def run_bytes(run) -> int:
    """An extent is its two sections: the key words, then the payload."""
    return 8 * run.key_words * run.num_rows + run.payload_bytes


def test_one_file_per_directory_through_merge_passes(rng, tmp_path):
    # 20 runs and fan-in 2: four merge passes append and release runs,
    # and from the ninth append on the primary is full, so runs rotate
    # to the second directory.  Before every operation, each directory
    # holds at most the sort's one file.
    table = mixed_table(rng, 20 * 250)
    primary, second = tmp_path / "primary", tmp_path / "second"
    primary.mkdir()
    seen: dict[str, int] = {}

    def on_op(op, path, index):
        directory = os.path.dirname(path)
        files = len(os.listdir(directory))
        seen[directory] = max(seen.get(directory, 0), files)

    full = InjectedFault("enospc", at=8, times=None, path_substring=str(primary))
    operator = build_operator(
        table,
        primary,
        io=FaultInjector([full], on_op=on_op),
        config=fast_config(
            run_threshold=250,
            merge_fan_in=2,
            spill_directories=(str(second),),
        ),
    )
    with operator:
        sink_all(operator, table)
        assert operator.spilled_runs >= 16
        files = {operator._io.locate(run.path)[0] for run in operator._runs}
        assert {os.path.dirname(file) for file in files} == {
            str(primary),
            str(second),
        }
        result = operator.finalize()
    assert operator.stats.merge_passes >= 4
    assert_byte_identical(result, expected_result(table))
    assert seen == {str(primary): 1, str(second): 1}
    assert os.listdir(primary) == os.listdir(second) == []


@pytest.mark.skipif(not os.path.isdir(PROC_FD), reason="needs /proc/self/fd")
@pytest.mark.parametrize(
    "case", ["success", "bitflip", "short_read", "cancel", "enospc"]
)
def test_no_descriptor_outlives_the_sort(case, rng, tmp_path):
    table = mixed_table(rng, 2000)
    expected = expected_result(table)
    event = threading.Event()
    state = {"merge_reads": 0}

    def cancel_mid_merge(op, path, index):
        # Only the merge reads spilled runs.
        if op == "read":
            state["merge_reads"] += 1
            if state["merge_reads"] == 4:
                event.set()

    directory, config, on_op = tmp_path, None, None
    faults = {
        "bitflip": [InjectedFault("bitflip", at=5)],
        "short_read": [InjectedFault("short_read", at=5)],
    }.get(case, [])
    if case == "cancel":
        on_op = cancel_mid_merge
        config = fast_config(cancel_event=event)
    if case == "enospc":
        # Two runs land in the primary, the rest fail over: two files.
        directory = tmp_path / "primary"
        directory.mkdir()
        faults = [
            InjectedFault(
                "enospc", at=2, times=None, path_substring=str(directory)
            )
        ]
        config = fast_config(spill_directories=(str(tmp_path / "second"),))
    injector = FaultInjector(faults, seed=3, on_op=on_op)
    operator = build_operator(table, directory, io=injector, config=config)
    before = open_fds()
    error = {
        "bitflip": SpillCorruptionError,
        "short_read": SpillCorruptionError,
        "cancel": SortCancelledError,
    }.get(case)
    if error is None:
        assert_byte_identical(run_sort(operator, table), expected)
    else:
        with pytest.raises(error):
            run_sort(operator, table)
    assert open_fds() == before
    if case == "enospc":
        assert operator.stats.spill_failovers > 0
        assert os.listdir(tmp_path / "second") == []
    assert os.listdir(directory) == []


def spilling_operator(kind, rng, directory):
    """A sort of 2,000 rows that spills three or more runs: ``payload``
    runs (a string and a float column ride in the payload) or
    ``key_carried`` ones (every column is a key; no payload section)."""
    if kind == "payload":
        table = mixed_table(rng, 2000)
        return table, build_operator(table, directory)
    table = SCENARIOS["uniform"].table(2000, 7)
    operator = ExternalSortOperator(
        table.schema, SortSpec.of("a", "p"), fast_config(), str(directory)
    )
    return table, operator


def flip_case(kind, section, where):
    # A payload run's middle-byte cases keep the ids ``keys`` and
    # ``payload``.
    name = section if where == "middle" else f"{section}-{where}"
    return pytest.param(
        kind, section, where,
        id=name if kind == "payload" else f"{kind}-{name}",
    )


@pytest.mark.parametrize(
    "kind, section, where",
    [
        flip_case(kind, section, where)
        for kind, sections in (
            ("payload", ("keys", "payload")),
            ("key_carried", ("keys",)),
        )
        for section in sections
        for where in ("first", "middle", "last")
    ],
)
def test_a_flipped_byte_in_a_middle_extent_names_the_file(
    kind, section, where, rng, tmp_path
):
    table, operator = spilling_operator(kind, rng, tmp_path)
    with operator:
        sink_all(operator, table)
        assert operator.spilled_runs >= 3
        victim = operator._runs[1]
        assert (victim.payload_bytes == 0) == (kind == "key_carried")
        for run in operator._runs:
            assert operator._io.file_size(run.path) == run_bytes(run)
        file, offset = operator._io.locate(victim.path)
        assert offset == run_bytes(operator._runs[0])
        keys = run_bytes(victim) - victim.payload_bytes
        start, length = {
            "keys": (0, keys),
            "payload": (keys, victim.payload_bytes),
        }[section]
        step = {"first": 0, "middle": length // 2, "last": length - 1}
        position = offset + start + step[where]
        with open(file, "r+b") as fh:
            fh.seek(position)
            byte = fh.read(1)[0]
            fh.seek(position)
            fh.write(bytes([byte ^ 0x20]))
        with pytest.raises(
            SpillCorruptionError, match=f"{section} section"
        ) as info:
            operator.finalize()
    assert info.value.path == victim.path
    assert info.value.path.startswith(file + "#")
    assert operator.stats.checksum_failures == 1
    assert os.listdir(tmp_path) == []


def spill_file_bytes(table, directory, faults=()):
    """The sort's spill file once every run is written, and its result."""
    directory.mkdir()
    injector = FaultInjector(faults, seed=5)
    operator = build_operator(table, directory, io=injector)
    with operator:
        sink_all(operator, table)
        file, _ = operator._io.locate(operator._runs[0].path)
        with open(file, "rb") as fh:
            data = fh.read()
        return data, operator.finalize(), operator.stats


def test_a_short_write_is_retried_at_the_same_offset(rng, tmp_path):
    table = mixed_table(rng, 2000)
    clean, expected, _ = spill_file_bytes(table, tmp_path / "clean")
    # The third run's first append persists half its bytes, then fails.
    retried, result, stats = spill_file_bytes(
        table, tmp_path / "retried", [InjectedFault("short_write", at=2)]
    )
    assert stats.spill_retries == 1
    assert retried == clean
    assert_byte_identical(result, expected)


def test_spilled_bytes_charge_each_run_its_own_extent(rng, tmp_path):
    table = mixed_table(rng, 2000)
    grant = MemoryGovernor(1 << 30).acquire("sort")
    operator = build_operator(
        table, tmp_path, config=fast_config(memory_grant=grant)
    )
    with operator:
        sink_all(operator, table)
        runs = operator._runs
        assert len(runs) >= 3
        file, _ = operator._io.locate(runs[0].path)
        for run in runs:
            assert operator._io.file_size(run.path) == run_bytes(run)
        total = sum(run_bytes(run) for run in runs)
        assert operator.spilled_bytes == total == os.path.getsize(file)
        assert grant.spilled_bytes == total
        operator.finalize()
    grant.release()


def test_concurrent_appends_and_reads_keep_extents_apart(tmp_path):
    # The backend's file end and run table are shared by the threads of a
    # sort (the merge thread appends, prefetch workers read): appends from
    # more threads than cores, with a short switch interval, must still
    # get disjoint extents that read back whole.
    io = SpillIO()
    file = str(tmp_path / "sort.spill")
    threads_n, runs_per_thread = 8, 25

    def work(worker):
        for index in range(runs_per_thread):
            path = f"{file}#run-{worker}-{index}"
            data = bytes([worker]) * (100 + 7 * index)
            io.write_file(path, [data[:10], data[10:]])
            assert io.read(path, 0, len(data) + 5) == data

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads_n) as pool:
            futures = [pool.submit(work, worker) for worker in range(threads_n)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    extents = sorted(
        (io.locate(path)[1], io.file_size(path), path)
        for path in list(io._extents)
    )
    assert len(extents) == threads_n * runs_per_thread
    end = 0
    for offset, length, _ in extents:
        assert offset == end
        end = offset + length
    assert os.path.getsize(file) == end
    for _, _, path in extents:
        io.remove(path)
    assert not os.path.exists(file)
