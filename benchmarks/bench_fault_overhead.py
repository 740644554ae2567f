"""Cost of spill integrity; writes BENCH_faults.json.

Every block the external sort reads back from a spill file is checked
against a CRC32 its run holds in memory: one per merge block of keys and
one per payload (:mod:`repro.sort.spillfile`).  This benchmark measures
what that integrity layer costs on the block-streaming k-way merge path:
the same out-of-core sort (8 spilled runs of 50k int64 rows, kernel
merge) is timed with checksum verification **on** vs. **off** in the
same process, the two sides alternating, so machine noise hits both
equally.  The headline number is the end-to-end overhead ratio (the
median over rounds of one round's verified / unverified time), which
the tier-2 ``slow`` test asserts stays under 10%.

Results land in ``BENCH_faults.json`` at the repository root, with the
machine's ``cpu_count`` and the commit measured.  Runs standalone
(``python benchmarks/bench_fault_overhead.py``) or under pytest.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.sort.external import ExternalSortOperator  # noqa: E402
from repro.sort.operator import SortConfig  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402
from repro.workloads.scenarios import uniform_values  # noqa: E402

from bench_key_compression import commit_id  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_faults.json")

KWAY_RUNS = 8
KWAY_RUN_ROWS = 50_000
ROUNDS = 15  # alternating pairs; the median paired ratio is the deliverable
MAX_OVERHEAD = 0.10  # acceptance bar: checksums cost < 10%


def _timed_external_sort(table, spec, verify):
    """One spilling sort; returns (elapsed_seconds, stats)."""
    with tempfile.TemporaryDirectory(prefix="bench_faults_") as spill_dir:
        start = time.perf_counter()
        with ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(
                run_threshold=KWAY_RUN_ROWS,
                verify_spill_checksums=verify,
            ),
            spill_directory=spill_dir,
        ) as operator:
            for chunk in chunk_table(table, 10_000):
                operator.sink(chunk)
            operator.finalize()
        return time.perf_counter() - start, operator.stats


def bench_checksum_overhead():
    rows = KWAY_RUNS * KWAY_RUN_ROWS
    rng = np.random.default_rng(13)
    table = Table.from_numpy({"v": uniform_values(rng, rows)})
    spec = SortSpec.of("v")

    # One sort takes ~0.06 s, and on a shared box two best-of-3 blocks
    # a second apart read anything from 0% to 16% for a true ~5%: so the
    # sides alternate (which goes first alternates too), each round
    # yields one verified / unverified ratio from two sorts made back
    # to back, and the median round is reported.
    _timed_external_sort(table, spec, False)  # warm the page cache
    seconds = {False: [], True: []}
    for index in range(ROUNDS):
        for verify in (False, True) if index % 2 == 0 else (True, False):
            elapsed, stats = _timed_external_sort(table, spec, verify)
            seconds[verify].append(elapsed)
            if verify:
                verified_stats = stats
    unverified = statistics.median(seconds[False])
    verified = statistics.median(seconds[True])
    overhead = statistics.median(
        on / off - 1.0 for off, on in zip(seconds[False], seconds[True])
    )

    assert verified_stats.runs_generated == KWAY_RUNS
    assert verified_stats.checksum_verifications > 0
    assert verified_stats.checksum_failures == 0

    return {
        "rows": rows,
        "runs": KWAY_RUNS,
        "rows_per_run": KWAY_RUN_ROWS,
        "verified_seconds": verified,
        "unverified_seconds": unverified,
        "verified_rows_per_s": rows / verified,
        "unverified_rows_per_s": rows / unverified,
        "overhead_ratio": overhead,
        "rounds": ROUNDS,
        "checksum_verifications": verified_stats.checksum_verifications,
        "spill_io_seconds": verified_stats.phase_seconds.get("spill_io", 0.0),
    }


def main():
    results = {
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "checksum_overhead": bench_checksum_overhead(),
    }
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    numbers = results["checksum_overhead"]
    print(
        f"checksum_overhead: verified {numbers['verified_rows_per_s']:,.0f} "
        f"rows/s, unverified {numbers['unverified_rows_per_s']:,.0f} rows/s, "
        f"overhead {numbers['overhead_ratio'] * 100:.1f}%"
    )
    print(f"wrote {OUTPUT}")
    return results


@pytest.mark.slow
def test_fault_overhead(capsys):
    with capsys.disabled():
        print()
        results = main()
    overhead = results["checksum_overhead"]["overhead_ratio"]
    assert overhead < MAX_OVERHEAD, (
        f"spill checksum overhead {overhead * 100:.1f}% exceeds "
        f"the {MAX_OVERHEAD * 100:.0f}% acceptance bar"
    )
    assert os.path.exists(OUTPUT)


if __name__ == "__main__":
    main()
