"""Multi-core sort benchmark; writes BENCH_parallel.json.

Times the parallel executor of :mod:`repro.sort.parallel_exec` against
the serial kernel path on the acceptance workload (1M random int64
rows, in-memory) and on the external spill path (same data forced
through disk runs), for 2 and 4 workers:

* **in-memory** -- ``sort_table`` end-to-end, serial vs. parallel
  morsel-driven run generation (each run's sorted morsels combined by
  Merge-Path-partitioned rounds); the k-way merge of the runs is shared,
* **external** -- ``ExternalSortOperator`` with a small run threshold so
  run generation dominates; the parallel side sorts each spilled run's
  key matrix across workers while the k-way merge stays shared.

Speedups scale with the physical core count of the machine running the
benchmark, so the JSON records ``cpu_count`` next to every number and
the results are *recorded, not gated*: a 1-core CI box will legitimately
show <1x (process pool overhead with no parallelism to buy it back), and
that is still a valid trajectory point.  Byte identity with the serial
output IS asserted on every configuration -- correctness does not vary
with hardware.

Results land in ``BENCH_parallel.json`` at the repository root.  Runs
standalone (``python benchmarks/bench_parallel.py [--rows N]``) or under
pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

from repro.sort.external import ExternalSortOperator  # noqa: E402
from repro.sort.operator import SortConfig, sort_table  # noqa: E402
from repro.sort.parallel_exec import parallel_platform_supported  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_parallel.json")

DEFAULT_ROWS = 1_000_000
WORKER_COUNTS = (2, 4)
EXTERNAL_RUN_ROWS = 125_000  # 8 spilled runs at the default row count
ROUNDS = 3  # best-of for every timed side


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _tables_equal(a: Table, b: Table) -> bool:
    if a.num_rows != b.num_rows:
        return False
    for name in a.schema.names:
        left, right = a.column(name), b.column(name)
        if left.data.tobytes() != right.data.tobytes():
            return False
        if (left.validity is None) != (right.validity is None):
            return False
        if left.validity is not None and not (
            left.validity == right.validity
        ).all():
            return False
    return True


def bench_in_memory(table: Table, spec: SortSpec, rows: int) -> dict:
    serial_s, serial = _best_of(lambda: sort_table(table, spec, SortConfig()))
    result = {
        "rows": rows,
        "serial_s": serial_s,
        "serial_rows_per_s": rows / serial_s,
        "workers": {},
    }
    for workers in WORKER_COUNTS:
        config = SortConfig(num_workers=workers)
        parallel_s, parallel = _best_of(
            lambda: sort_table(table, spec, config)
        )
        assert _tables_equal(serial, parallel), (
            f"parallel output diverged from serial at {workers} workers"
        )
        result["workers"][str(workers)] = {
            "seconds": parallel_s,
            "rows_per_s": rows / parallel_s,
            "speedup_vs_serial": serial_s / parallel_s,
        }
    return result


def _external_sort(table: Table, spec: SortSpec, num_workers: int) -> Table:
    with tempfile.TemporaryDirectory(prefix="bench_parallel_") as spill_dir:
        operator = ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(
                run_threshold=EXTERNAL_RUN_ROWS, num_workers=num_workers
            ),
            spill_directory=spill_dir,
        )
        try:
            for chunk in chunk_table(table, 16_384):
                operator.sink(chunk)
            return operator.finalize()
        finally:
            operator.close()


def bench_external(table: Table, spec: SortSpec, rows: int) -> dict:
    serial_s, serial = _best_of(lambda: _external_sort(table, spec, 1))
    result = {
        "rows": rows,
        "rows_per_run": EXTERNAL_RUN_ROWS,
        "serial_s": serial_s,
        "serial_rows_per_s": rows / serial_s,
        "workers": {},
    }
    for workers in WORKER_COUNTS:
        parallel_s, parallel = _best_of(
            lambda: _external_sort(table, spec, workers)
        )
        assert _tables_equal(serial, parallel), (
            f"external parallel output diverged at {workers} workers"
        )
        result["workers"][str(workers)] = {
            "seconds": parallel_s,
            "rows_per_s": rows / parallel_s,
            "speedup_vs_serial": serial_s / parallel_s,
        }
    return result


def main(rows: int = DEFAULT_ROWS) -> dict:
    if not parallel_platform_supported():
        print("platform lacks fork/POSIX shared memory; nothing to measure")
        return {}
    rng = np.random.default_rng(23)
    table = Table.from_numpy(
        {"v": rng.integers(-(1 << 62), 1 << 62, rows).astype(np.int64)}
    )
    spec = SortSpec.of("v")
    results = {
        "cpu_count": os.cpu_count(),
        "in_memory_int64": bench_in_memory(table, spec, rows),
        "external_int64": bench_external(table, spec, rows),
    }
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    for name in ("in_memory_int64", "external_int64"):
        numbers = results[name]
        line = f"{name}: serial {numbers['serial_rows_per_s']:,.0f} rows/s"
        for workers, stats in numbers["workers"].items():
            line += (
                f", {workers}w {stats['rows_per_s']:,.0f} rows/s "
                f"({stats['speedup_vs_serial']:.2f}x)"
            )
        print(line)
    print(f"wrote {OUTPUT} (cpu_count={results['cpu_count']})")
    return results


def test_parallel_bench_smoke(capsys):
    if not parallel_platform_supported():
        import pytest

        pytest.skip("platform lacks fork/POSIX shared memory")
    with capsys.disabled():
        print()
        results = main(rows=200_000)
    # Byte identity is asserted inside main(); here only completeness.
    assert results["in_memory_int64"]["workers"].keys() == {"2", "4"}
    assert results["external_int64"]["workers"].keys() == {"2", "4"}
    assert os.path.exists(OUTPUT)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    main(rows=parser.parse_args().rows)
