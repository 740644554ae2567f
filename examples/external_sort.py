"""Out-of-core sorting: the paper's future-work direction, working.

Run with::

    python examples/external_sort.py

Sorts more data than the configured in-memory budget by spilling sorted
runs to disk in the unified row format and stream-merging them back --
"graceful degradation as the data size exceeds the memory limit"
(paper, Section IX).
"""

import time

import numpy as np

from repro import SortConfig, SortSpec, Table
from repro.sort.external import ExternalSortOperator
from repro.table.chunk import chunk_table


def main() -> None:
    rng = np.random.default_rng(7)
    n = 200_000
    table = Table.from_numpy(
        {
            "key": rng.integers(0, 1 << 24, n).astype(np.int32),
            "payload": np.arange(n, dtype=np.int64),
        }
    )
    spec = SortSpec.of("key")

    # Pretend memory only holds 50k rows: every full buffer becomes a
    # sorted run on disk; what is still buffered at the end is merged
    # from memory.  (``sort_table(table, spec, config)`` is the one-call
    # form; the operator is used here to look at the spill.)
    config = SortConfig(external=True, run_threshold=50_000)
    start = time.perf_counter()
    with ExternalSortOperator(table.schema, spec, config) as operator:
        for chunk in chunk_table(table):
            operator.sink(chunk)
        print(
            f"Spilled {operator.spilled_runs} sorted runs, "
            f"{operator.spilled_bytes / 1e6:.1f} MB on disk"
        )
        result = operator.finalize()
    elapsed = time.perf_counter() - start

    assert result.is_sorted_by(spec)
    assert result.num_rows == n
    print(f"Merged back into one sorted table of {n} rows "
          f"in {elapsed:.2f}s (spill files cleaned up)")


if __name__ == "__main__":
    main()
