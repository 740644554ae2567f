"""Key-compression benchmark; writes BENCH_compression.json.

Records what the runtime key-compression layer
(:mod:`repro.keys.compression`) does on the acceptance workload -- a
1M-row multi-column narrow-range int64 external sort -- plus the run
sort kernel it feeds:

* **external_narrow_int64** -- ``ExternalSortOperator`` end-to-end:
  seconds, rows/s, spilled bytes (captured before the merge), the
  compressed key width beside the plain one and the key-carried run
  count (every column a fixed-width integer key: keys only, no row
  payload), byte identity with ``reference_sort`` asserted.  The
  uncompressed run format this used to be set against is gone; the last
  two-sided record is in EXPERIMENTS.md.
* **kernel_sweep** -- the packed-word run sort
  (:func:`repro.sort.kernels.argsort_rows`) against an inline
  ``np.lexsort`` over the same rows' uint64 word columns, one cell per
  row count x key width x key distribution (:data:`KERNEL_ROWS`,
  :data:`KERNEL_KEY_BYTES`, :func:`kernel_matrices`), permutation
  equality asserted in every cell.  The kernel's speed is that of
  numpy's value sort, which numpy dispatches on the CPU's SIMD features
  at run time, so the section header records them beside the numpy
  version.
* **bytes_per_key** -- ``key_width_used`` vs. ``key_width_full`` for
  int-, float- and string-flavoured column mixes (row-id suffix
  excluded), straight from :class:`repro.sort.operator.SortStats`.

Hardware varies across CI boxes, so the numbers are *recorded, not
gated*.  Output identity is asserted at every scale -- correctness does
not vary with hardware.

Results land in ``BENCH_compression.json`` at the repository root.
Runs standalone (``python benchmarks/bench_key_compression.py
[--rows N]``) or under pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.scalar.reference import reference_sort  # noqa: E402
from repro.sort.external import ExternalSortOperator  # noqa: E402
from repro.sort.kernels import argsort_rows  # noqa: E402
from repro.sort.operator import SortConfig, SortOperator, SortStats  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.datatypes import BIGINT  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_compression.json")

DEFAULT_ROWS = 1_000_000
ROUNDS = 3  # best-of for every timed side
# kernel_sweep: the lexsort-finish row count, the matrix scale, one
# production run (DEFAULT_RUN_THRESHOLD) and the acceptance scale; one
# word, one word and a byte, two, three and five words of key.
KERNEL_ROWS = (1_024, 24_000, 131_072, 1_000_000)
KERNEL_KEY_BYTES = (5, 9, 16, 24, 40)
KERNEL_DISTINCT = 1000
KERNEL_STEMS = 16


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _narrow_table(rng: np.random.Generator, rows: int) -> Table:
    """Multi-column narrow-range int64: every column is a sort key."""
    return Table.from_numpy(
        {
            "grp": rng.integers(0, 100, rows).astype(np.int64),
            "code": rng.integers(0, 250, rows).astype(np.int64),
            "seq": rng.integers(0, 200, rows).astype(np.int64),
        }
    )


def _external_sort(table: Table, spec: SortSpec, rows: int):
    """One external sort; returns (result, spilled_bytes, stats)."""
    run_threshold = max(rows // 8, 1024)
    with tempfile.TemporaryDirectory(prefix="bench_compress_") as spill_dir:
        operator = ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(run_threshold=run_threshold),
            spill_directory=spill_dir,
        )
        try:
            for chunk in chunk_table(table, 16_384):
                operator.sink(chunk)
            spilled = operator.spilled_bytes
            result = operator.finalize()
            return result, spilled, operator.stats
        finally:
            operator.close()


def bench_external(table: Table, spec: SortSpec, rows: int) -> dict:
    seconds, (result, spilled, stats) = _best_of(
        lambda: _external_sort(table, spec, rows)
    )
    # Key-carried runs rebuild rows from key bytes; for all-integer
    # no-NULL keys equal values are equal bytes.
    assert result.equals(reference_sort(table, spec)), (
        "external sort output diverged from reference_sort"
    )
    return {
        "rows": rows,
        "commit": commit_id(),
        "seconds": seconds,
        "rows_per_s": rows / seconds,
        "spilled_bytes": spilled,
        "spilled_runs": stats.runs_generated,
        "key_carried_runs": stats.key_carried_runs,
        "key_width_used": stats.key_width_used,
        "key_width_full": stats.key_width_full,
    }


def kernel_matrices(rng: np.random.Generator, rows: int, key_bytes: int) -> dict:
    """The sweep's key distributions as ``(rows, key_bytes)`` byte matrices.

    ``uniform``: independent random bytes (the first pass leaves no
    ties).  ``1000_distinct`` / ``each_twice``: full-duplicate keys, few
    and large tie groups vs. ``rows / 2`` groups of two.
    ``shared_12B_prefix``: the leading 12 bytes (``key_bytes - 1`` for
    narrower keys) drawn from 16 stems, so rows tie pass after pass
    until the bytes behind the stem are reached -- VARCHAR keys past
    their prefix.  ``near_sorted`` / ``reverse``: the sorted ``uniform``
    keys displaced by at most 64 positions, and in descending order.
    """
    uniform = rng.integers(0, 256, (rows, key_bytes), dtype=np.uint8)
    distinct = rng.integers(0, 256, (KERNEL_DISTINCT, key_bytes), dtype=np.uint8)
    half = rng.integers(0, 256, ((rows + 1) // 2, key_bytes), dtype=np.uint8)
    stem_bytes = min(12, key_bytes - 1)
    stems = rng.integers(0, 256, (KERNEL_STEMS, stem_bytes), dtype=np.uint8)
    shared = rng.integers(0, 256, (rows, key_bytes), dtype=np.uint8)
    shared[:, :stem_bytes] = stems[rng.integers(0, KERNEL_STEMS, rows)]
    ascending = uniform[argsort_rows(uniform)]
    jitter = np.arange(rows) + rng.integers(-64, 65, rows)
    return {
        "uniform": uniform,
        f"{KERNEL_DISTINCT}_distinct": distinct[
            rng.integers(0, KERNEL_DISTINCT, rows)
        ],
        "each_twice": np.concatenate([half, half])[
            rng.permutation(2 * len(half))[:rows]
        ],
        "shared_12B_prefix": shared,
        "near_sorted": ascending[np.argsort(jitter, kind="stable")],
        "reverse": np.ascontiguousarray(ascending[::-1]),
    }


def lexsort_rows(matrix: np.ndarray) -> np.ndarray:
    """The comparison side: one stable ``np.lexsort`` over the rows'
    big-endian uint64 words (zero-padded to whole words)."""
    rows, width = matrix.shape
    padded = np.zeros((rows, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = matrix
    words = np.ascontiguousarray(padded.view(">u8").astype(np.uint64).T)
    return np.lexsort(tuple(words[::-1]))


def bench_kernel_sweep(rng: np.random.Generator, max_rows: int) -> dict:
    """Packed-word kernel vs. inline lexsort: rows x key bytes x distribution.

    The matrices are key bytes only, as run generation sorts them: both
    sides are stable, so the row-id suffix is not part of the sorted
    width (and an ascending suffix would hand lexsort a presorted
    least-significant word).
    """
    cells = []
    for rows in KERNEL_ROWS:
        if rows > max_rows:
            continue
        # A 1,024-row cell takes 0.03-0.3 ms: a best of 3, or of 100,
        # records warm-up and scheduler noise, not the sort.
        rounds = max(ROUNDS, 1_000_000 // rows)
        for key_bytes in KERNEL_KEY_BYTES:
            matrices = kernel_matrices(rng, rows, key_bytes)
            for distribution, matrix in matrices.items():
                stats = SortStats()
                kernel_s, kernel_order = _best_of(
                    lambda: argsort_rows(matrix, stats), rounds
                )
                lexsort_s, lexsort_order = _best_of(
                    lambda: lexsort_rows(matrix), rounds
                )
                assert (kernel_order == lexsort_order).all(), (
                    f"kernel and lexsort disagree on the permutation "
                    f"({rows} x {key_bytes} B {distribution})"
                )
                cells.append(
                    {
                        "rows": rows,
                        "key_bytes": key_bytes,
                        "distribution": distribution,
                        "kernel_s": kernel_s,
                        "lexsort_s": lexsort_s,
                        "kernel_speedup_vs_lexsort": lexsort_s / kernel_s,
                        "sort_passes": stats.sort_passes // rounds,
                        "tied_share": stats.sort_tied_rows / rounds / rows,
                    }
                )
    return {
        "numpy_version": np.__version__,
        "numpy_simd": _numpy_simd_features(),
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "cells": cells,
    }


def _numpy_simd_features():
    """SIMD extensions numpy detected on this CPU (``np.sort`` dispatches
    on them), or None where the installed numpy cannot say (< 1.25)."""
    try:
        return np.show_config(mode="dicts").get("SIMD Extensions")
    except TypeError:
        return None


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(_SRC),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_bytes_per_key(rng: np.random.Generator, rows: int) -> dict:
    """Compressed vs. full-width key bytes for mixed-type workloads."""
    strings = np.array(["ok", "retry", "failed", "queued"])
    mixes = {
        "int64_narrow": Table.from_numpy(
            {
                "grp": rng.integers(0, 100, rows).astype(np.int64),
                "code": rng.integers(0, 250, rows).astype(np.int64),
            }
        ),
        "int64_float64": Table.from_numpy(
            {
                "grp": rng.integers(0, 100, rows).astype(np.int64),
                "score": rng.random(rows),
            }
        ),
        "string_int64": Table.from_pydict(
            {
                "status": [str(s) for s in strings[rng.integers(0, 4, rows)]],
                "grp": [int(v) for v in rng.integers(0, 100, rows)],
            },
            dtypes={"grp": BIGINT},
        ),
    }
    result = {}
    for name, table in mixes.items():
        spec = SortSpec.of(*table.schema.names)
        operator = SortOperator(table.schema, spec, SortConfig())
        for chunk in chunk_table(table, 16_384):
            operator.sink(chunk)
        operator.finalize()
        used = operator.stats.key_width_used
        full = operator.stats.key_width_full
        result[name] = {
            "bytes_per_key_compressed": used,
            "bytes_per_key_full": full,
            "compression_ratio": full / used,
        }
    return result


def main(rows: int = DEFAULT_ROWS) -> dict:
    rng = np.random.default_rng(29)
    table = _narrow_table(rng, rows)
    spec = SortSpec.of("grp", "code", "seq")
    results = {
        "cpu_count": os.cpu_count(),
        "external_narrow_int64": bench_external(table, spec, rows),
        "kernel_sweep": bench_kernel_sweep(rng, rows),
        "bytes_per_key": bench_bytes_per_key(rng, min(rows, 100_000)),
    }
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    ext = results["external_narrow_int64"]
    print(
        f"external_narrow_int64: {ext['seconds']:.3f}s "
        f"({ext['rows_per_s']:,.0f} rows/s), "
        f"{ext['spilled_bytes']:,} B spilled in {ext['spilled_runs']} runs "
        f"({ext['key_carried_runs']} key-carried), key bytes "
        f"{ext['key_width_used']} of {ext['key_width_full']}"
    )
    for kern in results["kernel_sweep"]["cells"]:
        print(
            f"kernel_sweep[{kern['rows']:,} x {kern['key_bytes']} B x "
            f"{kern['distribution']}]: kernel {kern['kernel_s'] * 1e3:.2f} ms, "
            f"lexsort {kern['lexsort_s'] * 1e3:.2f} ms "
            f"({kern['kernel_speedup_vs_lexsort']:.2f}x, "
            f"{kern['sort_passes']} passes, "
            f"tied {kern['tied_share']:.3f})"
        )
    for name, stats in results["bytes_per_key"].items():
        print(
            f"bytes_per_key[{name}]: {stats['bytes_per_key_compressed']} vs "
            f"{stats['bytes_per_key_full']} "
            f"({stats['compression_ratio']:.2f}x)"
        )
    print(f"wrote {OUTPUT} (cpu_count={results['cpu_count']})")
    return results


def test_compression_bench_smoke(capsys):
    with capsys.disabled():
        print()
        results = main(rows=120_000)
    # Output identity is asserted inside main(); here only completeness
    # of the recorded sections.
    external = results["external_narrow_int64"]
    assert external["key_carried_runs"] == external["spilled_runs"] > 1
    assert external["key_width_used"] < external["key_width_full"]
    kernel_cells = results["kernel_sweep"]["cells"]
    assert kernel_cells and all(cell["kernel_s"] > 0 for cell in kernel_cells)
    assert set(results["bytes_per_key"]) == {
        "int64_narrow",
        "int64_float64",
        "string_int64",
    }
    assert os.path.exists(OUTPUT)


@pytest.mark.slow
def test_kernel_beats_lexsort_where_it_should():
    """Same-process relations at one production run of 16-byte keys: the
    value sort is at least 2x a lexsort when the first pass decides
    every row, and no worse than 0.8x when every row stays tied."""
    matrices = kernel_matrices(np.random.default_rng(29), 131_072, 16)
    floors = {
        "uniform": 2.0,
        f"{KERNEL_DISTINCT}_distinct": 0.8,
        "shared_12B_prefix": 0.8,
    }
    for distribution, floor in floors.items():
        matrix = matrices[distribution]
        kernel_s, _ = _best_of(lambda: argsort_rows(matrix))
        lexsort_s, _ = _best_of(lambda: lexsort_rows(matrix))
        assert lexsort_s / kernel_s >= floor, (
            f"{distribution}: kernel {kernel_s * 1e3:.2f} ms vs lexsort "
            f"{lexsort_s * 1e3:.2f} ms, below the {floor}x floor"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    main(rows=parser.parse_args().rows)
