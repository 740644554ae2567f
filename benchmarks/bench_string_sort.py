"""Exact string-sort benchmark; writes BENCH_strings.json.

Measures what the exact vector string path (adaptive tie-break
re-encoding in :mod:`repro.sort.stringsort`) buys over the scalar
per-row comparator it replaced:

* **long_string_sort** -- a 200k-row sort on strings far past the
  12-byte key window (three stems: the 10 bytes they share are skipped,
  the next 12 still tie): the vector path (kernel sort + targeted
  re-encoding of tied rows) vs. the scalar reference sort
  (:func:`repro.scalar.reference.reference_sort`: pdqsort with the
  per-row segment-wise string comparator).  This is the section that
  records refinement work (rows re-encoded, full-key compares).
  Output equality is asserted; at acceptance scale (``--rows`` at least
  200,000) the >= 3x speedup of the acceptance criteria IS asserted.
* **shared_prefix** -- every row shares one 24-byte prefix and differs
  in the 8 bytes after it: the key statistics skip the prefix, the key
  window holds the rest, so the sort is exact on key bytes
  (``prefix_exact``, zero rows re-encoded); records its seconds.
* **key_passes** -- the per-layer split of a VARCHAR key's encoding on
  the e2e ``string_inmem`` table (62,500 catalog ``long_string`` rows,
  seed 17): best-of-5 seconds of the statistics pass
  (``KeyStatsAccumulator.update``) over fresh columns, which encode
  their values, and over the encoded ones, and of the word packing
  (``key_words``), and how often a 4-run spilled sort of 8,192 such rows
  (``run_threshold=2048``) calls the passes that read string bytes.

Hardware varies across CI boxes, so timing numbers are *recorded, not
gated* below acceptance scale.  Results land in ``BENCH_strings.json``
at the repository root.  Runs standalone (``python
benchmarks/bench_string_sort.py [--rows N]``) or under pytest.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.keys import encoding  # noqa: E402
from repro.keys.compression import KeyStatsAccumulator  # noqa: E402
from repro.keys.normalizer import key_words  # noqa: E402
from repro.scalar.reference import reference_sort  # noqa: E402
from repro.sort.operator import SortConfig, make_sort_operator  # noqa: E402
from repro.table import strings  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.column import ColumnVector  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402
from repro.workloads.scenarios import SCENARIOS  # noqa: E402

from bench_key_compression import commit_id  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_strings.json")

DEFAULT_ROWS = 200_000
ACCEPTANCE_ROWS = 200_000  # gate the speedup assertions here
ROUNDS = 3  # best-of for every timed side
SPEEDUP_FLOOR = 3.0
KEY_PASS_ROWS = 62_500  # the e2e string_inmem table
KEY_PASS_ROUNDS = 5
#: The passes that read a VARCHAR key's bytes, by the module binding the
#: key code calls (refinement's own ``gather_windows`` is not counted).
KEY_PASSES = {
    "encode_utf8_column": strings,
    "common_prefix": strings,
    "prefix_classes": strings,
    "gather_windows": encoding,
}


def _best_of(fn, rounds=ROUNDS):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _long_string_table(seed: int, rows: int) -> Table:
    """Strings of 25-60 bytes; prefixes collide, tails decide."""
    rng = random.Random(seed)
    prefixes = [
        "warehouse_eu_central_returns_",
        "warehouse_eu_central_orders__",
        "warehouse_us_east_returns____",
    ]
    values = [
        rng.choice(prefixes)
        + "".join(rng.choice("abcdefgh0123") for _ in range(rng.randrange(0, 30)))
        for _ in range(rows)
    ]
    return Table.from_pydict({"s": values})


def _shared_prefix_table(seed: int, rows: int) -> Table:
    """One shared 24-byte prefix, then 8 hex digits that tell rows apart."""
    rng = random.Random(seed)
    values = [
        "tenant_0042_partition_a_" + format(rng.randrange(rows * 4), "08x")
        for _ in range(rows)
    ]
    return Table.from_pydict({"s": values})


def _sort(table: Table, spec: SortSpec = SortSpec.of("s")):
    with make_sort_operator(table.schema, spec) as operator:
        for chunk in chunk_table(table, 16_384):
            operator.sink(chunk)
        return operator.finalize(), operator.stats


def bench_long_strings(rows: int) -> dict:
    table = _long_string_table(11, rows)
    seconds, (vector, stats) = _best_of(lambda: _sort(table))
    scalar_seconds, scalar = _best_of(
        lambda: reference_sort(table, SortSpec.of("s"))
    )
    assert vector.column("s").to_pylist() == scalar.column("s").to_pylist(), (
        "vector string sort diverged from the scalar oracle"
    )
    speedup = scalar_seconds / seconds
    summary = {
        "rows": rows,
        "scalar_fallback": {
            "seconds": scalar_seconds,
            "rows_per_s": rows / scalar_seconds,
        },
        "vector_exact": {
            "seconds": seconds,
            "rows_per_s": rows / seconds,
            "kernel_kway_merges": stats.kernel_kway_merges,
            "reencoded_rows": stats.reencoded_rows,
            "full_key_compares": stats.full_key_compares,
        },
        "speedup": speedup,
    }
    if rows >= ACCEPTANCE_ROWS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"vector string sort {speedup:.2f}x vs scalar is below the "
            f"{SPEEDUP_FLOOR}x acceptance floor at full scale"
        )
    return summary


def bench_shared_prefix(rows: int) -> dict:
    table = _shared_prefix_table(13, rows)
    seconds, (result, stats) = _best_of(lambda: _sort(table))
    values = result.column("s").to_pylist()
    assert values == sorted(values), "shared-prefix sort is not exact"
    return {
        "rows": rows,
        "seconds": seconds,
        "rows_per_s": rows / seconds,
        "prefix_exact": stats.prefix_exact,
        "key_width_used": stats.key_width_used,
        "key_width_full": stats.key_width_full,
        "reencoded_rows": stats.reencoded_rows,
        "full_key_compares": stats.full_key_compares,
    }


def _count_calls(fn) -> dict:
    """How often ``fn()`` calls each of :data:`KEY_PASSES`."""
    counts = dict.fromkeys(KEY_PASSES, 0)
    originals = {
        name: getattr(module, name) for name, module in KEY_PASSES.items()
    }

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    try:
        for name, module in KEY_PASSES.items():
            setattr(module, name, counting(name))
        fn()
    finally:
        for name, module in KEY_PASSES.items():
            setattr(module, name, originals[name])
    return counts


def bench_key_passes(rows: int) -> dict:
    scenario = SCENARIOS["long_string"]
    spec = SortSpec.of(*scenario.order_by.split(", "))
    table = scenario.table(rows, seed=17)

    def update(source):
        acc = KeyStatsAccumulator(table.schema, spec)
        return acc, acc.update(source)

    def cold():
        # Fresh columns over the same values: their UTF-8 form is unmade.
        fresh = [
            ColumnVector(c.dtype, c.data, c.validity) for c in table.columns
        ]
        return update(Table(table.schema, fresh))

    update_s, _ = _best_of(cold, KEY_PASS_ROUNDS)
    warm_s, (acc, encoded) = _best_of(lambda: update(table), KEY_PASS_ROUNDS)
    layout = acc.build_layout()
    words_s, _ = _best_of(
        lambda: key_words(table, layout, encoded), KEY_PASS_ROUNDS
    )
    spilled = scenario.table(8192, seed=17)
    config = SortConfig(external=True, run_threshold=2048)
    runs = []

    def spilled_sort():
        with make_sort_operator(spilled.schema, spec, config) as operator:
            for chunk in chunk_table(spilled, 1024):
                operator.sink(chunk)
            operator.finalize()
        runs.append(operator.stats.runs_generated)

    calls = _count_calls(spilled_sort)
    return {
        "rows": rows,
        "update_seconds": update_s,
        "update_encoded_seconds": warm_s,
        "key_words_seconds": words_s,
        "spilled_sort": {
            "rows": spilled.num_rows,
            "run_threshold": config.run_threshold,
            "runs": runs[0],
            "calls": calls,
        },
    }


def main(rows: int = DEFAULT_ROWS) -> dict:
    results = {
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "long_string_sort": bench_long_strings(rows),
        "shared_prefix": bench_shared_prefix(min(rows, 100_000)),
        "key_passes": bench_key_passes(min(rows, KEY_PASS_ROWS)),
    }
    with open(OUTPUT, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    long = results["long_string_sort"]
    print(
        f"long_string_sort: scalar {long['scalar_fallback']['seconds']:.3f}s, "
        f"vector {long['vector_exact']['seconds']:.3f}s "
        f"({long['speedup']:.2f}x faster, "
        f"{long['vector_exact']['reencoded_rows']:,} rows re-encoded)"
    )
    shared = results["shared_prefix"]
    print(
        f"shared_prefix: {shared['seconds']:.3f}s for {shared['rows']:,} rows, "
        f"key bytes {shared['key_width_used']} of {shared['key_width_full']}, "
        f"{shared['reencoded_rows']:,} rows re-encoded"
    )
    passes = results["key_passes"]
    print(
        f"key_passes: update {passes['update_seconds'] * 1e3:.2f} ms "
        f"({passes['update_encoded_seconds'] * 1e3:.2f} ms encoded), "
        f"key_words {passes['key_words_seconds'] * 1e3:.2f} ms for "
        f"{passes['rows']:,} rows; spilled sort calls "
        f"{passes['spilled_sort']['calls']}"
    )
    print(f"wrote {OUTPUT} (cpu_count={results['cpu_count']})")
    return results


def test_string_bench_smoke(capsys):
    with capsys.disabled():
        print()
        results = main(rows=30_000)
    # Output equality is checked inside main(); here only completeness
    # of the recorded sections.
    assert results["long_string_sort"]["vector_exact"]["rows_per_s"] > 0
    assert results["long_string_sort"]["vector_exact"]["reencoded_rows"] > 0
    shared = results["shared_prefix"]
    assert shared["prefix_exact"] and shared["reencoded_rows"] == 0
    passes = results["key_passes"]
    assert passes["update_seconds"] > 0 and passes["key_words_seconds"] > 0
    assert passes["spilled_sort"]["runs"] == 4
    assert os.path.exists(OUTPUT)


@pytest.mark.slow
def test_tie_detection_is_a_small_share_of_a_long_string_sort():
    """A same-process relation on the catalog's ``long_string`` rows (the
    e2e ``string_inmem`` table) at 200,000 rows: every key window
    truncates, few rows tie, and the string repair finds its tie groups on
    the merged key words, so ``refine`` is at most 10% of the sort.  The
    ``long_string_sort`` input above ties every row, so re-encoding, not
    tie detection, is most of its refinement.
    """
    scenario = SCENARIOS["long_string"]
    table = scenario.table(ACCEPTANCE_ROWS, seed=17)
    spec = SortSpec.of(*scenario.order_by.split(", "))
    shares = []
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _, stats = _sort(table, spec)
        seconds = time.perf_counter() - start
        shares.append(stats.phase_seconds["refine"] / seconds)
    assert not stats.prefix_exact
    assert min(shares) <= 0.10, shares


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    main(rows=parser.parse_args().rows)
