"""Ablation experiments for the design choices DESIGN.md calls out.

These go beyond the paper's exhibits: each ablation toggles one design
decision of the sort pipeline and measures its effect, either on the
instrumented simulator (cycles/counters) or on the real production
operator (wall-clock via pytest-benchmark in ``benchmarks/``).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.bench.report import FigureResult
from repro.sim.machine import Machine
from repro.simsort.algorithms import lsd_radix_sort, msd_radix_sort
from repro.simsort.layouts import NormalizedKeyLayout
from repro.sort.operator import SortConfig, SortOperator, sort_table
from repro.systems.parallel import merge_tree_makespan
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.distributions import (
    correlated_distribution,
    generate_key_columns,
    random_distribution,
)
from repro.workloads.tpcds import customer

__all__ = [
    "ablation_string_prefix",
    "ablation_radix_switch",
    "ablation_merge_path",
    "ablation_radix_skip_copy",
    "ablation_block_size",
    "ablation_heuristic_chooser",
    "ablation_msd_pdq_fallback",
    "ablation_engine_paradigms",
    "ablation_sorting_side_benefits",
]


def ablation_string_prefix(
    num_rows: int = 20_000, prefixes: Sequence[int] = (2, 4, 8, 12)
) -> FigureResult:
    """Normalized-key string prefix length vs sort time and exactness.

    Short prefixes make keys cheap but force full-string tie-breaks;
    DuckDB caps the prefix at 12 bytes.  Measures the real operator.
    """
    table = customer(num_rows, 100)
    spec = SortSpec.of("c_last_name", "c_first_name")
    result = FigureResult(
        "ablation-prefix",
        "String prefix length in normalized keys vs real sort time",
        ["prefix_bytes", "seconds", "prefix_exact"],
    )
    reference = None
    for prefix in prefixes:
        config = SortConfig(string_prefix=prefix)
        start = time.perf_counter()
        output = sort_table(table, spec, config)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = output
        elif not output.equals(reference):
            raise AssertionError(
                f"prefix {prefix} changed the sort result"
            )
        result.add(
            prefix_bytes=prefix,
            seconds=elapsed,
            prefix_exact=prefix >= 12,
        )
    return result


def ablation_radix_switch(
    num_rows: int = 1 << 10, key_counts: Sequence[int] = (1, 2, 3, 4)
) -> FigureResult:
    """LSD vs MSD radix across key widths (DuckDB switches at 4 bytes)."""
    result = FigureResult(
        "ablation-radix-switch",
        "LSD vs MSD radix sort cycles by key width (simulated)",
        ["keys", "key_bytes", "lsd_cycles", "msd_cycles", "msd_over_lsd"],
    )
    for k in key_counts:
        values = generate_key_columns(random_distribution(), num_rows, k)
        cycles = {}
        for label, sorter in (("lsd", lsd_radix_sort), ("msd", msd_radix_sort)):
            machine = Machine()
            layout = NormalizedKeyLayout(machine, values)
            with machine.measure() as region:
                sorter(layout)
            cycles[label] = float(region.cycles)
        result.add(
            keys=k,
            key_bytes=4 * k,
            lsd_cycles=cycles["lsd"],
            msd_cycles=cycles["msd"],
            msd_over_lsd=cycles["lsd"] / cycles["msd"],
        )
    return result


def ablation_merge_path(
    run_count: int = 16,
    run_size: int = 1 << 16,
    thread_counts: Sequence[int] = (2, 8, 16, 48),
) -> FigureResult:
    """Merge Path vs naive cascaded merge: parallel makespan.

    Without Merge Path the final rounds of the cascade degrade to a single
    thread; with it every round stays fully parallel (paper, Figure 11).
    """
    result = FigureResult(
        "ablation-merge-path",
        "Cascaded merge makespan with and without Merge Path partitioning",
        ["threads", "naive_makespan", "merge_path_makespan", "speedup"],
        notes=f"{run_count} runs of {run_size} elements, unit cost/element",
    )
    runs = [run_size] * run_count
    for threads in thread_counts:
        naive = merge_tree_makespan(runs, threads, 1.0, merge_path=False)
        path = merge_tree_makespan(runs, threads, 1.0, merge_path=True)
        result.add(
            threads=threads,
            naive_makespan=naive,
            merge_path_makespan=path,
            speedup=naive / path,
        )
    return result


def ablation_radix_skip_copy(
    num_rows: int = 1 << 10, correlation: float = 1.0
) -> FigureResult:
    """The skip-copy optimization on data with constant key bytes.

    Correlated data has low-entropy bytes; skipping single-bucket passes
    avoids useless copies (one of Graefe's radix shortcomings the paper
    mitigates).
    """
    values = generate_key_columns(
        correlated_distribution(correlation), num_rows, 4
    )
    result = FigureResult(
        "ablation-skip-copy",
        "LSD radix with and without the skip-copy optimization (simulated)",
        ["variant", "cycles", "l1_misses", "swaps"],
    )
    for label, skip in (("skip-copy", True), ("always-copy", False)):
        machine = Machine()
        layout = NormalizedKeyLayout(machine, values)
        with machine.measure() as region:
            lsd_radix_sort(layout, skip_copy=skip)
        result.add(
            variant=label,
            cycles=float(region.cycles),
            l1_misses=region.counters.l1_misses,
            swaps=region.counters.swaps,
        )
    return result


def ablation_block_size(
    num_rows: int = 200_000,
    vector_sizes: Sequence[int] = (128, 1024, 8192, 65536),
) -> FigureResult:
    """Chunk size of the sort's ingest vs real wall-clock.

    The paper converts "one block of vectors at a time" to keep the
    conversion cache-resident.  This engine converts each run whole, so
    the one granularity left is the chunk the operator sinks: this
    measures the real operator's per-chunk sink overhead.
    """
    rng = np.random.default_rng(3)
    table = Table.from_numpy(
        {
            "a": rng.integers(0, 1 << 20, num_rows).astype(np.int32),
            "b": rng.standard_normal(num_rows).astype(np.float32),
        }
    )
    spec = SortSpec.of("a", "b DESC")
    result = FigureResult(
        "ablation-block-size",
        "Ingest chunk size vs real sort wall-clock",
        ["vector_size", "seconds"],
    )
    reference = None
    for vector_size in vector_sizes:
        start = time.perf_counter()
        operator = SortOperator(table.schema, spec)
        for chunk in chunk_table(table, vector_size):
            operator.sink(chunk)
        output = operator.finalize()
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = output
        elif not output.equals(reference):
            raise AssertionError("vector size changed the sort result")
        result.add(vector_size=vector_size, seconds=elapsed)
    return result


def ablation_heuristic_chooser(num_rows: int = 50_000) -> FigureResult:
    """DuckDB's fixed rule vs the cost-based chooser (future work, IX).

    Runs the scalar reference sort
    (:func:`repro.scalar.reference.reference_sort`, where radix, pdqsort
    and the chooser are three different sorts) with each policy on two
    adversarial workloads: narrow low-cardinality keys (radix's home
    turf) and a wide multi-key sort of a small input (where pdqsort
    wins).
    """
    from repro.scalar.reference import ReferenceStats, reference_sort
    from repro.table.table import Table

    rng = np.random.default_rng(11)
    workloads = {
        "narrow-dups": (
            Table.from_numpy(
                {"a": rng.integers(0, 50, num_rows).astype(np.int32)}
            ),
            SortSpec.of("a"),
        ),
        "wide-unique": (
            Table.from_numpy(
                {
                    "a": rng.integers(-(2**60), 2**60, 2000).astype(np.int64),
                    "b": rng.integers(-(2**60), 2**60, 2000).astype(np.int64),
                    "c": rng.integers(-(2**60), 2**60, 2000).astype(np.int64),
                }
            ),
            SortSpec.of("a", "b", "c"),
        ),
    }
    result = FigureResult(
        "ablation-heuristic",
        "Fixed algorithm choice vs the cost-based heuristic (real seconds)",
        ["workload", "policy", "algorithm_used", "seconds"],
    )
    for name, (table, spec) in workloads.items():
        reference = None
        for policy in ("radix", "pdqsort", "heuristic"):
            stats = ReferenceStats()
            start = time.perf_counter()
            output = reference_sort(table, spec, policy, stats)
            elapsed = time.perf_counter() - start
            if reference is None:
                reference = output
            elif not output.equals(reference):
                raise AssertionError(f"{policy} changed the sort result")
            result.add(
                workload=name,
                policy=policy,
                algorithm_used=stats.algorithm,
                seconds=elapsed,
            )
    return result


def ablation_msd_pdq_fallback(
    num_rows: int = 30_000, key_bytes: int = 16
) -> FigureResult:
    """MSD radix with insertion-only vs pdqsort bucket fallback (IX)."""
    from repro.scalar.radix import RadixStats, msd_radix_argsort

    rng = np.random.default_rng(13)
    matrix = rng.integers(0, 256, size=(num_rows, key_bytes)).astype(np.uint8)
    result = FigureResult(
        "ablation-msd-pdq",
        "MSD radix bucket fallback: insertion sort vs pdqsort (real seconds)",
        ["fallback", "seconds", "small_buckets"],
    )
    reference = None
    for label, threshold in (("insertion-only", None), ("pdq<=512", 512)):
        stats = RadixStats()
        start = time.perf_counter()
        order = msd_radix_argsort(matrix, stats, pdq_threshold=threshold)
        elapsed = time.perf_counter() - start
        if reference is None:
            reference = order
        elif not np.array_equal(order, reference):
            raise AssertionError("fallback changed the sort result")
        result.add(
            fallback=label,
            seconds=elapsed,
            small_buckets=stats.insertion_sorted_buckets,
        )
    return result


def ablation_engine_paradigms(num_rows: int = 8192) -> FigureResult:
    """Section V's framing: Volcano vs vectorized vs compiled overhead."""
    from repro.simsort.engines import PARADIGMS, run_pipeline

    rng = np.random.default_rng(17)
    values = rng.integers(0, 1000, num_rows).astype(np.uint32)
    result = FigureResult(
        "ablation-paradigms",
        "Interpretation overhead of execution paradigms (simulated cycles)",
        ["paradigm", "cycles", "relative", "interpretation_ops"],
    )
    runs = {p: run_pipeline(values, 500, p) for p in PARADIGMS}
    base = runs["compiled"].cycles
    for paradigm in PARADIGMS:
        run = runs[paradigm]
        result.add(
            paradigm=paradigm,
            cycles=run.cycles,
            relative=run.cycles / base,
            interpretation_ops=run.interpretation_ops,
        )
    return result


def ablation_sorting_side_benefits(num_rows: int = 50_000) -> FigureResult:
    """Section II's implicit benefits: RLE, zone maps, and order reuse.

    Besides the storage-side wins (compression, pruning), sorted data
    speeds up downstream *operators*: the last row measures a GROUP BY
    over a sorted table through the real planner path, where the
    order-propagation pass elides the Sort node the planner puts under
    the aggregate.
    """
    from repro.analysis import sorting_benefit
    from repro.engine.database import Database
    from repro.table.column import ColumnVector
    from repro.types.datatypes import BIGINT
    from repro.types.schema import ColumnDef, Schema

    rng = np.random.default_rng(19)
    result = FigureResult(
        "ablation-side-benefits",
        "RLE compression, zone-map pruning, and operator order reuse",
        ["cardinality", "rle_unsorted", "rle_sorted",
         "zone_unsorted", "zone_sorted",
         "groupby_full_s", "groupby_presorted_s"],
    )
    for cardinality in (10, 1000, 100_000):
        column = ColumnVector.from_numpy(
            rng.integers(0, cardinality, num_rows).astype(np.int32)
        )
        low = cardinality // 2
        benefit = sorting_benefit(column, low, low + cardinality // 100 + 1,
                                  block_size=1024)
        result.add(
            cardinality=cardinality,
            rle_unsorted=benefit.rle_ratio_unsorted,
            rle_sorted=benefit.rle_ratio_sorted,
            zone_unsorted=benefit.zone_selectivity_unsorted,
            zone_sorted=benefit.zone_selectivity_sorted,
        )

    # Sorted-input GROUP BY through the real planner: the same query
    # over the same sorted table, with and without order propagation.
    keys = rng.integers(0, 1000, num_rows).astype(np.int64)
    values = rng.integers(0, 1 << 30, num_rows).astype(np.int64)
    table = Table(
        Schema((ColumnDef("k", BIGINT), ColumnDef("v", BIGINT))),
        [ColumnVector.from_numpy(keys), ColumnVector.from_numpy(values)],
    )
    db = Database()
    db.register("tv", sort_table(table, SortSpec.of("k")))
    db.declare_ordering("tv", "k")
    sql = "SELECT k, count(*), sum(v) FROM tv GROUP BY k"
    start = time.perf_counter()
    forced = db.execute(sql, propagate_order=False)
    full_s = time.perf_counter() - start
    start = time.perf_counter()
    presorted = db.execute(sql)
    presorted_s = time.perf_counter() - start
    if not presorted.equals(forced):
        raise AssertionError("presorted GROUP BY changed the result")
    result.add(
        cardinality="groupby(k)",
        groupby_full_s=full_s,
        groupby_presorted_s=presorted_s,
    )
    return result
