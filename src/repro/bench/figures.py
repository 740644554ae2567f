"""Experiment functions: one per table and figure of the paper.

Every function regenerates the rows/series of one exhibit from the paper's
evaluation, at a documented scale-down (micro-benchmarks run 2^6-2^12 rows
on the scaled simulator instead of 2^12-2^24 on a Xeon; end-to-end runs
use the paper's row counts divided by ``scale_down`` on a proportionally
scaled cache profile).  ``EXPERIMENTS.md`` records the measured outcomes
next to the paper's.

The micro-benchmark figures (2-10, Tables II/III) run on the instrumented
simulator of :mod:`repro.simsort`; the end-to-end figures (12-14) on the
system models of :mod:`repro.systems`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.bench.report import FigureResult
from repro.sim.branch import GShareBranchPredictor, TwoBitPredictor
from repro.sim.cache import CacheHierarchy
from repro.sim.machine import Machine
from repro.simsort.harness import MicroResult, run_micro
from repro.systems import HardwareProfile, all_systems
from repro.systems.registry import SYSTEM_NAMES
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.distributions import (
    Distribution,
    correlated_distribution,
    generate_key_columns,
    random_distribution,
)
from repro.workloads.tpcds import (
    PAPER_CARDINALITIES,
    catalog_sales,
    customer,
    scaled_rows,
)

__all__ = [
    "DEFAULT_SIZES",
    "DEFAULT_KEYS",
    "DEFAULT_DISTRIBUTIONS",
    "table1_hardware",
    "table2_counters_columnar",
    "table3_counters_row",
    "figure2_subsort_columnar",
    "figure3_subsort_columnar_stable",
    "figure4_row_vs_columnar",
    "figure5_row_vs_columnar_stable",
    "figure6_dynamic_comparator",
    "figure8_normalized_keys",
    "figure9_radix_vs_pdqsort",
    "figure10_counters_radix_pdq",
    "figure12_integers_floats",
    "figure13_catalog_sales",
    "figure14_customer",
    "table4_cardinalities",
    "rungen_comparison_budget",
    "robustness_predictors",
    "thread_scalability",
]

DEFAULT_SIZES = (1 << 6, 1 << 8, 1 << 10, 1 << 12)
"""Paper: 2^12..2^24.  Scaled with the simulator's smaller caches."""

DEFAULT_KEYS = (1, 2, 4)
"""Paper sweeps 1..4 key columns."""

DEFAULT_DISTRIBUTIONS = (
    random_distribution(),
    correlated_distribution(0.5),
    correlated_distribution(1.0),
)
"""Paper sweeps Random plus a CorrelatedP grid."""

_SCALE_NOTE = (
    "rows scaled to 2^6..2^12 (paper: 2^12..2^24) on a 4 KiB-L1 simulated "
    "machine (paper: 32 KiB L1 Xeon); see DESIGN.md"
)


def _cycles(
    values: np.ndarray,
    layout: str,
    approach: str,
    algorithm: str = "introsort",
    dynamic: bool = False,
) -> MicroResult:
    return run_micro(values, layout, approach, algorithm, dynamic)


# ---------------------------------------------------------------------- #
# Table I
# ---------------------------------------------------------------------- #


def table1_hardware() -> FigureResult:
    """Table I stand-in: the simulated hardware this reproduction runs on."""
    result = FigureResult(
        "table-i",
        "Specification of (simulated) hardware used in experiments",
        ["component", "micro-benchmarks", "end-to-end models"],
        notes="the paper lists m5d.metal / m5d.8xlarge EC2 instances here",
    )
    micro = Machine()
    profile = HardwareProfile()
    result.add(
        component="caches",
        **{
            "micro-benchmarks": str(micro.caches),
            "end-to-end models": (
                f"L1 {profile.l1_bytes // 1024} KiB, "
                f"L2 {profile.l2_bytes // 1024} KiB, "
                f"L3 {profile.l3_bytes // 1024 // 1024} MiB"
            ),
        },
    )
    result.add(
        component="branch predictor",
        **{
            "micro-benchmarks": type(micro.predictor).__name__,
            "end-to-end models": "mispredict-share model",
        },
    )
    result.add(
        component="threads",
        **{
            "micro-benchmarks": "1 (run generation focus)",
            "end-to-end models": str(profile.threads),
        },
    )
    result.add(
        component="cost model",
        **{
            "micro-benchmarks": str(vars(micro.cost_model)),
            "end-to-end models": f"clock {profile.frequency_hz / 1e9:.1f} GHz",
        },
    )
    return result


# ---------------------------------------------------------------------- #
# Tables II / III: perf counters, columnar vs row
# ---------------------------------------------------------------------- #


def _counter_table(
    experiment: str,
    title: str,
    layout: str,
    num_rows: int,
    algorithm: str,
) -> FigureResult:
    values = generate_key_columns(correlated_distribution(0.5), num_rows, 4)
    result = FigureResult(
        experiment,
        title,
        ["approach", "l1_misses", "branch_mispredictions", "comparisons"],
        notes=_SCALE_NOTE,
    )
    for approach in ("tuple", "subsort"):
        run = _cycles(values, layout, approach, algorithm)
        result.add(
            approach=approach,
            l1_misses=run.counters.l1_misses,
            branch_mispredictions=run.counters.branch_mispredictions,
            comparisons=run.counters.comparisons,
        )
    return result


def table2_counters_columnar(
    num_rows: int = 1 << 12, algorithm: str = "introsort"
) -> FigureResult:
    """Table II: counters for columnar tuple-at-a-time vs subsort."""
    return _counter_table(
        "table-ii",
        "L1 misses & branch mispredictions, columnar (C), Correlated0.5, "
        "4 keys, tuple-at-a-time (T) vs subsort (S)",
        "columnar",
        num_rows,
        algorithm,
    )


def table3_counters_row(
    num_rows: int = 1 << 12, algorithm: str = "introsort"
) -> FigureResult:
    """Table III: the same counters on the row (R) format."""
    return _counter_table(
        "table-iii",
        "L1 misses & branch mispredictions, row (R), Correlated0.5, "
        "4 keys, tuple-at-a-time (T) vs subsort (S)",
        "row",
        num_rows,
        algorithm,
    )


# ---------------------------------------------------------------------- #
# Figures 2/3: subsort vs tuple-at-a-time on columnar data
# ---------------------------------------------------------------------- #


def _relative_grid(
    experiment: str,
    title: str,
    algorithm: str,
    baseline: tuple[str, str, bool],
    contender: tuple[str, str, bool],
    sizes: Sequence[int],
    keys: Sequence[int],
    distributions: Sequence[Distribution],
) -> FigureResult:
    """Grid of relative runtime = cycles(baseline) / cycles(contender)."""
    result = FigureResult(
        experiment,
        title,
        ["distribution", "rows", "keys", "baseline_cycles",
         "contender_cycles", "relative"],
        notes=_SCALE_NOTE,
    )
    for distribution in distributions:
        for n in sizes:
            for k in keys:
                values = generate_key_columns(distribution, n, k)
                base = _cycles(values, baseline[0], baseline[1], algorithm,
                               baseline[2])
                cont = _cycles(values, contender[0], contender[1], algorithm,
                               contender[2])
                result.add(
                    distribution=distribution.name,
                    rows=n,
                    keys=k,
                    baseline_cycles=base.cycles,
                    contender_cycles=cont.cycles,
                    relative=base.cycles / cont.cycles,
                )
    return result


def figure2_subsort_columnar(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 2: subsort vs tuple-at-a-time, columnar, std::sort."""
    return _relative_grid(
        "figure-2",
        "Relative runtime (higher is better) of subsort vs tuple-at-a-time "
        "on columnar data, introsort (std::sort)",
        "introsort",
        ("columnar", "tuple", False),
        ("columnar", "subsort", False),
        sizes,
        keys,
        distributions,
    )


def figure3_subsort_columnar_stable(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 3: the same comparison under std::stable_sort (merge sort)."""
    return _relative_grid(
        "figure-3",
        "Relative runtime of subsort vs tuple-at-a-time on columnar data, "
        "merge sort (std::stable_sort)",
        "mergesort",
        ("columnar", "tuple", False),
        ("columnar", "subsort", False),
        sizes,
        keys,
        distributions,
    )


# ---------------------------------------------------------------------- #
# Figures 4/5: row vs columnar
# ---------------------------------------------------------------------- #


def _row_vs_columnar(
    experiment: str,
    title: str,
    algorithm: str,
    sizes: Sequence[int],
    keys: Sequence[int],
    distributions: Sequence[Distribution],
) -> FigureResult:
    result = FigureResult(
        experiment,
        title,
        ["distribution", "rows", "keys",
         "row_tuple_relative", "row_subsort_relative"],
        notes="baseline: columnar subsort; " + _SCALE_NOTE,
    )
    for distribution in distributions:
        for n in sizes:
            for k in keys:
                values = generate_key_columns(distribution, n, k)
                baseline = _cycles(values, "columnar", "subsort", algorithm)
                row_tuple = _cycles(values, "row", "tuple", algorithm)
                row_subsort = _cycles(values, "row", "subsort", algorithm)
                result.add(
                    distribution=distribution.name,
                    rows=n,
                    keys=k,
                    row_tuple_relative=baseline.cycles / row_tuple.cycles,
                    row_subsort_relative=baseline.cycles / row_subsort.cycles,
                )
    return result


def figure4_row_vs_columnar(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 4: row approaches vs columnar subsort, std::sort."""
    return _row_vs_columnar(
        "figure-4",
        "Relative runtime (higher is better) of row tuple-at-a-time and "
        "row subsort vs columnar subsort, introsort",
        "introsort",
        sizes,
        keys,
        distributions,
    )


def figure5_row_vs_columnar_stable(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 5: the same comparison under std::stable_sort."""
    return _row_vs_columnar(
        "figure-5",
        "Relative runtime of row approaches vs columnar subsort, merge sort",
        "mergesort",
        sizes,
        keys,
        distributions,
    )


# ---------------------------------------------------------------------- #
# Figures 6/8: comparator binding on rows
# ---------------------------------------------------------------------- #


def figure6_dynamic_comparator(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 6: dynamic vs static tuple-at-a-time comparator on rows."""
    return _relative_grid(
        "figure-6",
        "Relative runtime (higher is better) of a dynamic tuple-at-a-time "
        "comparator vs the static comparator, rows, introsort",
        "introsort",
        ("row", "tuple", False),  # static baseline (numerator)
        ("row", "tuple", True),  # dynamic contender (denominator)
        sizes,
        keys,
        distributions,
    )


def figure8_normalized_keys(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 8: normalized keys + memcmp vs the static comparator."""
    return _relative_grid(
        "figure-8",
        "Relative runtime (higher is better) of dynamic normalized-key "
        "memcmp vs the static tuple-at-a-time comparator, rows, introsort",
        "introsort",
        ("row", "tuple", False),
        ("normalized", "memcmp", False),
        sizes,
        keys,
        distributions,
    )


# ---------------------------------------------------------------------- #
# Figures 9/10: radix sort vs pdqsort on normalized keys
# ---------------------------------------------------------------------- #


def figure9_radix_vs_pdqsort(
    sizes: Sequence[int] = DEFAULT_SIZES,
    keys: Sequence[int] = DEFAULT_KEYS,
    distributions: Sequence[Distribution] = DEFAULT_DISTRIBUTIONS,
) -> FigureResult:
    """Figure 9: radix sort vs pdqsort (dynamic memcmp), normalized keys."""
    result = FigureResult(
        "figure-9",
        "Relative runtime (higher is better) of radix sort vs pdqsort with "
        "a dynamic memcmp comparator, normalized keys",
        ["distribution", "rows", "keys", "pdq_cycles", "radix_cycles",
         "relative"],
        notes=_SCALE_NOTE,
    )
    for distribution in distributions:
        for n in sizes:
            for k in keys:
                values = generate_key_columns(distribution, n, k)
                pdq = _cycles(values, "normalized", "memcmp", "pdqsort")
                radix = _cycles(values, "normalized", "radix")
                result.add(
                    distribution=distribution.name,
                    rows=n,
                    keys=k,
                    pdq_cycles=pdq.cycles,
                    radix_cycles=radix.cycles,
                    relative=pdq.cycles / radix.cycles,
                )
    return result


def figure10_counters_radix_pdq(num_rows: int = 1 << 12) -> FigureResult:
    """Figure 10: cumulative counters, radix vs pdqsort, Correlated0.5."""
    values = generate_key_columns(correlated_distribution(0.5), num_rows, 4)
    result = FigureResult(
        "figure-10",
        "Cumulative L1 misses and branch mispredictions of sorting "
        "4 key columns, Correlated0.5: pdqsort(memcmp) vs radix",
        ["algorithm", "l1_misses", "branch_mispredictions", "cycles"],
        notes=_SCALE_NOTE,
    )
    for label, approach, algorithm in (
        ("pdqsort+memcmp", "memcmp", "pdqsort"),
        ("radix", "radix", "introsort"),
    ):
        run = _cycles(values, "normalized", approach, algorithm)
        result.add(
            algorithm=label,
            l1_misses=run.counters.l1_misses,
            branch_mispredictions=run.counters.branch_mispredictions,
            cycles=run.cycles,
        )
    return result


# ---------------------------------------------------------------------- #
# Figures 12/13/14 + Table IV: end-to-end system comparison
# ---------------------------------------------------------------------- #

END_TO_END_SCALE = 100
"""End-to-end workloads run at the paper's row counts divided by this."""


def _system_grid(
    experiment: str,
    title: str,
    workloads: list[tuple[str, Table, SortSpec, tuple[str, ...]]],
    scale_down: int = END_TO_END_SCALE,
) -> FigureResult:
    profile = HardwareProfile().scaled(scale_down)
    columns = ["workload"] + [f"{name}_s" for name in SYSTEM_NAMES]
    result = FigureResult(
        experiment,
        title,
        columns,
        notes=(
            f"rows = paper counts / {scale_down}, cache profile scaled "
            f"to match; modelled seconds at {profile.frequency_hz/1e9:.1f} GHz"
        ),
    )
    systems = all_systems(profile)
    for label, table, spec, payload in workloads:
        row: dict = {"workload": label}
        for system in systems:
            run = system.benchmark_query(table, spec, payload)
            row[f"{system.name}_s"] = run.seconds
        result.add(**row)
    return result


def figure12_integers_floats(
    sizes: Sequence[int] | None = None,
    scale_down: int = END_TO_END_SCALE,
    seed: int = 0,
) -> FigureResult:
    """Figure 12: sorting 10-100M random integers and floats (scaled)."""
    if sizes is None:
        sizes = tuple(
            (10_000_000 * i) // scale_down for i in range(1, 11, 3)
        )
    rng = np.random.default_rng(seed)
    workloads = []
    for n in sizes:
        ints = rng.permutation(
            np.arange(n, dtype=np.int64) % 100_000_000
        ).astype(np.int32)
        workloads.append(
            (
                f"int32 n={n}",
                Table.from_numpy({"x": ints}),
                SortSpec.of("x"),
                ("x",),
            )
        )
    for n in sizes:
        floats = (rng.random(n) * 2e9 - 1e9).astype(np.float32)
        workloads.append(
            (
                f"float32 n={n}",
                Table.from_numpy({"x": floats}),
                SortSpec.of("x"),
                ("x",),
            )
        )
    return _system_grid(
        "figure-12",
        "Execution time (lower is better) of sorting random integers and "
        "floats (paper: 10-100M rows)",
        workloads,
        scale_down,
    )


CATALOG_SALES_KEYS = (
    "cs_warehouse_sk",
    "cs_ship_mode_sk",
    "cs_promo_sk",
    "cs_quantity",
)


def figure13_catalog_sales(
    scale_factors: Sequence[int] = (10, 100),
    scale_down: int = END_TO_END_SCALE,
) -> FigureResult:
    """Figure 13: TPC-DS catalog_sales sorted by 1-4 key columns."""
    workloads = []
    for sf in scale_factors:
        n = scaled_rows("catalog_sales", sf, scale_down)
        table = catalog_sales(n, sf)
        for k in range(1, 5):
            spec = SortSpec.of(*CATALOG_SALES_KEYS[:k])
            workloads.append(
                (f"SF{sf} {k} keys (n={n})", table, spec, ("cs_item_sk",))
            )
    return _system_grid(
        "figure-13",
        "Execution time of sorting TPC-DS catalog_sales by 1-4 key columns",
        workloads,
        scale_down,
    )


def figure14_customer(
    scale_factors: Sequence[int] = (100, 300),
    scale_down: int = END_TO_END_SCALE,
) -> FigureResult:
    """Figure 14: TPC-DS customer sorted by integer vs string keys."""
    workloads = []
    for sf in scale_factors:
        n = scaled_rows("customer", sf, scale_down)
        table = customer(n, sf)
        workloads.append(
            (
                f"SF{sf} integer (n={n})",
                table,
                SortSpec.of("c_birth_year", "c_birth_month", "c_birth_day"),
                ("c_customer_sk",),
            )
        )
        workloads.append(
            (
                f"SF{sf} string (n={n})",
                table,
                SortSpec.of("c_last_name", "c_first_name"),
                ("c_customer_sk",),
            )
        )
    return _system_grid(
        "figure-14",
        "Execution time of sorting TPC-DS customer by integer vs string keys",
        workloads,
        scale_down,
    )


def table4_cardinalities(scale_down: int = END_TO_END_SCALE) -> FigureResult:
    """Table IV: TPC-DS table cardinalities (paper and reproduction)."""
    result = FigureResult(
        "table-iv",
        "Cardinality of TPC-DS tables",
        ["table", "scale_factor", "paper_rows", "repro_rows"],
    )
    for (table, sf), rows in sorted(PAPER_CARDINALITIES.items()):
        result.add(
            table=table,
            scale_factor=sf,
            paper_rows=rows,
            repro_rows=scaled_rows(table, sf, scale_down),
        )
    return result


# ---------------------------------------------------------------------- #
# Section II analysis: run generation vs merge comparisons
# ---------------------------------------------------------------------- #


def rungen_comparison_budget(
    sizes: Sequence[int] = (1 << 14, 1 << 17, 1 << 20),
    thread_counts: Sequence[int] = (2, 16, 48),
) -> FigureResult:
    """Section II: share of comparisons spent in run generation."""
    from repro.analysis.comparisons import comparison_budget

    result = FigureResult(
        "section-ii",
        "comp_A (run generation) vs comp_B (merge): run generation "
        "dominates whenever k < sqrt(n)",
        ["rows", "runs", "comp_A", "comp_B", "rungen_share"],
        notes="paper's example: n=1e6, k=16 -> ~80% in run generation",
    )
    for n in sizes:
        for k in thread_counts:
            budget = comparison_budget(n, k)
            result.add(
                rows=n,
                runs=k,
                comp_A=budget.run_generation,
                comp_B=budget.merge,
                rungen_share=budget.run_generation_share,
            )
    return result


# ---------------------------------------------------------------------- #
# Robustness: do the branch-misprediction claims survive a smarter
# predictor?  (Not a paper exhibit; validates the simulator substitution.)
# ---------------------------------------------------------------------- #


def robustness_predictors(num_rows: int = 1 << 11) -> FigureResult:
    """Tables II/III branch counters under 2-bit vs gshare predictors.

    The paper measures a real Xeon; our simulator defaults to per-site
    2-bit counters.  This experiment re-runs the comparator study under
    gshare to confirm the qualitative ordering (tuple-at-a-time > subsort
    > radix mispredictions) is not an artifact of the predictor model.
    """
    values = generate_key_columns(correlated_distribution(0.5), num_rows, 4)
    result = FigureResult(
        "robustness-predictors",
        "Branch mispredictions by predictor model (Correlated0.5, 4 keys)",
        ["predictor", "columnar_tuple", "columnar_subsort", "radix"],
        notes="validates the simulator substitution, not a paper exhibit",
    )
    for label, factory in (
        ("two-bit", TwoBitPredictor),
        ("gshare", GShareBranchPredictor),
    ):
        misses = {}
        for key, layout, approach, algorithm in (
            ("columnar_tuple", "columnar", "tuple", "introsort"),
            ("columnar_subsort", "columnar", "subsort", "introsort"),
            ("radix", "normalized", "radix", "introsort"),
        ):
            machine = Machine(predictor=factory())
            run = run_micro(
                values, layout, approach, algorithm, machine=machine
            )
            misses[key] = run.counters.branch_mispredictions
        result.add(predictor=label, **misses)
    return result


def thread_scalability(
    num_rows: int = 500_000,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 16, 48),
    scale_down: int = END_TO_END_SCALE,
) -> FigureResult:
    """Modelled speedup of DuckDB's pipeline with thread count.

    Not a numbered paper exhibit, but the claim behind Figure 11: run
    generation parallelizes trivially and Merge Path keeps the merge
    parallel, so the pipeline should scale close to linearly until the
    sequential fractions (final output conversion) bite.
    """
    import dataclasses

    from repro.systems.duckdb_model import DuckDBModel

    rng = np.random.default_rng(23)
    table = Table.from_numpy(
        {"x": rng.integers(0, 1 << 30, num_rows).astype(np.int32)}
    )
    spec = SortSpec.of("x")
    result = FigureResult(
        "thread-scalability",
        "DuckDB pipeline: modelled speedup vs thread count",
        ["threads", "seconds", "speedup", "efficiency"],
        notes="virtual-time model; run generation + Merge Path merging",
    )
    base_seconds = None
    for threads in thread_counts:
        profile = dataclasses.replace(
            HardwareProfile().scaled(scale_down), threads=threads
        )
        run = DuckDBModel(profile).benchmark_query(table, spec, ("x",))
        if base_seconds is None:
            base_seconds = run.seconds
        speedup = base_seconds / run.seconds
        result.add(
            threads=threads,
            seconds=run.seconds,
            speedup=speedup,
            efficiency=speedup / threads,
        )
    return result
