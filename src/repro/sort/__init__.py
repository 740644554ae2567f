"""Sorting: algorithms, merge machinery, and the relational sort operator."""

from repro.sort.analysis import (
    ComparisonBudget,
    comparison_budget,
    crossover_runs,
    merge_comparisons,
    run_generation_comparisons,
    run_generation_share,
)
from repro.sort.external import (
    ExternalSortOperator,
    InMemoryRun,
    SpilledRun,
)
from repro.sort.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultStats,
    InjectedFault,
    SpillIO,
)
from repro.sort.incremental import (
    IncrementalSorter,
    IncrementalStats,
)
from repro.sort.heuristic import (
    KeyStatistics,
    choose_algorithm,
    estimate_costs,
    vector_sort_rows,
)
from repro.sort.introsort import IntroStats, intro_argsort, introsort
from repro.sort.kernels import (
    KWayBlockStats,
    argsort_rows,
    cutoff_mask,
    kway_merge_blocks,
    merge_indices,
    void_view,
)
from repro.sort.merge_path import (
    merge_partitioned,
    merge_path_partition,
    merge_path_partitions,
)
from repro.sort.mergesort import MergeStats, merge_argsort, merge_runs, merge_sort
from repro.sort.operator import (
    SortConfig,
    SortOperator,
    SortStats,
    make_sort_operator,
    sort_table,
)
from repro.sort.pdqsort import PdqStats, pdq_argsort, pdqsort
from repro.sort.spillfile import SpillHeader, build_header, read_header
from repro.sort.radix import (
    INSERTION_SORT_THRESHOLD,
    LSD_WIDTH_THRESHOLD,
    VECTOR_FINISH_THRESHOLD,
    RadixStats,
    lsd_radix_argsort,
    msd_radix_argsort,
    radix_argsort,
)
from repro.sort.reference import ReferenceStats, reference_sort
from repro.sort.topn import TopNOperator, top_n

__all__ = [
    "ComparisonBudget",
    "comparison_budget",
    "crossover_runs",
    "merge_comparisons",
    "run_generation_comparisons",
    "run_generation_share",
    "ExternalSortOperator",
    "InMemoryRun",
    "SpilledRun",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultStats",
    "InjectedFault",
    "SpillIO",
    "SpillHeader",
    "build_header",
    "read_header",
    "KeyStatistics",
    "choose_algorithm",
    "estimate_costs",
    "vector_sort_rows",
    "IncrementalSorter",
    "IncrementalStats",
    "IntroStats",
    "intro_argsort",
    "introsort",
    "KWayBlockStats",
    "argsort_rows",
    "cutoff_mask",
    "kway_merge_blocks",
    "merge_indices",
    "void_view",
    "merge_partitioned",
    "merge_path_partition",
    "merge_path_partitions",
    "MergeStats",
    "merge_argsort",
    "merge_runs",
    "merge_sort",
    "SortConfig",
    "SortOperator",
    "SortStats",
    "make_sort_operator",
    "sort_table",
    "PdqStats",
    "pdq_argsort",
    "pdqsort",
    "INSERTION_SORT_THRESHOLD",
    "LSD_WIDTH_THRESHOLD",
    "VECTOR_FINISH_THRESHOLD",
    "RadixStats",
    "lsd_radix_argsort",
    "msd_radix_argsort",
    "radix_argsort",
    "ReferenceStats",
    "reference_sort",
    "TopNOperator",
    "top_n",
]
