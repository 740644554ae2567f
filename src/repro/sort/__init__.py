"""The relational sort pipeline: normalize the keys, sort each run, merge.

The operators (:class:`SortOperator`, :class:`ExternalSortOperator`,
:class:`TopNOperator`, :class:`IncrementalSorter`), the run-sort and
merge kernels, and the spill files and fault injection around them.  The
paper's scalar algorithms live beside it in :mod:`repro.scalar`.
"""

from repro.sort.external import ExternalSortOperator, InMemoryRun, SpilledRun
from repro.sort.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultStats,
    InjectedFault,
    SpillIO,
)
from repro.sort.incremental import IncrementalSorter, IncrementalStats
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import (
    KWayBlockStats,
    argsort_rows,
    kway_merge_blocks,
    merge_indices,
)
from repro.sort.operator import (
    SortConfig,
    SortOperator,
    SortStats,
    make_sort_operator,
    sort_table,
)
from repro.sort.spillfile import SpillExtent, build_extent
from repro.sort.topn import TopNOperator, top_n

__all__ = [
    "ExternalSortOperator",
    "InMemoryRun",
    "SpilledRun",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultStats",
    "InjectedFault",
    "SpillIO",
    "SpillExtent",
    "build_extent",
    "vector_sort_rows",
    "IncrementalSorter",
    "IncrementalStats",
    "KWayBlockStats",
    "argsort_rows",
    "kway_merge_blocks",
    "merge_indices",
    "SortConfig",
    "SortOperator",
    "SortStats",
    "make_sort_operator",
    "sort_table",
    "TopNOperator",
    "top_n",
]
