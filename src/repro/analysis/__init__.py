"""Analyses of the paper's Section II: sorting's implicit benefits (RLE and
zone maps, re-exported here) and, in :mod:`repro.analysis.comparisons`,
the comparison counts of run generation against the merge."""

from repro.analysis.compression import (
    SortingBenefit,
    ZoneMap,
    rle_compression_ratio,
    rle_runs,
    sorting_benefit,
    zone_map_selectivity,
    zone_map_stats,
)

__all__ = [
    "SortingBenefit",
    "ZoneMap",
    "rle_compression_ratio",
    "rle_runs",
    "sorting_benefit",
    "zone_map_selectivity",
    "zone_map_stats",
]
