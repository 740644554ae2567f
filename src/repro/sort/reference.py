"""The scalar reference sort: the paper's algorithm family behind one call.

:func:`reference_sort` sorts a table the way the paper describes a
thread-local sort (Sections V-VI), one row at a time: normalize the
ORDER BY columns once (uncompressed, with a row-id suffix), sort the key
bytes with radix sort (:mod:`repro.sort.radix`) or pdqsort
(:mod:`repro.sort.pdqsort`), gather the rows.  It shares the key
encoding with the production pipeline and nothing after it -- no runs,
no merge, no vector kernels -- which is what makes it a second oracle
for that pipeline besides the tuple-key ``sorted()`` of the tests, and
the place where the algorithm choice (DuckDB's fixed rule against the
cost-based chooser of :mod:`repro.sort.heuristic`, the paper's Section
IX) is an observable decision.  Its comparison sorts cost a Python call
per comparison; :func:`repro.sort.operator.sort_table` never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SortError
from repro.keys.normalizer import NormalizedKeys, normalize_keys
from repro.sort.heuristic import choose_algorithm
from repro.sort.pdqsort import pdqsort
from repro.sort.radix import RadixStats, radix_argsort
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.sortspec import SortSpec, compare_values

__all__ = ["ALGORITHMS", "ReferenceStats", "reference_sort"]

ALGORITHMS = (None, "radix", "pdqsort", "heuristic")
"""Accepted ``algorithm`` arguments of :func:`reference_sort`."""


@dataclass
class ReferenceStats:
    """What one :func:`reference_sort` call did.

    ``algorithm`` is the sort that ran (``"radix"`` or ``"pdqsort"``),
    after the policy was resolved; ``radix`` holds the radix sort's
    pass counters (zero when pdqsort ran).
    """

    algorithm: str = ""
    radix: RadixStats = field(default_factory=RadixStats)


def _segmented_compare(raw_a, raw_b, layout, fetch_a, fetch_b) -> int:
    """Three-way compare of two normalized keys, segment by segment.

    Fixed-width segments are decided by their bytes.  A VARCHAR segment
    whose (possibly truncated) prefix bytes tie falls back to comparing
    the full string values -- fetched lazily via ``fetch_a``/``fetch_b``
    (called with the key-column ordinal) -- before any later key column is
    consulted.  This is the order DuckDB's "compare the rest of the string
    only if the prefixes are equal" implies.
    """
    for col, segment in enumerate(layout.segments):
        start = segment.offset
        stop = start + segment.total_width
        seg_a = raw_a[start:stop]
        seg_b = raw_b[start:stop]
        if seg_a != seg_b:
            return -1 if seg_a < seg_b else 1
        if segment.dtype.type_id is TypeId.VARCHAR:
            cmp = compare_values(fetch_a(col), fetch_b(col), segment.key)
            if cmp != 0:
                return cmp
    return 0


def _segmented_argsort(table: Table, keys, spec: SortSpec) -> np.ndarray:
    """Scalar pdqsort with segment-wise full-string tie-breaks.

    The per-row comparator for inexact string prefixes: what the
    production pipeline does instead with a vectorized prefix sort plus
    :func:`repro.sort.stringsort.refine_key_order`.
    """
    n = len(keys)
    matrix = keys.matrix
    raw = [matrix[i].tobytes() for i in range(n)]
    key_table = table.select(spec.column_names)
    layout = keys.layout

    def less(i: int, j: int) -> bool:
        cmp = _segmented_compare(
            raw[i],
            raw[j],
            layout,
            lambda col: key_table.column_at(col).value(i),
            lambda col: key_table.column_at(col).value(j),
        )
        if cmp != 0:
            return cmp < 0
        return raw[i][layout.key_width:] < raw[j][layout.key_width:]

    order = list(range(n))
    pdqsort(order, less)
    return np.asarray(order, dtype=np.int64)


def _choose_algorithm(
    algorithm: str | None, keys: NormalizedKeys, has_string_key: bool
) -> str:
    if algorithm == "heuristic":
        chosen = choose_algorithm(keys.matrix, keys.layout.key_width)
    elif algorithm is not None:
        chosen = algorithm
    else:
        # DuckDB's rule: pdqsort when strings are present, else radix.
        chosen = "pdqsort" if has_string_key else "radix"
    if not keys.prefix_exact:
        # Radix cannot tie-break truncated string prefixes; the only
        # exact scalar option is pdqsort with full-string comparisons.
        chosen = "pdqsort"
    return chosen


def _scalar_argsort(
    table: Table,
    keys: NormalizedKeys,
    spec: SortSpec,
    algorithm: str,
    radix_stats: RadixStats,
) -> np.ndarray:
    """Row-at-a-time sort of the normalized keys.

    Radix is stable, so only the key bytes are sorted.  pdqsort
    compares whole rows (the unique row id breaks ties); with
    truncated prefixes it walks the key *segments* instead,
    resolving a tied VARCHAR prefix on the full strings before any
    later key column is consulted.
    """
    matrix = keys.matrix
    if algorithm == "radix":
        return radix_argsort(
            matrix[:, : keys.layout.key_width],
            radix_stats,
            vector_threshold=None,
        )
    if keys.prefix_exact:
        raw = [matrix[i].tobytes() for i in range(len(matrix))]
        order = list(range(len(matrix)))
        pdqsort(order, lambda i, j: raw[i] < raw[j])
        return np.asarray(order, dtype=np.int64)
    return _segmented_argsort(table, keys, spec)


def reference_sort(
    table: Table,
    spec: SortSpec,
    algorithm: str | None = None,
    stats: ReferenceStats | None = None,
) -> Table:
    """Sort ``table`` by ``spec`` with the scalar algorithm family.

    ``algorithm`` is the policy: ``None`` applies DuckDB's rule
    (pdqsort iff a VARCHAR key is present, else radix), ``"radix"`` and
    ``"pdqsort"`` fix the choice, ``"heuristic"`` asks the cost-based
    chooser (:func:`repro.sort.heuristic.choose_algorithm`).  Whatever
    the policy, keys whose VARCHAR prefix truncates are sorted by
    pdqsort with the segment-wise full-string comparator.  The result
    is stable (ties keep input order).  ``stats``, when given, receives
    the algorithm that ran and the radix counters.
    """
    if algorithm not in ALGORITHMS:
        raise SortError(
            f"algorithm must be None, 'radix', 'pdqsort' or 'heuristic', "
            f"got {algorithm!r}"
        )
    keys = normalize_keys(table, spec, include_row_id=True)
    has_string_key = any(
        segment.dtype.type_id is TypeId.VARCHAR
        for segment in keys.layout.segments
    )
    stats = stats if stats is not None else ReferenceStats()
    stats.algorithm = _choose_algorithm(algorithm, keys, has_string_key)
    order = _scalar_argsort(table, keys, spec, stats.algorithm, stats.radix)
    return table.take(order)
