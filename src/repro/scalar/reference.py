"""The scalar reference sort: the paper's algorithm family behind one call.

:func:`reference_sort` sorts a table the way the paper describes a
thread-local sort (Sections V-VI), one row at a time: normalize the
ORDER BY columns once (uncompressed, with a row-id suffix), sort the key
bytes with radix sort (:mod:`repro.scalar.radix`) or pdqsort
(:mod:`repro.scalar.pdqsort`), gather the rows.  It shares the key
encoding with the production pipeline and nothing after it -- no runs,
no merge, no vector kernels -- which is what makes it a second oracle
for that pipeline besides the tuple-key ``sorted()`` of the tests, and
the place where the algorithm choice is an observable decision.  Its
comparison sorts cost a Python call per comparison;
:func:`repro.sort.operator.sort_table` never calls it.

The choice is DuckDB's fixed rule or the paper's first future-work item
(Section IX): "DuckDB uses pdqsort in its thread-local sorts when strings
are present; otherwise, it uses radix sort.  Variables other than the
data type affect the efficiency of these algorithms, for example, key
size, number of tuples, the estimated number of unique values, and other
statistics.  A heuristic that takes these variables into account could
improve the algorithm choice."  :func:`choose_algorithm` is that
heuristic: it estimates, from cheap key statistics
(:class:`KeyStatistics`), the work each algorithm would do:

* **radix**: the dominant cost is one counting pass per *effective* key
  byte (a byte column that is constant is skipped by the skip-copy
  optimization; low-entropy leading bytes of MSD recursion descend almost
  free).  Cost ~ n * effective_bytes.
* **pdqsort + memcmp**: ~1.1 n log2(n) comparisons, each reading about
  ``decided_words`` 8-byte words, discounted when duplicate keys let
  pdqsort's partition_left finish equal runs early.

The ablation benchmark ``bench_ablation_heuristic`` compares the
heuristic against both fixed choices on workloads where they disagree.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SortError
from repro.keys.normalizer import NormalizedKeys, normalize_keys
from repro.scalar.pdqsort import pdqsort
from repro.scalar.radix import RadixStats, radix_argsort
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.sortspec import SortSpec, compare_values

__all__ = [
    "ALGORITHMS",
    "CostEstimate",
    "KeyStatistics",
    "ReferenceStats",
    "choose_algorithm",
    "estimate_costs",
    "reference_sort",
    "void_view",
]

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


SAMPLE_LIMIT = 1 << 14
"""Statistics are measured on at most this many evenly spaced rows."""


@dataclass(frozen=True)
class KeyStatistics:
    """Cheap statistics of a normalized-key matrix.

    Attributes:
        num_rows: rows in the (full) input.
        key_bytes: width of the key prefix in bytes (row id excluded).
        effective_bytes: byte positions that actually vary (non-constant
            columns of the matrix) -- the passes radix cannot skip.
        duplicate_fraction: fraction of sampled rows whose whole key is a
            duplicate of another sampled row.
        distinct_ratio: distinct sampled keys / sampled rows.
    """

    num_rows: int
    key_bytes: int
    effective_bytes: int
    duplicate_fraction: float
    distinct_ratio: float

    @classmethod
    def measure(cls, matrix: np.ndarray, key_bytes: int | None = None) -> "KeyStatistics":
        """Measure statistics from an (n, w) uint8 key matrix.

        ``key_bytes`` restricts the analysis to the leading key prefix
        (pass ``layout.key_width`` to exclude a row-id suffix).
        """
        if matrix.dtype != np.uint8 or matrix.ndim != 2:
            raise SortError("expected an (n, width) uint8 key matrix")
        n, width = matrix.shape
        if key_bytes is None:
            key_bytes = width
        if not 0 < key_bytes <= width:
            raise SortError(f"key_bytes {key_bytes} out of range 1..{width}")
        prefix = matrix[:, :key_bytes]
        if n == 0:
            return cls(0, key_bytes, 0, 0.0, 1.0)
        if n > SAMPLE_LIMIT:
            prefix = prefix[np.arange(SAMPLE_LIMIT) * n // SAMPLE_LIMIT]
        sampled = len(prefix)
        varying = int(
            np.count_nonzero(np.any(prefix != prefix[0], axis=0))
        )
        # Distinct sampled keys via a lexicographic sort of packed rows.
        padded_width = (key_bytes + 7) // 8 * 8
        padded = np.zeros((sampled, padded_width), dtype=np.uint8)
        padded[:, :key_bytes] = prefix
        packed = padded.view(">u8")
        order = np.lexsort(
            tuple(packed[:, c] for c in range(packed.shape[1] - 1, -1, -1))
        )
        rows = packed[order]
        if sampled > 1:
            changed = np.any(rows[1:] != rows[:-1], axis=1)
            distinct = int(changed.sum()) + 1
        else:
            distinct = sampled
        duplicate_fraction = 1.0 - distinct / sampled if sampled else 0.0
        return cls(
            num_rows=n,
            key_bytes=key_bytes,
            effective_bytes=varying,
            duplicate_fraction=duplicate_fraction,
            distinct_ratio=distinct / sampled if sampled else 1.0,
        )


@dataclass(frozen=True)
class CostEstimate:
    """Modelled per-algorithm work and the resulting decision."""

    radix_cost: float
    pdqsort_cost: float

    @property
    def choice(self) -> str:
        return "radix" if self.radix_cost <= self.pdqsort_cost else "pdqsort"


# Calibrated per-unit weights (simulated-cycle scale; ratios matter).
_RADIX_PASS_COST = 14.0  # byte read + count update + row move per pass
_PDQ_COMPARE_BASE = 12.0  # memcmp word(s) + branch per comparison
_PDQ_WORD_COST = 2.0  # extra cost per additional 8-byte word examined


def estimate_costs(stats: KeyStatistics) -> CostEstimate:
    """Model the run-sort cost of both algorithms from key statistics."""
    n = max(stats.num_rows, 1)
    # Radix: one histogram+scatter pass per varying byte (skip-copy makes
    # constant bytes free); duplicates shorten MSD recursion, modelled as
    # a discount proportional to the duplicate mass.
    passes = max(1, stats.effective_bytes)
    radix = n * passes * _RADIX_PASS_COST * (1.0 - 0.3 * stats.duplicate_fraction)
    # pdqsort: ~1.1 n log2 n comparisons; partition_left removes most of
    # the work for duplicate-heavy inputs (sorting d distinct values costs
    # about n log2(d)).
    distinct = max(2.0, stats.distinct_ratio * n)
    comparisons = 1.1 * n * math.log2(min(n, distinct) + 1)
    words = max(1.0, stats.key_bytes / 8.0)
    pdq = comparisons * (_PDQ_COMPARE_BASE + (words - 1.0) * _PDQ_WORD_COST)
    return CostEstimate(radix_cost=radix, pdqsort_cost=pdq)


def choose_algorithm(
    matrix: np.ndarray, key_bytes: int | None = None
) -> str:
    """Pick ``"radix"`` or ``"pdqsort"`` for a normalized-key matrix."""
    stats = KeyStatistics.measure(matrix, key_bytes)
    return estimate_costs(stats).choice


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
        return radix_argsort(matrix[:, : keys.layout.key_width], radix_stats)
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
    chooser (:func:`choose_algorithm`).  Whatever
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


@functools.lru_cache(maxsize=None)
def _row_dtype(width: int) -> np.dtype:
    """Structured dtype of ``width`` bytes whose order is memcmp order.

    The row is covered greedily with big-endian unsigned fields (8, 4, 2,
    then 1 bytes wide); lexicographic comparison of big-endian words equals
    byte-wise comparison, and numpy compares structured scalars field by
    field in declaration order.
    """
    fields = []
    remaining = width
    while remaining:
        for chunk in (8, 4, 2, 1):
            if chunk <= remaining:
                fields.append((f"b{len(fields)}", f">u{chunk}"))
                remaining -= chunk
                break
    return np.dtype(fields)


def void_view(matrix: np.ndarray) -> np.ndarray:
    """View an ``(n, width)`` uint8 matrix as ``n`` whole-row scalars.

    The returned 1-D array holds one structured (void) scalar per key row;
    numpy ``np.argsort`` and ``np.searchsorted`` over it follow memcmp
    order of the rows.  No data is copied unless the matrix is not
    C-contiguous.  The kernel tests' memcmp reference (numpy compares
    structured scalars field by field, uint64 word columns in its
    vectorized loops).
    """
    shape = getattr(matrix, "shape", ())
    uint8 = getattr(matrix, "dtype", None) == np.uint8
    if not uint8 or len(shape) != 2 or not shape[1]:
        raise SortError(f"need an (n, width >= 1) uint8 key matrix: {shape}")
    contiguous = np.ascontiguousarray(matrix)
    return contiguous.view(_row_dtype(matrix.shape[1])).reshape(len(matrix))
