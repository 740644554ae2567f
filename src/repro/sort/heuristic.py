"""Cost-based sorting-algorithm choice: the paper's first future-work item.

Section IX: "DuckDB uses pdqsort in its thread-local sorts when strings
are present; otherwise, it uses radix sort.  Variables other than the data
type affect the efficiency of these algorithms, for example, key size,
number of tuples, the estimated number of unique values, and other
statistics.  A heuristic that takes these variables into account could
improve the algorithm choice."

This module implements that heuristic.  It estimates, from cheap key
statistics, the work each algorithm would do:

* **radix**: the dominant cost is one counting pass per *effective* key
  byte (a byte column that is constant is skipped by the skip-copy
  optimization; low-entropy leading bytes of MSD recursion descend almost
  free).  Cost ~ n * effective_bytes.
* **pdqsort + memcmp**: ~1.1 n log2(n) comparisons, each reading about
  ``decided_words`` 8-byte words, discounted when duplicate keys let
  pdqsort's partition_left finish equal runs early.

``choose_algorithm`` returns the cheaper one; ``KeyStatistics.measure``
computes the inputs from a (sampled) normalized-key matrix in vectorized
numpy.  The ablation benchmark ``bench_ablation_heuristic`` compares the
heuristic against both fixed choices on workloads where they disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import SortError
from repro.sort import kernels

__all__ = [
    "KeyStatistics",
    "CostEstimate",
    "choose_algorithm",
    "vector_sort_rows",
]

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
            step = n // SAMPLE_LIMIT
            prefix = prefix[::step][:SAMPLE_LIMIT]
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


def vector_sort_rows(
    matrix: np.ndarray, key_bytes: int, sort_stats=None
) -> np.ndarray:
    """The run sort: stable argsort of key rows by their leading
    ``key_bytes`` (:func:`repro.sort.kernels.argsort_rows`).

    A row-id suffix past ``key_bytes`` ascends with the row index, so the
    stable sort of the key bytes alone is the memcmp order of the whole
    rows.  ``sort_stats``, if given, receives ``sort_passes`` /
    ``sort_tied_rows`` (:class:`repro.sort.operator.SortStats`).
    """
    return kernels.argsort_rows(matrix[:, :key_bytes], sort_stats)
