"""Radix sorts over normalized-key byte matrices.

Because normalized keys compare correctly byte-by-byte with memcmp, they can
be sorted with a byte-by-byte radix sort (paper, Section VI-B).  Two
variants, selected exactly like DuckDB:

* **LSD** (least significant digit first): one stable counting-sort pass per
  byte, right to left.  Streaming access, O(n * k); chosen for key widths
  <= :data:`LSD_WIDTH_THRESHOLD` bytes.
* **MSD** (most significant digit first): partition by the leading byte and
  recurse into each bucket, falling back to insertion sort for buckets of
  <= :data:`INSERTION_SORT_THRESHOLD` rows.  Chosen for wider keys, where
  LSD would pay k full passes.

Both implement the paper's skip-copy optimization: a counting pass whose
rows all fall into a single bucket performs no data movement, which "helps
slightly" with long common prefixes and duplicate keys.

The functions return a permutation (argsort) rather than moving the key
matrix; callers gather keys and payload with it.  Statistics about the work
performed are reported through an optional :class:`RadixStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SortError
from repro.scalar.pdqsort import pdqsort

__all__ = [
    "LSD_WIDTH_THRESHOLD",
    "INSERTION_SORT_THRESHOLD",
    "RadixStats",
    "lsd_radix_argsort",
    "msd_radix_argsort",
    "radix_argsort",
]

LSD_WIDTH_THRESHOLD = 4
"""Use LSD radix sort for keys of at most this many bytes (DuckDB's rule)."""

INSERTION_SORT_THRESHOLD = 24
"""MSD recursion falls back to insertion sort at or below this bucket size."""


@dataclass
class RadixStats:
    """Counters describing the work one radix sort performed."""

    passes: int = 0
    skipped_passes: int = 0
    insertion_sorted_buckets: int = 0
    rows_moved: int = 0
    histogram: list[int] = field(default_factory=list)

    def record_pass(self, moved_rows: int, skipped: bool) -> None:
        self.passes += 1
        if skipped:
            self.skipped_passes += 1
        else:
            self.rows_moved += moved_rows


def _check_matrix(matrix: np.ndarray) -> None:
    if matrix.dtype != np.uint8 or matrix.ndim != 2:
        raise SortError("radix sort expects an (n, width) uint8 key matrix")


def lsd_radix_argsort(
    matrix: np.ndarray, stats: RadixStats | None = None
) -> np.ndarray:
    """Stable LSD radix argsort of the rows of a uint8 key matrix.

    One stable counting-sort pass per byte column, least significant first.
    Skips the data movement of any pass in which every row falls into the
    same bucket (the skip-copy optimization).
    """
    _check_matrix(matrix)
    n, width = matrix.shape
    order = np.arange(n, dtype=np.int64)
    if n <= 1:
        return order
    for byte_index in range(width - 1, -1, -1):
        # Skip-copy test on the *unpermuted* column view: "all rows land in
        # one bucket" is permutation-invariant, so a skipped pass performs
        # no gather at all (min/max over a strided view moves no data).
        static = matrix[:, byte_index]
        if static.min() == static.max():
            if stats is not None:
                stats.record_pass(0, skipped=True)
            continue
        column = matrix[order, byte_index]
        # A stable sort of one byte column is exactly a counting-sort pass
        # (numpy uses radix sort for stable uint8 argsort).
        order = order[np.argsort(column, kind="stable")]
        if stats is not None:
            stats.record_pass(n, skipped=False)
    return order


def _insertion_argsort_rows(
    matrix: np.ndarray, order: np.ndarray, start: int, stop: int, byte_index: int
) -> None:
    """Insertion sort ``order[start:stop]`` by key bytes from ``byte_index``.

    Small buckets at the bottom of the MSD recursion; compares row suffixes
    as Python bytes (a memcmp).
    """
    keys = {
        int(i): matrix[i, byte_index:].tobytes()
        for i in order[start:stop]
    }
    segment = sorted(order[start:stop], key=lambda i: keys[int(i)])
    order[start:stop] = segment


def _pdq_argsort_rows(
    matrix: np.ndarray, order: np.ndarray, start: int, stop: int, byte_index: int
) -> None:
    """pdqsort ``order[start:stop]`` by key-byte suffixes (memcmp).

    The paper's second future-work item: "pdqsort could be used within the
    recursive calls to MSD radix sort".  Used for buckets too large for
    insertion sort but where further byte passes would be wasteful.
    pdqsort is unstable, so the row-index tiebreak keeps the result
    deterministic and equal to the stable order.
    """
    keys = {
        int(i): (matrix[i, byte_index:].tobytes(), int(i))
        for i in order[start:stop]
    }
    segment = list(order[start:stop])
    pdqsort(segment, lambda a, b: keys[int(a)] < keys[int(b)])
    order[start:stop] = segment


def msd_radix_argsort(
    matrix: np.ndarray,
    stats: RadixStats | None = None,
    insertion_threshold: int = INSERTION_SORT_THRESHOLD,
    pdq_threshold: int | None = None,
) -> np.ndarray:
    """Stable MSD radix argsort of the rows of a uint8 key matrix.

    Partitions on the most significant byte and recurses into each bucket
    (explicit stack, so key width and skew cannot overflow Python's
    recursion limit).  Buckets of at most ``insertion_threshold`` rows are
    finished with insertion sort, like the paper's implementation.

    ``pdq_threshold`` enables the paper's future-work variant: buckets of
    at most that many rows (but above the insertion threshold) are
    finished with pdqsort on memcmp instead of further radix passes.
    """
    _check_matrix(matrix)
    n, width = matrix.shape
    order = np.arange(n, dtype=np.int64)
    if n <= 1 or width == 0:
        return order
    # Each stack entry is a (start, stop, byte_index) range still to sort.
    stack: list[tuple[int, int, int]] = [(0, n, 0)]
    while stack:
        start, stop, byte_index = stack.pop()
        count = stop - start
        if count <= 1 or byte_index >= width:
            continue
        if count <= insertion_threshold:
            _insertion_argsort_rows(matrix, order, start, stop, byte_index)
            if stats is not None:
                stats.insertion_sorted_buckets += 1
            continue
        if pdq_threshold is not None and count <= pdq_threshold:
            _pdq_argsort_rows(matrix, order, start, stop, byte_index)
            if stats is not None:
                stats.insertion_sorted_buckets += 1
            continue
        column = matrix[order[start:stop], byte_index]
        first = column[0]
        if bool((column == first).all()):
            # Skip-copy: single bucket, no movement; descend a byte.
            if stats is not None:
                stats.record_pass(0, skipped=True)
            stack.append((start, stop, byte_index + 1))
            continue
        local = np.argsort(column, kind="stable")
        order[start:stop] = order[start:stop][local]
        if stats is not None:
            stats.record_pass(count, skipped=False)
        # Find bucket boundaries and recurse into each bucket.
        sorted_column = column[local]
        boundaries = np.flatnonzero(np.diff(sorted_column)) + 1
        bucket_starts = np.concatenate(([0], boundaries))
        bucket_stops = np.concatenate((boundaries, [count]))
        if stats is not None:
            stats.histogram.append(len(bucket_starts))
        for b_start, b_stop in zip(bucket_starts, bucket_stops):
            if b_stop - b_start > 1:
                stack.append(
                    (start + int(b_start), start + int(b_stop), byte_index + 1)
                )
    return order


def radix_argsort(
    matrix: np.ndarray, stats: RadixStats | None = None
) -> np.ndarray:
    """DuckDB's algorithm choice: LSD for narrow keys, MSD otherwise."""
    _check_matrix(matrix)
    if matrix.shape[1] <= LSD_WIDTH_THRESHOLD:
        return lsd_radix_argsort(matrix, stats)
    return msd_radix_argsort(matrix, stats)
