"""Vectorized kernels over normalized-key byte matrices.

The whole point of normalized keys (paper, Section V) is that one memcmp
decides a comparison.  These kernels push that one step further: an entire
``(n, width)`` uint8 key matrix is reinterpreted so that **numpy scalar
order is memcmp order**, and then merging and sorting become single numpy
calls with zero Python-level per-row work.

The reinterpretation (:func:`void_view`) views each key row as one
structured (void) scalar whose fields are big-endian unsigned integers
covering the row -- field-by-field comparison of big-endian words is
exactly byte-wise memcmp.  On top of it:

* :func:`argsort_rows` -- stable whole-matrix argsort (one ``np.argsort``),
* :func:`cutoff_mask` / :func:`smallest_mask` -- which rows sort before
  one cutoff key, or may be among the ``count`` smallest (Top-N's filters),
* :func:`merge_indices` -- merge two sorted matrices via two
  ``np.searchsorted`` calls (O(n log m) comparisons, all in C), returning
  the gather permutation over the concatenated inputs.

Correctness requires that memcmp order over the key bytes is the intended
order, i.e. the keys' ``prefix_exact`` flag holds; callers with truncated
VARCHAR prefixes run these kernels on the prefix bytes and then repair the
byte-equal tie groups with :mod:`repro.sort.stringsort`.

The merge kernels additionally understand **offset-value coding** (Do &
Graefe, arXiv 2209.08420), adapted to whole-block operation: instead of a
per-row (offset, value) pair driving a tournament tree, each merge round
derives the number of leading uint64 words shared by *every* frontier row
(:func:`ovc_codes` / the first-vs-last induction in the merge paths) and
skips those words entirely, so duplicate-heavy keys cost one word compare --
or none at all, when the round's keys are all equal -- instead of a full
memcmp each.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SortError

__all__ = [
    "void_view",
    "argsort_rows",
    "cutoff_mask",
    "smallest_mask",
    "radix_argsort_rows",
    "RADIX_FINISH_ROWS",
    "merge_indices",
    "ovc_codes",
    "KWayBlockStats",
    "kway_merge_blocks",
]


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


def _check_matrix(matrix: np.ndarray) -> None:
    if not isinstance(matrix, np.ndarray) or matrix.dtype != np.uint8:
        raise SortError("kernels expect an (n, width) uint8 key matrix")
    if matrix.ndim != 2 or matrix.shape[1] == 0:
        raise SortError(
            f"kernels expect an (n, width) uint8 key matrix with width >= 1, "
            f"got shape {matrix.shape}"
        )


def void_view(matrix: np.ndarray) -> np.ndarray:
    """View an ``(n, width)`` uint8 matrix as ``n`` whole-row scalars.

    The returned 1-D array holds one structured (void) scalar per key row;
    numpy ``np.argsort`` and ``np.searchsorted`` over it follow memcmp
    order of the rows.  No data is copied unless the matrix is not
    C-contiguous.

    This is the semantic core of the kernel layer.  The sorting kernels
    below use the equivalent :func:`_chunk_columns` representation
    (native-endian uint64 words) instead, because numpy compares
    structured scalars through a generic field-walking routine while
    plain uint64 columns hit the type-specialized (vectorized) sort and
    search loops.
    """
    _check_matrix(matrix)
    contiguous = np.ascontiguousarray(matrix)
    return contiguous.view(_row_dtype(matrix.shape[1])).reshape(len(matrix))


def _chunk_columns(matrix: np.ndarray) -> list[np.ndarray]:
    """Decompose key rows into native uint64 words preserving memcmp order.

    Each 8-byte slice of the row (the last one zero-padded) is read as a
    big-endian word and converted to native endianness: comparing the word
    list lexicographically equals comparing the rows with memcmp, and each
    word column sorts/searches at full native-integer speed.

    The whole matrix is processed with three whole-matrix operations at
    most -- one zero-pad (only when the width is not a multiple of 8), one
    byte-swapping cast, one transpose copy -- instead of a pad + cast per
    word.  The returned word columns are contiguous views sharing a single
    backing buffer (callers and tests rely on this: re-chunking a block
    never allocates per-word temporaries).
    """
    _check_matrix(matrix)
    n, width = matrix.shape
    words = (width + 7) // 8
    if width % 8:
        padded = np.zeros((n, words * 8), dtype=np.uint8)
        padded[:, :width] = matrix
    else:
        padded = np.ascontiguousarray(matrix)
    swapped = padded.view(">u8").astype(np.uint64, copy=False)
    stacked = np.ascontiguousarray(swapped.T)
    return [stacked[word] for word in range(words)]


def argsort_rows(matrix: np.ndarray) -> np.ndarray:
    """Stable argsort of whole key rows (memcmp order), fully vectorized.

    One ``np.argsort`` for keys of at most 8 bytes, ``np.lexsort`` over
    the uint64 word columns otherwise -- both stable, both running
    type-specialized native sorts.
    """
    columns = _chunk_columns(matrix)
    if len(columns) == 1:
        order = np.argsort(columns[0], kind="stable")
    else:
        order = np.lexsort(tuple(reversed(columns)))
    return order.astype(np.int64, copy=False)


def cutoff_mask(
    matrix: np.ndarray, cutoff: np.ndarray, inclusive: bool
) -> np.ndarray:
    """Mask of key rows sorting before a cutoff key (memcmp order).

    ``cutoff`` is one key row of ``matrix``'s width.  Rows equal to it
    are selected only when ``inclusive``.  This is Top-N's pruning
    filter: the lexicographic ``<`` is evaluated word column by word
    column (``below |= tied & (word < bound)``), stopping at the first
    word that leaves no row tied with the cutoff -- on high-entropy keys
    that is the first one.
    """
    _check_matrix(matrix)
    if cutoff.shape != (matrix.shape[1],):
        raise SortError(
            f"cutoff key of shape {cutoff.shape} does not match key "
            f"width {matrix.shape[1]}"
        )
    bounds = _chunk_columns(cutoff[None, :])
    columns = _chunk_columns(matrix)
    below = columns[0] < bounds[0]
    tied = columns[0] == bounds[0]
    for column, bound in zip(columns[1:], bounds[1:]):
        if not tied.any():
            break
        below |= tied & (column < bound)
        tied &= column == bound
    return below | tied if inclusive else below


def smallest_mask(matrix: np.ndarray, count: int) -> np.ndarray:
    """Mask keeping a superset of the ``count`` smallest key rows: a row
    whose leading uint64 word exceeds the ``count``-th smallest word has
    ``count`` rows strictly before it (Top-N selects before it sorts)."""
    _check_matrix(matrix)
    words = _chunk_columns(matrix[:, :8])[0]
    return words <= np.partition(words, count - 1)[count - 1]


RADIX_FINISH_ROWS = 1 << 10
"""Spans at or below this row count are finished with :func:`argsort_rows`
over the remaining key bytes instead of further MSD partitioning."""


def radix_argsort_rows(matrix: np.ndarray, stats=None) -> np.ndarray:
    """Stable MSD radix argsort of whole key rows, fully vectorized.

    The paper's Section VI-B radix sort, with every per-row step a numpy
    primitive: the histogram of the active byte is one ``np.bincount``, and
    the stable counting-sort scatter is numpy's stable ``np.argsort`` of
    the uint8 column (which *is* a counting sort internally).  Recursion is
    an explicit stack of ``(start, stop, byte)`` spans; per span:

    * single occupied bucket -> skip-copy (no data movement), descend to
      the next byte;
    * otherwise scatter once, then split into bucket spans from the
      histogram's cumulative sum.  Adjacent small buckets are coalesced
      into one span so the finisher below amortizes across them.

    Spans of at most :data:`RADIX_FINISH_ROWS` rows (and spans at the last
    byte) are finished with :func:`argsort_rows` over the *remaining* bytes
    -- starting at the span's current byte, because a coalesced span still
    mixes leading-byte values.

    ``stats``, if given, must expose the
    :class:`repro.sort.radix.RadixStats` interface (duck-typed; this module
    cannot import :mod:`repro.sort.radix`, which imports it).  The result
    is byte-for-byte the permutation :func:`argsort_rows` returns -- both
    are stable sorts of the same rows.
    """
    _check_matrix(matrix)
    n, width = matrix.shape
    order = np.arange(n, dtype=np.int64)
    if n <= 1:
        return order
    contiguous = np.ascontiguousarray(matrix)
    stack: list[tuple[int, int, int]] = [(0, n, 0)]
    while stack:
        start, stop, byte = stack.pop()
        count = stop - start
        if count <= 1:
            continue
        if count <= RADIX_FINISH_ROWS or byte >= width - 1:
            span = order[start:stop]
            suffix = contiguous[span, byte:]
            order[start:stop] = span[argsort_rows(suffix)]
            if stats is not None:
                stats.vector_finished_buckets += 1
                stats.rows_moved += count
            continue
        column = contiguous[order[start:stop], byte]
        histogram = np.bincount(column, minlength=256)
        occupied = np.flatnonzero(histogram)
        if len(occupied) == 1:
            # Skip-copy: one bucket holds every row, no movement needed.
            if stats is not None:
                stats.record_pass(0, skipped=True)
            stack.append((start, stop, byte + 1))
            continue
        scatter = np.argsort(column, kind="stable")
        order[start:stop] = order[start:stop][scatter]
        if stats is not None:
            stats.record_pass(count, skipped=False)
        # Bucket spans from the histogram prefix sums.  Occupied buckets
        # are adjacent in the scattered order, so small neighbours can be
        # coalesced into one span for the argsort finisher.
        ends = np.cumsum(histogram)
        acc_start = acc_end = -1
        for bucket in occupied:
            bucket_end = start + int(ends[bucket])
            bucket_start = bucket_end - int(histogram[bucket])
            size = bucket_end - bucket_start
            if size > RADIX_FINISH_ROWS:
                if acc_start >= 0:
                    stack.append((acc_start, acc_end, byte))
                    acc_start = -1
                stack.append((bucket_start, bucket_end, byte + 1))
            elif acc_start < 0:
                acc_start, acc_end = bucket_start, bucket_end
            elif bucket_end - acc_start <= RADIX_FINISH_ROWS:
                acc_end = bucket_end
            else:
                stack.append((acc_start, acc_end, byte))
                acc_start, acc_end = bucket_start, bucket_end
        if acc_start >= 0:
            stack.append((acc_start, acc_end, byte))
    return order


def ovc_codes(matrix: np.ndarray) -> np.ndarray:
    """Offset-value codes of a sorted key matrix, vectorized.

    ``codes[i]`` is the index of the first uint64 word where row ``i``
    differs from row ``i - 1`` (``codes[0]`` is 0); a code equal to the
    word count marks the row as a full duplicate of its predecessor.  The
    array is the block-friendly form of Do & Graefe's per-row offset-value
    code: within a sorted run the offset alone identifies how much prefix a
    successor shares, which is what the merge paths need to skip
    already-decided words.  Computed with one adjacent-row comparison per
    word column -- no per-row Python.
    """
    _check_matrix(matrix)
    n = len(matrix)
    codes = np.zeros(n, dtype=np.uint16)
    if n < 2:
        return codes
    columns = _chunk_columns(matrix)
    words = len(columns)
    diffs = np.stack([col[1:] != col[:-1] for col in columns], axis=1)
    any_diff = diffs.any(axis=1)
    first = np.where(any_diff, np.argmax(diffs, axis=1), words)
    codes[1:] = first.astype(np.uint16)
    return codes


def _common_prefix_words(column_lists: Sequence[Sequence[np.ndarray]]) -> int:
    """Number of leading uint64 words shared by every row of every block.

    Each entry of ``column_lists`` is the word-column decomposition of one
    *sorted* block.  Word ``j`` of a sorted block is constant iff its first
    and last entries are equal, provided all words before ``j`` are
    constant -- which this loop establishes inductively -- so the check is
    O(words * k) with no row scans.  Empty blocks impose no constraint.
    """
    words = min(len(columns) for columns in column_lists)
    skip = 0
    while skip < words:
        value = None
        for columns in column_lists:
            column = columns[skip]
            if not len(column):
                continue
            if column[0] != column[-1]:
                return skip
            if value is None:
                value = column[0]
            elif column[0] != value:
                return skip
        skip += 1
    return skip


def merge_indices(
    a: np.ndarray,
    b: np.ndarray,
    stats=None,
    use_ovc: bool = True,
) -> np.ndarray:
    """Gather permutation merging two sorted key matrices.

    ``a`` and ``b`` must be row-sorted matrices of equal width.  Returns an
    int64 permutation ``perm`` of ``len(a) + len(b)`` such that
    ``np.concatenate([a, b])[perm]`` is the sorted merge.  Ties take rows
    of ``a`` first, so the merge is stable when ``a`` is the earlier run.

    With ``use_ovc`` (the default) the offset-value-coding prefix skip
    runs first: uint64 words constant and equal across both inputs
    (established by the first-vs-last induction of
    :func:`_common_prefix_words`) are excluded from the comparison, and
    when *every* word is shared -- duplicate-heavy keys -- the merge
    degenerates to ``np.arange``, no comparisons at all.  ``stats``, if
    given, must expose ``ovc_compares`` / ``ovc_ties`` counters
    (:class:`KWayBlockStats` or ``SortStats``): rows ordered through word
    comparisons count as compares, rows settled with all words equal as
    ties.

    Keys that (after the skip) span at most 8 bytes merge with two
    ``np.searchsorted`` binary searches (O(n log m) native word
    comparisons); wider keys merge with a stable ``np.lexsort`` over the
    uint64 word columns of the concatenation.  Either way the Python-level
    cost is O(1) regardless of the row count.
    """
    if a.shape[1] != b.shape[1]:
        raise SortError(
            f"cannot merge key matrices of widths {a.shape[1]} and "
            f"{b.shape[1]}"
        )
    cols_a = _chunk_columns(a)
    cols_b = _chunk_columns(b)
    n, m = len(a), len(b)
    if use_ovc and n and m:
        skip = _common_prefix_words([cols_a, cols_b])
        if skip == len(cols_a):
            # Every key in both inputs is one value: concatenation in run
            # order already is the stable merge.
            if stats is not None:
                stats.ovc_ties += n + m
            return np.arange(n + m, dtype=np.int64)
        if skip:
            cols_a = cols_a[skip:]
            cols_b = cols_b[skip:]
        if stats is not None:
            stats.ovc_compares += n + m
    if len(cols_a) == 1:
        va, vb = cols_a[0], cols_b[0]
        # Output slot of a[i]: i rows of a precede it, plus every b row
        # strictly smaller ('left' => equal b rows land after a rows).
        out_a = np.arange(n, dtype=np.int64) + np.searchsorted(
            vb, va, side="left"
        )
        # Output slot of b[j]: j rows of b precede it, plus every a row
        # smaller or equal ('right' => equal a rows land before b rows).
        out_b = np.arange(m, dtype=np.int64) + np.searchsorted(
            va, vb, side="right"
        )
        perm = np.empty(n + m, dtype=np.int64)
        perm[out_a] = np.arange(n, dtype=np.int64)
        perm[out_b] = np.arange(n, n + m, dtype=np.int64)
        return perm
    combined = tuple(
        np.concatenate([col_a, col_b])
        for col_a, col_b in zip(reversed(cols_a), reversed(cols_b))
    )
    # lexsort is stable and both halves are sorted, so this IS the merge,
    # with a's rows winning ties.
    return np.lexsort(combined).astype(np.int64, copy=False)


# ---------------------------------------------------------------------- #
# Block-streaming k-way merge
# ---------------------------------------------------------------------- #


class KWayBlockStats:
    """Counters describing one block-streaming k-way merge.

    ``peak_frontier_rows`` is the maximum number of key rows buffered
    across all run frontiers at any point -- the merge's working set, which
    stays bounded by ``k * block_rows`` no matter how large the runs are.

    ``ovc_compares`` counts rows ordered through uint64 word comparisons
    after the offset-value prefix skip; ``ovc_ties`` counts rows settled
    without any comparison -- rounds whose keys were all equal, plus rows
    whose stored offset-value code marks them as duplicates of their run
    predecessor.
    """

    __slots__ = (
        "rounds",
        "rows_emitted",
        "refills",
        "peak_frontier_rows",
        "ovc_compares",
        "ovc_ties",
    )

    def __init__(self) -> None:
        self.rounds = 0
        self.rows_emitted = 0
        self.refills = 0
        self.peak_frontier_rows = 0
        self.ovc_compares = 0
        self.ovc_ties = 0


def _count_below(
    columns: Sequence[np.ndarray], cutoff: tuple[int, ...]
) -> tuple[int, int]:
    """``(lt, le)`` counts of sorted frontier rows vs. a cutoff key.

    Progressive binary search: after narrowing on word ``j``, positions
    ``[0, lo)`` are strictly below the cutoff and ``[lo, hi)`` tie it on
    every word so far, so the final ``lo`` counts rows < cutoff and the
    final ``hi`` rows <= cutoff.  Costs O(words * log n) -- no per-row
    work.
    """
    lo, hi = 0, len(columns[0])
    for column, word in zip(columns, cutoff):
        segment = column[lo:hi]
        # np.uint64, not Python int: mixing int with a uint64 array
        # promotes to float64, which rounds words above 2**53.
        value = np.uint64(word)
        left = lo + int(np.searchsorted(segment, value, side="left"))
        right = lo + int(np.searchsorted(segment, value, side="right"))
        lo, hi = left, right
        if lo == hi:
            break
    return lo, hi


def kway_merge_blocks(
    sources: Sequence[Iterable],
    stats: KWayBlockStats | None = None,
    *,
    use_ovc: bool = True,
    emit_keys: bool = False,
) -> Iterator[tuple]:
    """Streaming k-way merge of sorted runs, one bounded block at a time.

    ``sources`` holds one iterable per run, each yielding successive
    ``(m, width)`` uint8 key-matrix blocks of that run in sorted order (all
    runs share one width) -- or ``(block, codes)`` pairs where ``codes`` is
    the block's slice of the run's :func:`ovc_codes` array (or ``None``).
    Yields ``(run_ids, row_ids)`` int64 arrays: each round's
    globally-sorted slice of the merge, where ``row_ids`` are absolute row
    positions within their run.  With ``emit_keys`` each item gains a third
    element, the round's merged key rows as an ``(m, words)`` uint64 word
    matrix (callers doing exact-string tie repair need the merged keys to
    find cross-run tie groups without re-reading the runs).

    With ``use_ovc`` (the default) each round applies the offset-value
    prefix skip before its lexsort: words constant and equal across every
    emitted prefix (first-vs-last induction, :func:`_common_prefix_words`)
    are dropped from the sort keys, and a round whose keys are all equal
    orders by run id alone -- ``np.arange``, zero comparisons.  Stored
    codes additionally feed ``stats.ovc_ties`` with the rows they prove to
    be duplicates of their run predecessor.

    Instead of a per-row tournament, every round works on the buffered
    *frontier* of each run:

    1. refill any drained frontier with its run's next block;
    2. the global **cutoff** is the smallest frontier-tail key over runs
       that still have unread blocks -- every unread row of any run is >=
       its own frontier tail >= the cutoff, so a buffered row < cutoff is
       always safe to emit, and a row == cutoff is safe in runs at or
       before the cutoff's owner (later runs must wait for the owner's
       unread equal keys, or stability would break);
    3. the counts of emittable rows per frontier are found by binary
       search (:func:`_count_below`) and the selected prefixes of all
       frontiers are ordered with one stable ``np.lexsort`` over the
       uint64 word columns (ties resolve to the earlier run, matching the
       scalar heap).

    Progress is guaranteed: the run holding the cutoff drains its whole
    frontier each round.  At most one block per run is buffered, so the
    working set never exceeds ``k * block_rows`` key rows (reported via
    ``stats.peak_frontier_rows``); per-round Python cost is O(k), with no
    per-row interpretation between refills.
    """
    iterators = [iter(source) for source in sources]
    k = len(iterators)
    # Each frontier is (word columns, ovc codes or None).
    frontiers: list[tuple[tuple[np.ndarray, ...], np.ndarray | None] | None]
    frontiers = [None] * k
    starts = [0] * k  # absolute row index of each frontier's first row
    exhausted = [False] * k

    while True:
        for index in range(k):
            if frontiers[index] is not None or exhausted[index]:
                continue
            while True:  # skip empty blocks a source may yield
                try:
                    item = next(iterators[index])
                except StopIteration:
                    exhausted[index] = True
                    break
                if isinstance(item, tuple):
                    block, codes = item
                else:
                    block, codes = item, None
                if len(block):
                    frontiers[index] = (tuple(_chunk_columns(block)), codes)
                    if stats is not None:
                        stats.refills += 1
                    break
        live = [index for index in range(k) if frontiers[index] is not None]
        if not live:
            return
        if stats is not None:
            stats.rounds += 1
            buffered = sum(len(frontiers[i][0][0]) for i in live)
            if buffered > stats.peak_frontier_rows:
                stats.peak_frontier_rows = buffered

        # Cutoff: min frontier-tail key over runs with unread blocks.
        # Fully-buffered runs impose no bound (nothing unseen remains).
        # The cutoff *owner* is the smallest such run index: its unread
        # blocks may still hold keys equal to the cutoff, so for
        # stability only runs at or before it may emit rows == cutoff;
        # later runs emit strictly-below rows this round.
        cutoff: tuple[int, ...] | None = None
        cutoff_run = -1
        for index in live:
            if exhausted[index]:
                continue
            tail = tuple(int(column[-1]) for column in frontiers[index][0])
            if cutoff is None or tail < cutoff:
                cutoff = tail
                cutoff_run = index

        emit_columns: list[tuple[np.ndarray, ...]] = []
        emit_runs: list[np.ndarray] = []
        emit_rows: list[np.ndarray] = []
        dup_rows = 0  # rows stored codes prove equal to their predecessor
        for index in live:
            columns, codes = frontiers[index]
            length = len(columns[0])
            if cutoff is None:
                take = length
            else:
                below, at_or_below = _count_below(columns, cutoff)
                take = at_or_below if index <= cutoff_run else below
            if take == 0:
                continue
            emit_columns.append(tuple(column[:take] for column in columns))
            if codes is not None:
                dup_rows += int(np.count_nonzero(codes[:take] >= len(columns)))
            emit_runs.append(np.full(take, index, dtype=np.int64))
            emit_rows.append(
                np.arange(starts[index], starts[index] + take, dtype=np.int64)
            )
            starts[index] += take
            frontiers[index] = (
                None
                if take == length
                else (
                    tuple(column[take:] for column in columns),
                    None if codes is None else codes[take:],
                )
            )

        if not emit_runs:
            # The run holding the cutoff always emits at least its tail
            # row, so an empty round means a source yielded unsorted data.
            raise SortError("k-way merge made no progress; runs not sorted?")
        words = len(emit_columns[0])
        if len(emit_runs) == 1:
            run_ids, row_ids = emit_runs[0], emit_rows[0]
            order = None
        else:
            skip = (
                _common_prefix_words(emit_columns)
                if use_ovc
                else 0
            )
            total = sum(len(rows) for rows in emit_rows)
            if skip == words:
                # Every emitted key is the same value: concatenation in
                # run order already is the stable merge.
                order = np.arange(total, dtype=np.int64)
                if stats is not None:
                    stats.ovc_ties += total
            else:
                # One stable lexsort over the selected prefixes IS the
                # k-way merge: each prefix is sorted, and concatenation in
                # run order makes ties resolve to the earlier run.  Words
                # the OVC skip decided are left out of the sort keys.
                merged = tuple(
                    np.concatenate([columns[word] for columns in emit_columns])
                    for word in reversed(range(skip, words))
                )
                order = np.lexsort(merged)
                if stats is not None:
                    stats.ovc_compares += total
            run_ids = np.concatenate(emit_runs)[order]
            row_ids = np.concatenate(emit_rows)[order]
        if stats is not None:
            stats.rows_emitted += len(run_ids)
            stats.ovc_ties += dup_rows
        if emit_keys:
            merged_words = np.stack(
                [
                    np.concatenate([columns[word] for columns in emit_columns])
                    for word in range(words)
                ],
                axis=1,
            )
            if order is not None:
                merged_words = merged_words[order]
            yield run_ids, row_ids, merged_words
        else:
            yield run_ids, row_ids
