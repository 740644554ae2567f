"""Vectorized kernels over normalized keys: byte matrices and uint64 words.

The whole point of normalized keys (paper, Section V) is that one memcmp
decides a comparison.  These kernels push that one step further: a key
is a row of big-endian uint64 *words* (word ``w`` is key bytes ``[8w,
8w + 8)``), so **numpy scalar order is memcmp order**, and merging and
sorting become single numpy calls with zero Python-level per-row work.

Resident runs hold their keys as such word columns
(:func:`repro.keys.normalizer.key_words`); a key-byte matrix (a spilled
block, Top-N's keys) is read as words by :func:`_chunk_columns` or, word
by word on first use, ``_MatrixWords``.  On top of them:

* :func:`argsort_words` / :func:`argsort_rows` -- the one stable
  whole-row sort: key bits and row position packed into one uint64 and
  sorted *by value*, ties refined bit chunk by bit chunk (run generation,
  Top-N, refinement and every k-way merge round go through it),
* :func:`cutoff_mask` / :func:`smallest_mask` -- which rows sort before
  one cutoff key, or may be among the ``count`` smallest (Top-N's filters),
* :func:`kway_merge_blocks` -- the production merge over word blocks:
  block-streaming, one stable sort of the emittable frontier rows per
  round (the two-run :func:`merge_indices` and :func:`ovc_codes` have no
  caller and stay only because ``benchmarks/e2e`` binds them).

Correctness requires that memcmp order over the key bytes is the intended
order, i.e. the keys' ``prefix_exact`` flag holds; callers with truncated
VARCHAR prefixes run these kernels on the prefix bytes and then repair the
byte-equal tie groups with :mod:`repro.sort.stringsort`.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SortError

__all__ = [
    "void_view",
    "argsort_rows",
    "argsort_words",
    "cutoff_mask",
    "smallest_mask",
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
    never allocates per-word temporaries).  The merge runs it at the spill
    boundary: a key block read from a spill file becomes words once, here.
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


LEXSORT_FINISH_ROWS = 1 << 10
"""Inputs and tie sets of at most this many rows finish with one
``np.lexsort`` call instead of further packed passes (the paper's MSD
radix finishes small buckets with insertion sort): a packed pass costs
~20 us before it touches a row and 60-90 us once it has ties to book,
a lexsort of a few hundred rows 10-30 us in all (Top-N compacts 100-800
survivors at a time).  Measured crossover, 5- to 40-byte keys: 128-1,536
rows when the pass leaves no ties, 1,024-4,096 when every row ties."""

_PACK_BITS = 64
"""Bits of one packed sort word, ``[tie group | key bits | position]``."""


class _MatrixWords:
    """A key matrix's word columns (:func:`_chunk_columns`), each converted
    on first use: a sort whose first pass leaves no ties reads word 0 only."""

    def __init__(self, matrix: np.ndarray) -> None:
        _check_matrix(matrix)
        self._matrix = matrix
        self._columns: list = [None] * ((matrix.shape[1] + 7) // 8)

    def __len__(self) -> int:
        return len(self._columns)

    def __getitem__(self, word: int) -> np.ndarray:
        column = self._columns[word]
        if column is None:
            matrix = self._matrix
            # The last word of a width that is no multiple of 8 is read
            # as the row's final 8 bytes, shifted to drop the overlap.
            offset = min(8 * word, matrix.shape[1] - 8)
            if offset < 0 or matrix.strides[1] != 1:
                offset = 8 * word
                piece = matrix[:, offset : offset + 8]
                chunk = np.zeros((len(matrix), 8), dtype=np.uint8)
                chunk[:, : piece.shape[1]] = piece
            else:
                chunk = matrix[:, offset : offset + 8]
            # A strided (n, 8) byte window views as (n, 1) big-endian words
            # without a copy; the cast swaps and compacts in one go.
            column = chunk.view(">u8")[:, 0].astype(np.uint64)
            if offset < 8 * word:
                column <<= np.uint64(8 * (8 * word - offset))
            self._columns[word] = column
        return column


def _packed_pass(
    packed: np.ndarray, take: int, index_bits: int, groups: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Sort positions by the top ``take`` bits of ``packed`` (overwritten).

    Key bits and position (and the tie-group id above them, when given)
    share one uint64, so ``np.sort`` *by value* is the argsort: it moves
    what it compares, and packed words are unique, so it is stable.
    Returns the sorted positions and, per adjacent pair, whether they tie.
    """
    packed >>= np.uint64(64 - take)
    packed <<= np.uint64(index_bits)
    if groups is not None:
        packed |= groups << np.uint64(index_bits + take)
    packed |= np.arange(len(packed), dtype=np.uint64)
    packed.sort()
    order = (packed & np.uint64((1 << index_bits) - 1)).view(np.int64)
    packed >>= np.uint64(index_bits)
    return order, packed[1:] == packed[:-1]


def _split_groups(
    columns: Sequence[np.ndarray],
    first_word: int,
    rows: np.ndarray,
    heads: np.ndarray,
) -> np.ndarray | None:
    """Mask of tied ``rows`` whose tie group differs on a word from
    ``first_word`` on; ``None`` when every group does.

    One adjacent compare per word: a group equal on every remaining word
    is already in its final (input) order, and without this check
    full-duplicate keys wider than one pass ride through every later pass.
    """
    starts = np.flatnonzero(heads)
    split = np.zeros(len(starts), dtype=bool)
    differs = np.zeros(len(rows), dtype=bool)
    for word in range(first_word, len(columns)):
        values = columns[word][rows]
        np.not_equal(values[1:], values[:-1], out=differs[1:])
        differs[starts] = False  # a group's first row differs from no one
        split |= np.logical_or.reduceat(differs, starts)
        if split.all():
            return None
    return split[np.cumsum(heads) - 1]


def argsort_words(columns: Sequence[np.ndarray], stats=None) -> np.ndarray:
    """Stable argsort of rows given as uint64 word columns, most
    significant first (memcmp order of the rows they decompose).

    Each pass packs the next chunk of key bits above the row's position
    into one uint64 and sorts by value (:func:`_packed_pass`); rows whose
    chunks tie are refined on the next chunk inside their tie group only,
    the group id packed above the key bits.  A pass starts at the first
    bit that varies over the rows it sorts (min XOR max of the word), so
    constant leading bytes and whole constant words cost nothing, and runs
    on into the next word when this one has fewer bits left than fit.

    Three exits: no ties left; the tie groups that remain are full
    duplicates (:func:`_split_groups`, checked once, after the first
    pass); a tie set of at most :data:`LEXSORT_FINISH_ROWS` rows -- or one
    with no room for a key bit beside its group and position bits --
    finishes with one ``np.lexsort``.

    ``stats``, if given, must expose ``sort_passes`` (sort calls made)
    and ``sort_tied_rows`` (rows the first pass left tied).
    """
    words, count = len(columns), len(columns[0])
    order = None
    # The rows still tied, in current order, the slots of ``order`` they
    # fill and their tie-group ids; None at first: every row, one group.
    rows = slots = groups = None
    group_count, bit, passes, first_tied = 1, 0, 0, 0
    while count > 1 and bit < 64 * words:
        word, used = divmod(bit, 64)
        index_bits = (count - 1).bit_length()
        key_bits = _PACK_BITS - (group_count - 1).bit_length() - index_bits
        if count <= LEXSORT_FINISH_ROWS or key_bits < 1:
            keys = [
                columns[w] if rows is None else columns[w][rows]
                for w in range(words - 1, word - 1, -1)
            ]
            if groups is not None:
                keys.append(groups)
            perm = np.lexsort(keys).astype(np.int64, copy=False)
            same, bit = None, 64 * words
        else:
            values = columns[word] if rows is None else columns[word][rows]
            if used:  # drop the bits earlier passes sorted (a fresh gather)
                values <<= np.uint64(used)
            span = int(values.min()) ^ int(values.max())
            if not span:
                bit = 64 * (word + 1)
                continue
            skip = 64 - span.bit_length()
            window = values << np.uint64(skip)
            take = 64 - used - skip
            if take < key_bits and word + 1 < words:
                # Fill the bits the two shifts vacated from the next word.
                following = columns[word + 1]
                if rows is not None:
                    following = following[rows]
                window |= following >> np.uint64(take)
                take = 64
            take = min(take, key_bits)
            perm, same = _packed_pass(
                window, take, index_bits, groups if group_count > 1 else None
            )
            bit += skip + take
        passes += 1
        rows = perm if rows is None else rows[perm]
        if slots is None:
            order = rows
        else:
            order[slots] = rows
        if bit == 64 * words or not same.any():
            break
        heads = np.concatenate(([True], ~same))  # first row of its group
        tied = ~heads
        tied[:-1] |= same
        at = np.flatnonzero(tied)
        rows, heads = rows[at], heads[at]
        slots = at if slots is None else slots[at]
        if passes == 1:
            first_tied = len(at)
            split = _split_groups(columns, bit // 64, rows, heads)
            if split is not None:
                rows, slots, heads = rows[split], slots[split], heads[split]
        count = len(rows)
        groups = (np.cumsum(heads) - 1).astype(np.uint64)
        group_count = int(groups[-1]) + 1 if count else 1
    if stats is not None:
        stats.sort_passes += passes
        stats.sort_tied_rows += first_tied
    if order is None:  # at most one row, or every word constant
        order = np.arange(len(columns[0]), dtype=np.int64)
    return order


def argsort_rows(matrix: np.ndarray, stats=None) -> np.ndarray:
    """Stable argsort of whole key rows (memcmp order), fully vectorized:
    :func:`argsort_words` over the matrix's lazily converted words."""
    return argsort_words(_MatrixWords(matrix), stats)


def cutoff_mask(
    matrix: np.ndarray, cutoff: np.ndarray, inclusive: bool
) -> np.ndarray:
    """Mask of key rows sorting before a cutoff key (memcmp order).

    ``cutoff`` is one key row of ``matrix``'s width.  Rows equal to it
    are selected only when ``inclusive``.  This is Top-N's pruning
    filter: the lexicographic ``<`` is evaluated word column by word
    column (``below |= tied & (word < bound)``), stopping at the first
    word that leaves no row tied with the cutoff -- on high-entropy keys
    that is the first one, and the only one converted.
    """
    columns = _MatrixWords(matrix)
    if cutoff.shape != (matrix.shape[1],):
        raise SortError(
            f"cutoff key of shape {cutoff.shape} does not match key "
            f"width {matrix.shape[1]}"
        )
    bounds = _chunk_columns(cutoff[None, :])
    below = columns[0] < bounds[0]
    tied = columns[0] == bounds[0]
    for word in range(1, len(bounds)):
        if not tied.any():
            break
        below |= tied & (columns[word] < bounds[word])
        tied &= columns[word] == bounds[word]
    return below | tied if inclusive else below


def smallest_mask(matrix: np.ndarray, count: int) -> np.ndarray:
    """Mask keeping a superset of the ``count`` smallest key rows: a row
    whose leading uint64 word exceeds the ``count``-th smallest word has
    ``count`` rows strictly before it (Top-N selects before it sorts)."""
    words = _MatrixWords(matrix)[0]
    return words <= np.partition(words, count - 1)[count - 1]


def ovc_codes(matrix: np.ndarray) -> np.ndarray:
    """Offset-value codes of a sorted key matrix: per row, the index of
    the first uint64 word that differs from the row before (0 for row 0,
    the word count for a full duplicate).  Uncalled: bound by
    ``benchmarks/e2e``, goes with ROADMAP item A."""
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


def merge_indices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gather permutation merging two sorted key matrices.  Uncalled:
    bound by ``benchmarks/e2e``, goes with ROADMAP item A.

    ``a`` and ``b`` must be row-sorted matrices of equal width.  Returns an
    int64 permutation ``perm`` of ``len(a) + len(b)`` such that
    ``np.concatenate([a, b])[perm]`` is the sorted merge.  Ties take rows
    of ``a`` first, so the merge is stable when ``a`` is the earlier run.

    Keys that span at most 8 bytes merge with two ``np.searchsorted``
    binary searches (O(n log m) native word comparisons); wider keys merge
    with a stable ``np.lexsort`` over the uint64 word columns of the
    concatenation.  Either way the Python-level cost is O(1) regardless of
    the row count.
    """
    if a.shape[1] != b.shape[1]:
        raise SortError(
            f"cannot merge key matrices of widths {a.shape[1]} and "
            f"{b.shape[1]}"
        )
    cols_a = _chunk_columns(a)
    cols_b = _chunk_columns(b)
    n, m = len(a), len(b)
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
    """

    __slots__ = ("rounds", "rows_emitted", "refills", "peak_frontier_rows")

    def __init__(self) -> None:
        self.rounds = 0
        self.rows_emitted = 0
        self.refills = 0
        self.peak_frontier_rows = 0


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
    sources: Sequence[Iterable[np.ndarray]],
    stats: KWayBlockStats | None = None,
    *,
    emit_keys: bool = False,
) -> Iterator[tuple]:
    """Streaming k-way merge of sorted runs, one bounded block at a time.

    ``sources`` holds one iterable per run, each yielding successive key
    blocks of that run in sorted order, as uint64 word columns (all runs
    share one word count): a resident run's words as they are, a spilled
    block's bytes converted once at read (:func:`_chunk_columns`).
    Yields one ``(order, spans)`` pair per round, the round's
    globally-sorted slice of the merge: ``spans`` lists, ascending by run,
    one ``(run, lo, hi)`` per contributing run -- the contiguous rows
    ``[lo, hi)`` of that run (absolute positions), all cut from the block
    the run delivered last -- and ``order`` is the int64 permutation that
    puts the spans' rows, concatenated as listed, into merge order (one
    entry per emitted row; the identity when a single run contributes).
    With ``emit_keys`` each item gains a third element, the round's
    merged key word columns (callers doing exact-string tie repair need
    the merged keys to find cross-run tie groups without re-reading the
    runs).

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
       frontiers are ordered with one stable :func:`argsort_words` over
       the uint64 word columns (ties resolve to the earlier run; words
       and leading bits the round's rows share cost it nothing).

    Progress is guaranteed: the run holding the cutoff drains its whole
    frontier each round.  At most one block per run is buffered, so the
    working set never exceeds ``k * block_rows`` key rows (reported via
    ``stats.peak_frontier_rows``); per-round Python cost is O(k), with no
    per-row interpretation between refills.
    """
    iterators = [iter(source) for source in sources]
    k = len(iterators)
    # Each frontier is its block's unemitted rows as uint64 word columns.
    frontiers: list[tuple[np.ndarray, ...] | None] = [None] * k
    starts = [0] * k  # absolute row index of each frontier's first row
    exhausted = [False] * k

    while True:
        for index in range(k):
            if frontiers[index] is not None or exhausted[index]:
                continue
            # Skip empty blocks a source may yield.
            block = next((b for b in iterators[index] if len(b[0])), None)
            if block is None:
                exhausted[index] = True
                continue
            frontiers[index] = tuple(block)
            if stats is not None:
                stats.refills += 1
        live = [index for index in range(k) if frontiers[index] is not None]
        if not live:
            return
        if stats is not None:
            stats.rounds += 1
            buffered = sum(len(frontiers[i][0]) for i in live)
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
            tail = tuple(int(column[-1]) for column in frontiers[index])
            if cutoff is None or tail < cutoff:
                cutoff = tail
                cutoff_run = index

        emit_columns: list[tuple[np.ndarray, ...]] = []
        spans: list[tuple[int, int, int]] = []
        for index in live:
            columns = frontiers[index]
            length = len(columns[0])
            if cutoff is None:
                take = length
            else:
                below, at_or_below = _count_below(columns, cutoff)
                take = at_or_below if index <= cutoff_run else below
            if take == 0:
                continue
            emit_columns.append(tuple(column[:take] for column in columns))
            spans.append((index, starts[index], starts[index] + take))
            starts[index] += take
            frontiers[index] = (
                None
                if take == length
                else tuple(column[take:] for column in columns)
            )

        if not spans:
            # The run holding the cutoff always emits at least its tail
            # row, so an empty round means a source yielded unsorted data.
            raise SortError("k-way merge made no progress; runs not sorted?")
        several = len(spans) > 1
        if several:
            # One stable sort over the selected prefixes IS the k-way
            # merge: each prefix is sorted, and concatenation in run
            # order makes ties resolve to the earlier run.
            merged = [np.concatenate(word) for word in zip(*emit_columns)]
            order = argsort_words(merged)
        else:  # one contributing run needs no merge
            merged = emit_columns[0]
            order = np.arange(len(merged[0]), dtype=np.int64)
        if stats is not None:
            stats.rows_emitted += len(order)
        if emit_keys:
            if several:
                merged = [word[order] for word in merged]
            yield order, spans, merged
        else:
            yield order, spans
