"""Vectorized kernels over normalized keys: byte matrices and uint64 words.

The whole point of normalized keys (paper, Section V) is that one memcmp
decides a comparison.  These kernels push that one step further: a key
is a row of big-endian uint64 *words* (word ``w`` is key bytes ``[8w,
8w + 8)``), so **numpy scalar order is memcmp order**, and merging and
sorting become single numpy calls with zero Python-level per-row work.

Runs hold their keys as such word columns
(:func:`repro.keys.normalizer.key_words`), a spill file as word rows; a
key-byte matrix is read as words by :func:`_chunk_columns` or, word by
word on first use, ``_MatrixWords``.  On top of them:

* :func:`argsort_words` / :func:`argsort_rows` -- the one stable
  whole-row sort: key bits and row position packed into one uint64 and
  sorted *by value*, ties refined bit chunk by bit chunk (run generation,
  Top-N and every k-way merge round go through it),
* :func:`kway_merge_blocks` -- the production merge over word blocks:
  block-streaming, one stable sort of the emittable frontier rows per
  round (the two-run :func:`merge_indices` and :func:`ovc_codes` have no
  caller and stay only because ``benchmarks/e2e`` binds them).

Memcmp order over the key bytes must be the intended order (the keys'
``prefix_exact``); callers with truncated VARCHAR prefixes repair the
byte-equal tie groups with :mod:`repro.sort.stringsort`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SortError

__all__ = [
    "argsort_rows",
    "argsort_words",
    "merge_indices",
    "ovc_codes",
    "KWayBlockStats",
    "kway_merge_blocks",
]


def _check_matrix(matrix: np.ndarray) -> None:
    shape = getattr(matrix, "shape", ())
    uint8 = getattr(matrix, "dtype", None) == np.uint8
    if not uint8 or len(shape) != 2 or not shape[1]:
        raise SortError(f"need an (n, width >= 1) uint8 key matrix: {shape}")


def _chunk_columns(matrix: np.ndarray) -> list[np.ndarray]:
    """Decompose key rows into native uint64 words preserving memcmp order.

    Each 8-byte slice of the row (the last one zero-padded) is read as a
    big-endian word and converted to native endianness: comparing the word
    list lexicographically equals comparing the rows with memcmp, and each
    word column sorts/searches at full native-integer speed.

    At most three whole-matrix operations (a zero-pad when the width is
    no multiple of 8, a byte-swapping cast, a transpose copy); the word
    columns are contiguous views of one buffer.  No engine stage calls
    it: the byte-matrix kernels below and the tests do.
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
a lexsort of a few hundred rows 10-30 us in all (Top-N sorts 100-800
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


_BLOCK_ROWS = 1 << 14  # rows per block of a pass's position OR, tie test


def _packed_pass(
    packed: np.ndarray, take: int, index_bits: int, groups: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Sort positions by the top ``take`` bits of ``packed`` (consumed).

    Key bits and position (and the tie-group id above them, when given)
    share one uint64, so ``np.sort`` *by value* is the argsort: it moves
    what it compares, and packed words are unique, so it is stable.
    Returns the sorted positions (``packed``, masked in place) and, per
    adjacent pair, whether they tie: differ in position bits alone,
    ``p[i + 1] ^ p[i] < 2**index_bits``.  Beside ``packed`` the pass
    holds one block's temporary, never a column.
    """
    if take + index_bits < 64:
        packed >>= np.uint64(64 - take)
        packed <<= np.uint64(index_bits)
    else:  # the key bits stay where they are: one mask
        packed &= np.uint64((1 << 64) - (1 << index_bits))
    if groups is not None:
        packed |= groups << np.uint64(index_bits + take)
    for start in range(0, len(packed), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(packed))
        packed[start:stop] |= np.arange(start, stop, dtype=np.uint64)
    packed.sort()
    same, limit = np.empty(len(packed) - 1, bool), np.uint64(1 << index_bits)
    for start in range(0, len(same), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        pair = packed[start : stop + 1]
        np.less(pair[1:] ^ pair[:-1], limit, out=same[start:stop])
    packed &= limit - np.uint64(1)
    return packed.view(np.int64), same


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
        values = _read(columns, word, rows)
        np.not_equal(values[1:], values[:-1], out=differs[1:])
        differs[starts] = False  # a group's first row differs from no one
        split |= np.logical_or.reduceat(differs, starts)
        if split.all():
            return None
    return split[np.cumsum(heads) - 1]


def _read(columns, word: int, rows, own: bool = False) -> np.ndarray:
    """Word ``word`` of ``rows``: a new array, or for every row (None) the
    source's column (``own``: one it hands over).  A lazy source's
    ``take`` packs just the rows asked for."""
    if rows is None:
        return columns.own(word) if own else columns[word]
    take = getattr(columns, "take", None)
    return take(word, rows) if take else columns[word][rows]


def argsort_words(columns, stats=None, consume: bool = False) -> np.ndarray:
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
    and ``sort_tied_rows`` (rows the first pass left tied).  ``consume``
    lets the first pass own its word of a lazy source
    (:class:`~repro.keys.normalizer.KeyWords`) and sort it in place.
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
            keys = [_read(columns, w, rows) for w in range(words - 1, word - 1, -1)]
            if groups is not None:
                keys.append(groups)
            perm = np.lexsort(keys).astype(np.int64, copy=False)
            same, bit = None, 64 * words
        else:
            fresh = consume or rows is not None  # shifted in place
            values = _read(columns, word, rows, consume)
            if used:  # drop the bits earlier passes sorted
                values <<= np.uint64(used)
            span = int(values.min()) ^ int(values.max())
            if not span:
                bit = 64 * (word + 1)
                continue
            skip = 64 - span.bit_length()
            window = values if fresh else values << np.uint64(skip)
            if fresh and skip:
                window <<= np.uint64(skip)
            take = 64 - used - skip
            if take < key_bits and word + 1 < words:
                # Fill the bits the two shifts vacated from the next word.
                window |= _read(columns, word + 1, rows) >> np.uint64(take)
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
    stays within ``k * (block_rows + block_rows // 4)`` however large the
    runs are.
    """

    __slots__ = ("rounds", "rows_emitted", "refills", "peak_frontier_rows")

    def __init__(self) -> None:
        self.rounds = 0
        self.rows_emitted = 0
        self.refills = 0
        self.peak_frontier_rows = 0


def _cut(
    columns: Sequence[np.ndarray],
    lo: int,
    hi: int,
    cutoff: tuple[int, ...],
    inclusive: bool,
) -> int:
    """End of the sorted rows ``[lo, hi)`` that sort before ``cutoff`` (or
    equal it, when ``inclusive``).

    One binary search per word, narrowing to the rows that tie the cutoff
    on every word so far; a scalar check of the first row at or past the
    cutoff's word stops it as soon as no row ties -- on distinct keys,
    after the first word.  No per-row work.
    """
    for column, word in zip(columns, cutoff):
        # np.uint64, not Python int: mixing int with a uint64 array
        # promoted to float64 before NumPy 2, rounding words above 2**53.
        value = np.uint64(word)
        segment = column[lo:hi]
        start = lo + int(segment.searchsorted(value))
        if start == hi or column[start] != value:
            return start
        lo, hi = start, lo + int(segment.searchsorted(value, "right"))
    return hi if inclusive else lo


_TOP_UP = 4  # a frontier under 1/_TOP_UP of its last block pulls the next


def kway_merge_blocks(
    sources: Sequence[Iterable[np.ndarray]],
    stats: KWayBlockStats | None = None,
    *,
    emit_keys: bool = False,
    out: Sequence[np.ndarray] | None = None,
) -> Iterator[tuple]:
    """Streaming k-way merge of sorted runs, one bounded block at a time.

    ``sources`` holds one iterable per run, each yielding successive key
    blocks of that run in sorted order, as uint64 word columns (all runs
    share one word count): a resident run's words as they are, a spilled
    block's word rows transposed.
    Yields one ``(order, spans)`` pair per round, the round's
    globally-sorted slice of the merge: ``spans`` lists, ascending by run,
    one ``(run, lo, hi)`` per contributing run -- the contiguous rows
    ``[lo, hi)`` of that run (absolute positions) -- and ``order`` is the
    int64 permutation that puts the spans' rows, concatenated as listed,
    into merge order (the identity when a single run contributes).
    With ``emit_keys`` each item gains a third element, the round's
    merged key word columns.  ``out`` (one column per key word, a row
    per merged row: a key-carried result, or a new run's rows
    transposed) receives each round's merged words after the last
    round's; the third element is then that slice of it.

    Instead of a per-row tournament, every round works on the buffered
    *frontier* of each run -- its unemitted rows, contiguous:

    1. a run whose frontier is empty, or holds fewer rows than a quarter
       of the block it pulled last, pulls its next block (a remainder and
       the block join into one frontier) and caches the block's tail key
       as a tuple of Python ints;
    2. the global **cutoff** is the smallest frontier-tail key over runs
       that still have unread blocks -- every unread row of any run is >=
       its own frontier tail >= the cutoff, so a buffered row < cutoff is
       always safe to emit, and a row == cutoff is safe in runs at or
       before the cutoff's owner (later runs must wait for the owner's
       unread equal keys, or stability would break).  Topped up, no
       frontier is a sliver the last round left: a round emits ~k blocks;
    3. a run whose tail is itself emittable (a tuple compare) gives its
       whole frontier; only a run the cutoff splits is searched
       (:func:`_cut`); the selected rows of all frontiers are ordered with
       one stable :func:`argsort_words` over the uint64 word columns
       (ties resolve to the earlier run; words and leading bits the
       round's rows share cost it nothing).

    Progress is guaranteed: the run holding the cutoff drains its whole
    frontier each round.  A frontier holds at most a quarter block left
    over plus a block, so the working set never exceeds ``k * (block_rows
    + block_rows // 4)`` key rows (``stats.peak_frontier_rows``); per-round
    Python cost is O(k), with no per-row interpretation between refills.
    """
    iterators = [iter(source) for source in sources]
    k, stats = len(iterators), KWayBlockStats() if stats is None else stats
    # Per run: its frontier (word columns from ``offsets`` on), the run
    # row they start at, their tail, the rows of the block pulled last.
    blocks = [(np.empty(0, np.uint64),)] * k
    offsets, bases, lasts = [0] * k, [0] * k, [0] * k
    tails: list[tuple[int, ...]] = [()] * k
    exhausted, filled = [False] * k, 0

    while True:
        for index in range(k):
            columns, offset = blocks[index], offsets[index]
            held = len(columns[0]) - offset
            if exhausted[index] or held and _TOP_UP * held >= lasts[index]:
                continue
            # Skip empty blocks a source may yield.
            block = next((b for b in iterators[index] if len(b[0])), None)
            if block is None:
                exhausted[index] = True
                continue
            lasts[index] = len(block[0])
            tails[index] = tuple(int(column[-1]) for column in block)
            if held:  # the remainder runs on into the block
                pairs = zip(columns, block)
                block = [np.concatenate((c[offset:], b)) for c, b in pairs]
            blocks[index], offsets[index] = tuple(block), 0
            bases[index] += offset
            stats.refills += 1
        live = [i for i in range(k) if offsets[i] < len(blocks[i][0])]
        if not live:
            return
        stats.rounds += 1
        buffered = sum(len(blocks[i][0]) - offsets[i] for i in live)
        stats.peak_frontier_rows = max(stats.peak_frontier_rows, buffered)

        # Cutoff: min frontier-tail key over runs with unread blocks.
        # Fully-buffered runs impose no bound (nothing unseen remains).
        # The cutoff *owner* is the smallest such run index: its unread
        # blocks may still hold keys equal to the cutoff, so for
        # stability only runs at or before it may emit rows == cutoff;
        # later runs emit strictly-below rows this round.
        pending = [index for index in live if not exhausted[index]]
        cutoff_run = min(pending, key=tails.__getitem__, default=-1)
        cutoff = tails[cutoff_run] if pending else None

        emit_columns: list[tuple[np.ndarray, ...]] = []
        spans: list[tuple[int, int, int]] = []
        for index in live:
            columns, offset, tail = blocks[index], offsets[index], tails[index]
            stop = length = len(columns[0])
            inclusive = index <= cutoff_run
            if cutoff is not None and (
                tail > cutoff or (tail == cutoff and not inclusive)
            ):
                stop = _cut(columns, offset, length, cutoff, inclusive)
            if stop == offset:
                continue
            emit_columns.append(tuple(c[offset:stop] for c in columns))
            spans.append((index, bases[index] + offset, bases[index] + stop))
            offsets[index] = stop

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
        stats.rows_emitted += len(order)
        if out is not None:
            stop = filled + len(order)
            target = [column[filled:stop] for column in out]
            for word, column in zip(merged, target):
                if several and column.flags.c_contiguous:  # unbuffered
                    np.take(word, order, out=column, mode="clip")
                else:  # a strided take buffers: a copy is cheaper
                    column[...] = word[order] if several else word
            merged, filled = target, stop
            del word  # the loop's last merged word, a round's worth
        elif emit_keys and several:
            merged = [word[order] for word in merged]
        yield (order, spans, merged) if emit_keys else (order, spans)
        del order, merged  # not held while the next round sorts
