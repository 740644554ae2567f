"""The merger: one k-way pass over sorted runs, whatever store holds them.

Every run store -- resident, spilling, compacting -- finishes through
:class:`RunMerger`.  It streams every
run's key blocks -- resident (:class:`~repro.sort.rungen.InMemoryRun`),
spilled (:class:`~repro.sort.external.SpilledRun`) or a mix -- through
the block-streaming frontier kernel
(:func:`repro.sort.kernels.kway_merge_blocks`): each round refills at most
one key block per run, finds the global cutoff from the frontier tails
and emits everything below it with one stable sort, so every row is moved
once and the key working set is ``k * block_rows`` rows no matter how
large the runs are.

* **A key byte is read once** -- the block a run hands the kernel is
  read (CRC-checked, rebased) at full width and held while its frontier
  drains; the kernel reports each round as one contiguous span per
  contributing run plus one permutation, and the full key rows a round
  needs (key-carried results, every intermediate run) are sliced out of
  the held blocks: no second read, no second CRC pass, no second rebase.
* **Layout rebase** -- runs encoded under a narrower key layout are
  re-encoded onto the final one block by block as they stream.
* **Exact strings** -- runs arrive sorted by key bytes, so rows tied
  on the bytes up to the first truncated VARCHAR segment may still
  reorder once the full strings are consulted, and such a tie group can
  straddle a round boundary.  Each round's trailing tie group is held
  back (the carry); every settled batch is refined with the adaptive
  re-encode loop (:func:`repro.sort.stringsort.refine_key_order`)
  on the tied rows' string bytes -- their ``(offset, length)`` slots
  into the joined run heaps, no ``str`` decoded -- then emitted.
  This is the sort's one string repair, made by the final pass only
  (:meth:`RunMerger.merge`; an intermediate :meth:`~RunMerger.merge_to_run`
  leaves byte order alone): a tie group reaches it ordered
  by its remaining key bytes, then run, then row id -- the stable
  refinement's precondition -- whereas repairing runs first would hand
  the kernel runs that are no longer byte-sorted whenever key bytes
  follow the truncated segment.
* **Payload** -- per round, one contiguous read per span (served from
  the read-ahead window when the store provides a prefetcher) put
  through the round's permutation; key-carried runs hold no payload and
  the table is decoded from their gathered key rows.  String heaps are
  concatenated once up front and each row's offsets shifted by its run's
  base at the end.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.keys.compression import decode_key_table, rebase_matrix
from repro.rows.block import RowBlock, heap_bases, string_slots
from repro.rows.layout import RowLayout
from repro.sort.kernels import KWayBlockStats, kway_merge_blocks
from repro.sort.rungen import InMemoryRun, RunGenerator
from repro.sort.stringsort import inexact_prefix_end, refine_key_order
from repro.table.table import Table

__all__ = ["RunMerger"]


class RunMerger:
    """K-way merge of sorted runs into the result table (or one new run).

    ``phase_seconds["refine"]`` (exact-string repair) and
    ``["decode"]`` (the result table) are timed here;
    callers timing a ``"merge"`` phase around a pass declare it net of
    :attr:`NESTED_PHASES`.

    Finishes what ``generator`` began: the run format (the key layout
    covering every run, whether runs are key-carried), the config, the
    stats and the cancellation checkpoint are the generator's.
    ``block_rows`` bounds each run's frontier block.
    ``make_prefetcher(runs, key_fetch, row_fetch)`` is the spilling
    store's read-ahead hook; it may return ``None``.
    """

    NESTED_PHASES = ("refine", "decode")

    def __init__(
        self,
        generator: RunGenerator,
        block_rows: int,
        make_prefetcher: Callable | None = None,
    ) -> None:
        self.schema = generator.schema
        self.config = generator.config
        self.stats = generator.stats
        self.key_layout = key_layout = generator.layout
        self.key_carried = generator.key_carried
        self.block_rows = block_rows
        self._check_cancelled = generator.check_cancelled
        self._make_prefetcher = make_prefetcher
        self._row_layout = RowLayout.for_schema(self.schema)
        self._has_strings = any(
            slot.is_string for slot in self._row_layout.slots
        )
        #: First inexact key byte, or ``None`` when byte order is exact.
        self.refine_end = inexact_prefix_end(key_layout)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def merge(self, runs: Sequence) -> Table:
        """The final pass: every run merged into the sorted output table.

        One resident run on the final layout whose byte order is exact
        *is* the output: decoded as it stands, no pass counted.  (A
        truncating prefix takes the rounds: the one string repair.)
        """
        run, exact = runs[0], self.refine_end is None
        if len(runs) == 1 and exact and not (run.on_disk or self._stale(run)):
            keys, rows, heap = run.keys, run.rows, run.heap
        else:
            self.stats.merge_passes += 1
            keys, rows, heap = self._merge(runs, final=True)
        with self.stats.time_phase("decode"):
            if self.key_carried:
                return decode_key_table(keys, self.key_layout, self.schema)
            return RowBlock(self._row_layout, rows, heap).to_table()

    def merge_to_run(self, runs: Sequence) -> InMemoryRun:
        """An intermediate pass: one group of runs merged into a new run.

        The run is self-contained -- full-width keys on the final
        layout, its own heap -- and, like every run, in key-*byte*
        order: strings a prefix truncates are repaired by the final
        pass alone, so later passes treat it like any other.
        """
        keys, rows, heap = self._merge(runs, final=False)
        return InMemoryRun(keys, rows, heap, self.key_layout)

    # ------------------------------------------------------------------ #
    # Streaming reads
    # ------------------------------------------------------------------ #

    def _stale(self, run) -> bool:
        """Was the run encoded under a narrower layout than the final?"""
        return run.layout != self.key_layout

    def _key_block(self, run, start: int, stop: int, stats) -> np.ndarray:
        """Full-width key rows ``[start, stop)`` on the final layout.

        This is the one read (and CRC check, and rebase) of these key
        bytes.  (Prefetch workers call this with a thread-private
        ``stats``.)
        """
        block = run.read_key_block(start, stop, stats)
        if self._stale(run):
            block = rebase_matrix(block, run.layout, self.key_layout)
        return block

    def _key_source(self, run) -> Iterator[np.ndarray]:
        for start in range(0, run.num_rows, self.block_rows):
            stop = min(start + self.block_rows, run.num_rows)
            yield self._key_block(run, start, stop, self.stats)

    def _frontier(
        self, blocks, held: list, index: int
    ) -> Iterator[np.ndarray]:
        """One run's key blocks as the kernel wants them, each one held.

        The merge compares key bytes only: every run carries a row-id
        suffix that ascends with run order, so the kernel's stable
        earlier-run-first tie handling reproduces full-key memcmp order
        without the suffix.  The full-width block is remembered at
        delivery to the kernel, not at fetch: a read-ahead worker may be
        a block ahead of the frontier the round's spans are cut from.
        """
        width, start = self.key_layout.key_width, 0
        for block in blocks:
            held[index] = (start, block)
            start += len(block)
            yield block[:, :width]

    # ------------------------------------------------------------------ #
    # The pass
    # ------------------------------------------------------------------ #

    def _merge(
        self, runs: Sequence, final: bool
    ) -> tuple[np.ndarray | None, np.ndarray, bytes]:
        """One pass over ``runs``: ``(full keys | None, rows, heap)``.

        The ``final`` pass repairs truncated-VARCHAR tie groups and
        gathers only what the result decodes from; an intermediate one
        keeps byte order and gathers the new run's full keys too.
        """
        stats = self.stats
        want_rows = not self.key_carried
        want_keys = self.key_carried or not final
        for run in runs:
            if self._stale(run):
                stats.key_layout_rebases += 1
        # The run heaps, joined, stay resident while rows stream: string
        # offsets are run-relative (``bases`` re-targets them), and
        # refinement reads tied strings' bytes out of the joined heap.
        # Read them before the prefetcher exists: a read error here must
        # not leak its pool.
        heap, bases = b"", None
        if self._has_strings and want_rows:
            heaps = [run.read_heap(stats) for run in runs]
            bases = heap_bases([len(part) for part in heaps])
            heap = b"".join(heaps)
            del heaps
        prefetcher = None
        if self._make_prefetcher:
            # Payload rows are the one stream besides the key blocks, and
            # key-carried runs hold none.
            prefetcher = self._make_prefetcher(
                runs,
                lambda i, lo, hi, s: self._key_block(runs[i], lo, hi, s),
                (lambda i, lo, hi, s: runs[i].read_row_block(lo, hi, s))
                if want_rows
                else None,
            )
        if prefetcher is not None:
            blocks = [prefetcher.key_source(i) for i in range(len(runs))]
            read_rows = prefetcher.read_rows
        else:
            blocks = [self._key_source(run) for run in runs]

            def read_rows(index, lo, hi):
                return runs[index].read_row_block(lo, hi, stats)

        #: per run, ``(first row, full-width block)`` delivered last.
        held: list[tuple[int, np.ndarray] | None] = [None] * len(runs)

        def key_rows(index, lo, hi):
            first, block = held[index]
            return block[lo - first : hi - first]

        kernel_stats = KWayBlockStats()
        refine_end = self.refine_end if final else None
        rounds = kway_merge_blocks(
            [self._frontier(b, held, i) for i, b in enumerate(blocks)],
            kernel_stats,
            emit_keys=refine_end is not None,
        )

        def gathered() -> Iterator[tuple]:
            """Each round's ``(full keys, rows, heap shifts, *words)``:
            its spans' slices (key rows out of the held blocks, payload
            rows one contiguous read each) through its permutation."""
            for order, spans, *words in rounds:
                # A cancelled sort unwinds between rounds, never
                # mid-read: cleanup sees a consistent set of spill files.
                self._check_cancelled()
                keys = rows = shift = None
                if want_keys:
                    keys = _gather([key_rows(*s) for s in spans], order)
                if want_rows:
                    rows = _gather([read_rows(*s) for s in spans], order)
                if bases is not None:
                    shift = _gather(
                        [np.full(hi - lo, bases[i]) for i, lo, hi in spans],
                        order,
                    )
                yield (keys, rows, shift, *words)

        batches = gathered()
        if refine_end is not None:
            batches = self._repaired(batches, heap)
        parts: list[tuple] = []
        try:
            parts.extend(batches)
        finally:
            # However the rounds end (exhaustion, a typed read error,
            # cancellation), no fetch thread outlives the merge.
            if prefetcher is not None:
                prefetcher.close()
        stats.kernel_kway_merges += 1
        stats.kway_rounds += kernel_stats.rounds
        stats.kway_peak_frontier_rows = max(
            stats.kway_peak_frontier_rows, kernel_stats.peak_frontier_rows
        )
        keys, rows, shift = (list(column) for column in zip(*parts))
        keys = _concat(keys) if want_keys else None
        if not want_rows:
            return keys, np.empty((len(keys), 0), dtype=np.uint8), b""
        # A copy even of a lone span's view of its run: patched below.
        rows = np.concatenate(rows)
        if bases is not None:
            self._shift_offsets(rows, _concat(shift))
        return keys, rows, heap

    def _shift_offsets(self, rows: np.ndarray, shift: np.ndarray) -> None:
        """Point ``rows`` into the joined heap.

        Every string slot holds a run-relative heap offset; adding the
        row's run's base in the joined heap re-targets it without
        touching a string byte.
        """
        shift = shift.astype(np.uint32)
        layout = self._row_layout
        for col_index, slot in enumerate(layout.slots):
            if not slot.is_string:
                continue
            byte_off, bit = layout.validity_position(col_index)
            valid = ((rows[:, byte_off] >> np.uint8(bit)) & 1).astype(bool)
            string_slots(rows, slot)[0][valid] += shift[valid]

    # ------------------------------------------------------------------ #
    # Exact strings
    # ------------------------------------------------------------------ #

    def _repaired(self, batches, heap: bytes) -> Iterator[tuple]:
        """``batches`` regrouped at tie-group boundaries, string ties repaired.

        Rows tied on the key bytes up to the first truncated VARCHAR
        segment may reorder once the full strings are consulted, and
        such a group can straddle a round boundary: each round's
        trailing tie group is held back (the carry) until a later round
        closes it, and every settled batch is refined, then emitted.
        """
        width, refine_end = self.key_layout.key_width, self.refine_end
        heap = np.frombuffer(heap, dtype=np.uint8)
        # (rows, heap shifts, key bytes) slices of the open tie group.
        carry: list[tuple[np.ndarray, ...]] = []

        def settle(parts):
            rows, shift, key_bytes = (
                _concat(list(column)) for column in zip(*parts)
            )
            with self.stats.time_phase("refine"):
                perm = self._refine_settled(rows, shift, key_bytes, heap)
            if perm is not None:
                rows, shift = rows[perm], shift[perm]
            return None, rows, shift

        for _, rows, shift, words in batches:
            batch = (rows, shift, _words_to_bytes(words, width))
            prefix = batch[2][:, :refine_end]
            tail = _trailing_tie_start(prefix)
            if tail == 0 and (
                not carry
                or np.array_equal(carry[-1][2][-1, :refine_end], prefix[0])
            ):
                carry.append(batch)  # the open group runs on
                continue
            carry.append(tuple(part[:tail] for part in batch))
            yield settle(carry)
            carry = [tuple(part[tail:] for part in batch)]
        if carry:
            yield settle(carry)

    def _refine_settled(
        self, rows, shift, key_bytes, heap
    ) -> np.ndarray | None:
        """The exact-string permutation of one settled batch, if any.

        ``key_bytes`` are the batch's merged key rows and ``rows`` its
        payload; only the tied rows' string slots are consulted, and the
        bytes they point at in ``heap`` are compared where they lie.
        """

        def fetch_tied(tied):
            tied_rows, tied_shift = rows[tied], shift[tied]

            def get(name):
                offsets, lengths = string_slots(
                    tied_rows, self._row_layout.slot(name)
                )
                return heap, tied_shift + offsets, lengths.astype(np.int64)

            return get

        return refine_key_order(
            key_bytes, self.key_layout, fetch_tied, self.stats
        )


def _gather(parts: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """A round's span slices in merge order (a lone span already is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)[order]


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that hands a lone part through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _words_to_bytes(words: np.ndarray, width: int) -> np.ndarray:
    """Merged uint64 key words back to their big-endian key byte rows."""
    count, word_count = words.shape
    return (
        words.astype(">u8")
        .view(np.uint8)
        .reshape(count, word_count * 8)[:, :width]
    )


def _trailing_tie_start(prefix: np.ndarray) -> int:
    """First row of the trailing maximal group of equal prefix rows.

    Returns 0 when every row of ``prefix`` belongs to one tied group
    (the whole batch must be carried into the next merge round).
    """
    if len(prefix) < 2:
        return 0
    distinct = np.flatnonzero(np.any(prefix[1:] != prefix[:-1], axis=1))
    return int(distinct[-1]) + 1 if len(distinct) else 0
