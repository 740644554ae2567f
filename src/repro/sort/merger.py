"""The merger: one k-way pass over sorted runs, whatever store holds them.

Every run store -- resident, spilling, compacting -- finishes through
:class:`RunMerger`.  It streams every
run's key blocks -- resident (:class:`~repro.sort.rungen.InMemoryRun`),
spilled (:class:`~repro.sort.external.SpilledRun`) or a mix -- through
the block-streaming frontier kernel
(:func:`repro.sort.kway.kway_merge_stream`): each round refills at most
one key block per run, finds the global cutoff from the frontier tails
and emits everything below it with one stable sort, so every row is moved
once and the key working set is ``k * block_rows`` rows no matter how
large the runs are.

* **Layout rebase** -- runs encoded under a narrower compressed key
  layout are re-encoded onto the final one block by block as they
  stream; stored offset-value codes ride along only for runs already on
  the final layout (rebasing moves word boundaries).
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
* **Payload** -- per round, one contiguous read per contributing run
  (served from the read-ahead window when the store provides a
  prefetcher) and one vectorized gather back into merge order.
  Key-carried runs gather their full key rows instead and the table is
  decoded from those.  String heaps are concatenated once up front and
  each row's offsets shifted by its run's base at the end.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.keys.compression import decode_key_table, rebase_matrix
from repro.rows.block import RowBlock, heap_bases, string_slots
from repro.rows.layout import RowLayout
from repro.sort.kernels import KWayBlockStats
from repro.sort.kway import kway_merge_stream
from repro.sort.rungen import InMemoryRun, RunGenerator
from repro.sort.stringsort import inexact_prefix_end, refine_key_order
from repro.table.table import Table

__all__ = ["RunMerger"]


class RunMerger:
    """K-way merge of sorted runs into the result table (or one new run).

    ``phase_seconds["refine"]`` (exact-string repair, spill reads
    excluded) and ``["decode"]`` (the result table) are timed here;
    callers timing a ``"merge"`` phase around a pass declare it net of
    :attr:`NESTED_PHASES`.

    Finishes what ``generator`` began: the run format (the key layout
    covering every run, whether runs carry compressed layouts to rebase
    from, whether they are key-carried), the config, the stats and the
    cancellation checkpoint are the generator's.  ``block_rows`` bounds
    each run's frontier block.  ``make_prefetcher(runs, key_fetch,
    row_fetch)`` is the spilling store's read-ahead hook; it may return
    ``None``.
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
        self.compressed = generator.compress
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
        layout = self.key_layout if self.compressed else None
        return InMemoryRun(keys, rows, heap, layout)

    # ------------------------------------------------------------------ #
    # Streaming reads
    # ------------------------------------------------------------------ #

    def _stale(self, run) -> bool:
        """Was the run encoded under a narrower layout than the final?"""
        return run.layout is not None and run.layout != self.key_layout

    def _full_keys(self, run, start: int, stop: int, stats) -> np.ndarray:
        """Full-width key rows rebased onto the final layout."""
        block = run.read_key_block(start, stop, stats)
        if self._stale(run):
            block = rebase_matrix(block, run.layout, self.key_layout)
        return block

    def _key_block(
        self, run, start: int, stop: int, stats, coded: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One merge-ready key block and, if ``coded``, its run's codes.

        The merge compares key bytes only: every run carries a row-id
        suffix that ascends with run order, so the kernel's stable
        earlier-run-first tie handling reproduces full-key memcmp order
        without the suffix.  (Prefetch workers call this with a
        thread-private ``stats``.)
        """
        block = self._full_keys(run, start, stop, stats)
        codes = None
        if coded and not self._stale(run) and run.ovc is not None:
            codes = run.ovc[start:stop]
        return block[:, : self.key_layout.key_width], codes

    @staticmethod
    def _rows(run, start: int, stop: int, stats) -> np.ndarray:
        return run.read_row_block(start, stop, stats)

    def _key_source(self, run, coded: bool) -> Iterator[tuple]:
        for start in range(0, run.num_rows, self.block_rows):
            stop = min(start + self.block_rows, run.num_rows)
            yield self._key_block(run, start, stop, self.stats, coded)

    def _gather(
        self, runs, run_ids, row_ids, read, prefetcher
    ) -> np.ndarray:
        """One emitted round's rows (payload or full keys) in merge order.

        Each contributing run's rows form one contiguous range (a prefix
        of its frontier -- exact-string refinement may permute rows
        within the range but never leaves it), so the round needs one
        contiguous read per run; interleaving back into merge order is a
        single vectorized gather.
        """
        parts: list[np.ndarray] = []
        bases = np.zeros(len(runs), dtype=np.int64)
        cursor = 0
        for index in np.unique(run_ids):
            positions = row_ids[run_ids == index]
            lo, hi = int(positions.min()), int(positions.max()) + 1
            if prefetcher is not None:
                parts.append(prefetcher.read_rows(int(index), lo, hi))
            else:
                parts.append(read(runs[index], lo, hi, self.stats))
            bases[index] = cursor - lo
            cursor += hi - lo
        return _concat(parts)[bases[run_ids] + row_ids]

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
        coded = len(runs) > 1  # one run merges nothing: codes stay unread
        prefetcher = None
        if self._make_prefetcher:
            # The prefetcher's row stream carries the dominant per-round
            # I/O: the payload rows, or -- for key-carried runs, which
            # hold no payload -- the full-width key rows.
            row_read = self._rows if want_rows else self._full_keys
            prefetcher = self._make_prefetcher(
                runs,
                lambda i, lo, hi, s: self._key_block(
                    runs[i], lo, hi, s, coded
                ),
                lambda i, lo, hi, s: row_read(runs[i], lo, hi, s),
            )
        key_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        run_parts: list[np.ndarray] = []
        try:
            for run_ids, row_ids in self._rounds(
                runs, prefetcher, heap, bases, coded, refine=final
            ):
                if want_keys:
                    key_parts.append(
                        self._gather(
                            runs,
                            run_ids,
                            row_ids,
                            self._full_keys,
                            None if want_rows else prefetcher,
                        )
                    )
                if want_rows:
                    row_parts.append(
                        self._gather(
                            runs, run_ids, row_ids, self._rows, prefetcher
                        )
                    )
                    run_parts.append(run_ids)
        finally:
            # kway_merge_stream also closes the prefetcher when the
            # stream ends; this covers errors raised from the gathers
            # before the stream is exhausted.  close() is idempotent.
            if prefetcher is not None:
                prefetcher.close()
        keys = _concat(key_parts) if want_keys else None
        if not want_rows:
            return keys, np.empty((len(keys), 0), dtype=np.uint8), b""
        rows = _concat(row_parts)  # freshly gathered, safe to patch
        if bases is not None:
            self._shift_offsets(rows, bases[_concat(run_parts)])
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
    # Merge order
    # ------------------------------------------------------------------ #

    def _rounds(
        self, runs, prefetcher, heap, bases, coded, refine
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The block-streaming kernel's rounds, string ties repaired."""
        stats = self.stats
        if prefetcher is not None:
            sources = [prefetcher.key_source(i) for i in range(len(runs))]
        else:
            sources = [self._key_source(run, coded) for run in runs]
        kernel_stats = KWayBlockStats()
        refine_end = self.refine_end if refine else None
        rounds = kway_merge_stream(
            sources,
            kernel_stats,
            on_round=self._check_cancelled,
            use_ovc=self.config.use_ovc,
            emit_keys=refine_end is not None,
            prefetcher=prefetcher,
        )
        if refine_end is None:
            yield from rounds
        else:
            width = self.key_layout.key_width
            # (run_ids, row_ids, key_bytes) slices of the open tie group.
            carry: list[tuple[np.ndarray, ...]] = []

            heap = np.frombuffer(heap, dtype=np.uint8)

            def settle(parts):
                columns = (_concat(list(column)) for column in zip(*parts))
                with stats.time_phase("refine", ("spill_io", "io_wait")):
                    return self._refine_settled(runs, *columns, heap, bases)

            for run_ids, row_ids, words in rounds:
                batch = (run_ids, row_ids, _words_to_bytes(words, width))
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
        stats.kernel_kway_merges += 1
        stats.kway_rounds += kernel_stats.rounds
        stats.ovc_compares += kernel_stats.ovc_compares
        stats.ovc_ties += kernel_stats.ovc_ties
        stats.kway_peak_frontier_rows = max(
            stats.kway_peak_frontier_rows, kernel_stats.peak_frontier_rows
        )

    def _refine_settled(
        self, runs, run_ids, row_ids, key_bytes, heap, bases
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact-string repair of one settled merge batch.

        ``key_bytes`` are the batch's merged key rows; only the tied
        rows' payload is read back (one contiguous range per
        contributing run), and only for its string slots: the bytes
        they point at in ``heap`` are compared where they lie.
        """

        def fetch_tied(tied):
            tied_runs = run_ids[tied]
            rows = self._gather(
                runs, tied_runs, row_ids[tied], self._rows, None
            )

            def get(name):
                offsets, lengths = string_slots(
                    rows, self._row_layout.slot(name)
                )
                starts = bases[tied_runs] + offsets
                return heap, starts, lengths.astype(np.int64)

            return get

        perm = refine_key_order(
            key_bytes, self.key_layout, fetch_tied, self.stats
        )
        if perm is None:
            return run_ids, row_ids
        return run_ids[perm], row_ids[perm]


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
