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

* **Keys are words, a key byte is read once** -- the kernel reads uint64
  key word columns: a resident run's own, unconverted, or a spilled
  block's, read (CRC-checked, rebased) at full width, converted once and
  held while its frontier drains.  The kernel reports each round as one
  contiguous span per contributing run plus one permutation, and the
  full key rows a spilling round needs (key-carried results, every
  intermediate run) are sliced out of the held blocks: no second read,
  no second CRC pass, no second rebase.
* **Layout rebase** -- runs encoded under a narrower key layout are
  re-encoded onto the final one: a resident run from its table, a
  spilled one block by block as it streams.
* **Exact strings** -- runs arrive sorted by key bytes, so rows tied
  on the bytes up to the first truncated VARCHAR segment may still
  reorder once the full strings are consulted, and such a tie group can
  straddle a round boundary.  Each round's trailing tie group is held
  back (the carry); every settled batch is refined with the adaptive
  re-encode loop (:func:`repro.sort.stringsort.refine_key_order`)
  on the tied rows' string bytes where they lie -- the UTF-8 buffers the
  key statistics made of resident runs' VARCHAR key columns, or the
  joined heaps spilled rows' ``(offset, length)`` slots point into; no
  ``str`` decoded -- then emitted.
  This is the sort's one string repair, made by the final pass only
  (:meth:`RunMerger.merge`; an intermediate :meth:`~RunMerger.merge_to_run`
  leaves byte order alone): a tie group reaches it ordered
  by its remaining key bytes, then run, then row id -- the stable
  refinement's precondition -- whereas repairing runs first would hand
  the kernel runs that are no longer byte-sorted whenever key bytes
  follow the truncated segment.
* **Payload** -- resident runs keep theirs in columns, so a merge of
  resident runs (the in-memory sort, incremental compactions and
  views, memory-fallback runs) moves row positions only: each round
  gathers its rows' positions in the run tables joined end to end, and
  the result is one ``Table.take`` by them (an intermediate pass keeps
  the joined table, the runs' words and the positions as its run).  A
  merge that reads a spilled run streams NSM rows instead, a resident
  run's built once (:meth:`~repro.sort.rungen.InMemoryRun.to_row_run`):
  per round one contiguous read per span (served from the read-ahead
  window when the store provides a prefetcher) put through the round's
  permutation; string heaps are concatenated once up front and each
  row's offsets shifted by its run's base at the end.  Key-carried spill
  files hold no payload, and such a merge decodes the table from its
  gathered key rows.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.keys.compression import decode_key_table, rebase_matrix
from repro.keys.normalizer import words_to_bytes
from repro.rows.block import RowBlock, heap_bases, string_slots
from repro.rows.layout import RowLayout
from repro.sort.kernels import KWayBlockStats, _chunk_columns, kway_merge_blocks
from repro.sort.rungen import InMemoryRun, RowRun, RunGenerator
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
        #: First inexact key byte, or ``None`` when byte order is exact.
        self.refine_end = inexact_prefix_end(key_layout)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def merge(self, runs: Sequence) -> Table:
        """The final pass: every run merged into the sorted output table.

        One resident run whose byte order is exact *is* the output: its
        table taken by its positions, no pass counted.  (A truncating
        prefix takes the rounds: the one string repair.)
        """
        runs, payload = self._payload(runs)
        if (
            len(runs) == 1
            and self.refine_end is None
            and isinstance(payload, _PositionPayload)
        ):
            keys, columns = None, ([runs[0].positions],)
        else:
            self.stats.merge_passes += 1
            keys, columns = self._merge(runs, payload, final=True)
        with self.stats.time_phase("decode"):
            return payload.table(keys, columns)

    def merge_to_run(self, runs: Sequence):
        """An intermediate pass: one group of runs merged into a new run.

        The run is self-contained -- full-width keys on the final
        layout, its own payload -- and, like every run, in key-*byte*
        order: strings a prefix truncates are repaired by the final
        pass alone, so later passes treat it like any other.
        """
        runs, payload = self._payload(runs)
        keys, columns = self._merge(runs, payload, final=False)
        return payload.run(keys, columns, self.key_layout)

    def _payload(self, runs: Sequence):
        """``(runs, payload)`` for one pass: what each round gathers.

        A run on a narrower layout than the final is rebased: a resident
        one packed anew here, a spilled one block by block as it streams.
        Resident runs merged with a spilled one are read in the spill
        format (key rows, NSM rows unless key-carried), built here once
        per run.
        """
        stale = [self._stale(run) for run in runs]
        self.stats.key_layout_rebases += sum(stale)
        runs = [
            run.rebased(self.key_layout)
            if old and isinstance(run, InMemoryRun) else run
            for run, old in zip(runs, stale)
        ]
        if all(isinstance(run, InMemoryRun) for run in runs):
            return runs, _PositionPayload(runs)
        runs = [
            run if run.on_disk else run.to_row_run(self.key_carried)
            for run in runs
        ]
        if self.key_carried:
            return runs, _KeyPayload(self.key_layout, self.schema)
        layout = RowLayout.for_schema(self.schema)
        return runs, _RowPayload(runs, layout, self.stats)

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

    def _key_source(self, run) -> Iterator:
        """A resident run's key words, else full-width key rows, by block."""
        for start in range(0, run.num_rows, self.block_rows):
            stop = min(start + self.block_rows, run.num_rows)
            if isinstance(run, InMemoryRun):
                yield run.key_block(start, stop)
            else:
                yield self._key_block(run, start, stop, self.stats)

    def _frontier(self, blocks, held: list, index: int) -> Iterator[list]:
        """A spilled run's key blocks as words, each full-width one held.

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
            yield _chunk_columns(block[:, :width])

    # ------------------------------------------------------------------ #
    # The pass
    # ------------------------------------------------------------------ #

    def _merge(
        self, runs: Sequence, payload, final: bool
    ) -> tuple[np.ndarray | None, tuple[list[np.ndarray], ...]]:
        """One pass over ``runs``: ``(full keys | None, payload columns)``.

        The ``final`` pass repairs truncated-VARCHAR tie groups and
        gathers only what the result is made from; an intermediate one
        keeps byte order and gathers the new run's full keys too.  The
        payload columns hold, per array ``payload.gather`` returns, its
        settled batches in order.
        """
        stats = self.stats
        # A spilling merge gathers key rows for a key-carried result or
        # a new run; resident runs hold their keys as words.
        want_keys = not isinstance(payload, _PositionPayload) and (
            self.key_carried or not final
        )
        streams_rows = isinstance(payload, _RowPayload)
        prefetcher = None
        if self._make_prefetcher:
            # Payload rows are the one stream besides the key blocks;
            # resident and key-carried payloads are not read.
            prefetcher = self._make_prefetcher(
                runs,
                lambda i, lo, hi, s: self._key_block(runs[i], lo, hi, s),
                payload.fetch_rows if streams_rows else None,
            )
        if prefetcher is not None:
            blocks = [prefetcher.key_source(i) for i in range(len(runs))]
            if streams_rows:
                payload.read_rows = prefetcher.read_rows
        else:
            blocks = [self._key_source(run) for run in runs]

        #: per spilled run, ``(first row, full-width block)`` delivered last.
        held: list[tuple[int, np.ndarray] | None] = [None] * len(runs)
        sources = [
            source if isinstance(run, InMemoryRun)
            else self._frontier(source, held, index)
            for index, (run, source) in enumerate(zip(runs, blocks))
        ]

        def key_rows(index, lo, hi):
            first, block = held[index]
            return block[lo - first : hi - first]

        kernel_stats = KWayBlockStats()
        refine_end = self.refine_end if final else None
        rounds = kway_merge_blocks(
            sources, kernel_stats, emit_keys=refine_end is not None
        )

        def gathered() -> Iterator[tuple]:
            """Each round's ``(full keys, payload arrays, *words)``: its
            spans' slices (key rows out of the held blocks) through its
            permutation."""
            for order, spans, *words in rounds:
                # A cancelled sort unwinds between rounds, never
                # mid-read: cleanup sees a consistent set of spill files.
                self._check_cancelled()
                keys = None
                if want_keys:
                    keys = _gather([key_rows(*s) for s in spans], order)
                yield (keys, payload.gather(spans, order), *words)

        batches = gathered()
        if refine_end is not None:
            batches = self._repaired(batches, payload)
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
        keys, arrays = zip(*parts)
        keys = _concat(list(keys)) if want_keys else None
        return keys, tuple(list(column) for column in zip(*arrays))

    # ------------------------------------------------------------------ #
    # Exact strings
    # ------------------------------------------------------------------ #

    def _repaired(self, batches, payload) -> Iterator[tuple]:
        """``batches`` regrouped at tie-group boundaries, string ties repaired.

        Rows tied on the key bytes up to the first truncated VARCHAR
        segment may reorder once the full strings are consulted, and
        such a group can straddle a round boundary: each round's
        trailing tie group is held back (the carry) until a later round
        closes it, and every settled batch is refined, then emitted.
        """
        width, refine_end = self.key_layout.key_width, self.refine_end
        # (key bytes, *payload arrays) slices of the open tie group.
        carry: list[tuple[np.ndarray, ...]] = []

        def settle(parts):
            key_bytes, *arrays = (
                _concat(list(column)) for column in zip(*parts)
            )
            with self.stats.time_phase("refine"):
                # Only the tied rows' strings are consulted.
                perm = refine_key_order(
                    key_bytes,
                    self.key_layout,
                    lambda tied: payload.fetch_tied(arrays, tied),
                    self.stats,
                )
            if perm is not None:
                arrays = [array[perm] for array in arrays]
            return None, tuple(arrays)

        for _, arrays, words in batches:
            batch = (words_to_bytes(words, width), *arrays)
            prefix = batch[0][:, :refine_end]
            tail = _trailing_tie_start(prefix)
            if tail == 0 and (
                not carry
                or np.array_equal(carry[-1][0][-1, :refine_end], prefix[0])
            ):
                carry.append(batch)  # the open group runs on
                continue
            carry.append(tuple(part[:tail] for part in batch))
            yield settle(carry)
            carry = [tuple(part[tail:] for part in batch)]
        if carry:
            yield settle(carry)


# ---------------------------------------------------------------------- #
# Payloads: what a pass gathers per round, and what it makes of them
# ---------------------------------------------------------------------- #


class _KeyPayload:
    """Key-carried spill files: no payload; the table is decoded from the
    merged key rows."""

    def __init__(self, key_layout, schema) -> None:
        self.key_layout, self.schema = key_layout, schema

    def gather(self, spans, order) -> tuple:
        return ()

    def table(self, keys, columns) -> Table:
        return decode_key_table(keys, self.key_layout, self.schema)

    def run(self, keys, columns, key_layout) -> RowRun:
        return RowRun.keys_only(keys, key_layout)


class _PositionPayload:
    """Resident runs: each row's position in the run tables joined end
    to end (run ``i``'s rows start at ``bases[i]``).  The runs come in
    generation order, so the joined rows' ids run on from the first's."""

    def __init__(self, runs: Sequence[InMemoryRun]) -> None:
        self.runs = runs
        sizes = [run.num_rows for run in runs]
        self.bases = np.cumsum([0, *sizes[:-1]], dtype=np.int64)

    def gather(self, spans, order) -> tuple:
        runs, bases = self.runs, self.bases
        ids = [runs[i].positions[lo:hi] + bases[i] for i, lo, hi in spans]
        return (_gather(ids, order),)

    def fetch_tied(self, arrays, tied):
        ids = arrays[0][tied]

        def get(name):
            buffer, starts, lengths = self._strings[name]
            return buffer, starts[ids], lengths[ids]

        return get

    def table(self, keys, columns) -> Table:
        return self._table().take(_concat(columns[0]))

    def run(self, keys, columns, key_layout) -> InMemoryRun:
        runs = self.runs
        words = [_concat(list(word)) for word in zip(*(r.words for r in runs))]
        return InMemoryRun(
            words, key_layout, self._table(), _concat(columns[0]),
            self._encoded(), runs[0].row_id_base,
        )

    def _table(self) -> Table:
        tables = [run.table for run in self.runs]
        return tables[0].concat(*tables[1:]) if len(tables) > 1 else tables[0]

    def _encoded(self) -> dict:
        """The runs' VARCHAR key encodings joined like their tables."""
        encodings = [run.encoded for run in self.runs]
        if len(encodings) == 1:
            return encodings[0]
        return {
            name: tuple(
                np.concatenate(part)
                for part in zip(*(encoded[name] for encoded in encodings))
            )
            for name in encodings[0]
        }

    @functools.cached_property
    def _strings(self) -> dict:
        """``{column: (buffer, starts, lengths)}`` by joined position."""
        return {
            name: (buffer, np.cumsum(lengths) - lengths, lengths)
            for name, (buffer, lengths) in self._encoded().items()
        }


class _RowPayload:
    """NSM payload rows: a merge that reads a spilled run.

    Each round reads one contiguous row block per span (through the
    store's read-ahead window once one is attached, else ``fetch_rows``)
    and puts them through its permutation.  String slots hold
    run-relative heap offsets: the run heaps are joined once, up front,
    and each row carries its run's base there (the shift), added at the
    end.
    """

    def __init__(self, runs: Sequence, layout: RowLayout, stats) -> None:
        self.runs, self.layout, self.stats = runs, layout, stats
        # Read before any prefetcher exists: a read error here must not
        # leak its pool.
        self.heap, self.bases = b"", None
        if any(slot.is_string for slot in layout.slots):
            heaps = [run.read_heap(stats) for run in runs]
            self.bases = heap_bases([len(part) for part in heaps])
            self.heap = b"".join(heaps)

    def fetch_rows(self, index, lo, hi, stats) -> np.ndarray:
        return self.runs[index].read_row_block(lo, hi, stats)

    def read_rows(self, index, lo, hi) -> np.ndarray:
        return self.fetch_rows(index, lo, hi, self.stats)

    def gather(self, spans, order) -> tuple:
        rows = _gather([self.read_rows(*span) for span in spans], order)
        if self.bases is None:
            return (rows,)
        shift = _gather(
            [np.full(hi - lo, self.bases[i]) for i, lo, hi in spans], order
        )
        return rows, shift

    def fetch_tied(self, arrays, tied):
        rows, shift = arrays[0][tied], arrays[1][tied]
        heap = np.frombuffer(self.heap, dtype=np.uint8)

        def get(name):
            offsets, lengths = string_slots(rows, self.layout.slot(name))
            return heap, shift + offsets, lengths.astype(np.int64)

        return get

    def table(self, keys, columns) -> Table:
        return RowBlock(self.layout, self._rows(columns), self.heap).to_table()

    def run(self, keys, columns, key_layout) -> RowRun:
        return RowRun(keys, self._rows(columns), self.heap, key_layout)

    def _rows(self, columns) -> np.ndarray:
        """The merged rows, string slots pointing into the joined heap.

        Adding each row's run base re-targets its run-relative offsets
        without touching a string byte.
        """
        # A copy even of a lone span's view of its run: patched below.
        rows = np.concatenate(columns[0])
        if self.bases is None:
            return rows
        shift = _concat(columns[1]).astype(np.uint32)
        layout = self.layout
        for col_index, slot in enumerate(layout.slots):
            if not slot.is_string:
                continue
            byte_off, bit = layout.validity_position(col_index)
            valid = ((rows[:, byte_off] >> np.uint8(bit)) & 1).astype(bool)
            string_slots(rows, slot)[0][valid] += shift[valid]
        return rows


def _gather(parts: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """A round's span slices in merge order (a lone span already is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)[order]


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that hands a lone part through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _trailing_tie_start(prefix: np.ndarray) -> int:
    """First row of the trailing maximal group of equal prefix rows.

    Returns 0 when every row of ``prefix`` belongs to one tied group
    (the whole batch must be carried into the next merge round).  Rows
    are compared with the last one from the end, in growing steps: the
    group is usually short, and the rows before it are never read.
    """
    end, step = len(prefix), 64
    while end > 0:
        start = max(0, end - step)
        differs = np.any(prefix[start:end] != prefix[-1], axis=1)
        if differs.any():
            return start + int(np.flatnonzero(differs)[-1]) + 1
        end, step = start, 2 * step
    return 0
