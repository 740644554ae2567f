"""The merger: one k-way pass over sorted runs, whatever store holds them.

Every run store -- resident, spilling, compacting -- finishes through
:class:`RunMerger`.  It streams every run's key blocks -- resident
(:class:`~repro.sort.rungen.InMemoryRun`), spilled
(:class:`~repro.sort.external.SpilledRun`) or a mix -- through the
block-streaming frontier kernel (:func:`repro.sort.kernels.
kway_merge_blocks`): each round tops up every run frontier that runs low
with its next key block, finds the global cutoff from the frontier tails
and emits everything below it with one stable sort, so every row is
moved once and the key working set is ``k * (block_rows + block_rows //
4)`` rows no matter how large the runs are.

* **Keys are words end to end** -- the kernel reads uint64 key word
  columns: a resident run's own, or a spilled block's, which the file
  holds as word rows (read and CRC-checked once, transposed once).  The
  kernel reports each round as one contiguous span per contributing run
  plus one permutation, writes the round's merged key words straight
  into the key buffer of a pass that keeps them (a key-carried result, a
  new run) and hands them to the string repair: no key byte is made.
* **Layout rebase** -- runs encoded under a narrower key layout are
  re-encoded onto the final one: a resident run from its table, a
  spilled one block by block as it streams, on the word columns the
  kernel reads (:func:`~repro.keys.compression.rebase_words`).
* **Exact strings** -- runs arrive sorted by key bytes, so rows tied
  on the bytes up to the first truncated VARCHAR segment may still
  reorder once the full strings are consulted, and such a tie group can
  straddle a round boundary.  Each round's trailing tie group is held
  back (the carry); every settled batch is refined with the adaptive
  re-encode loop (:func:`repro.sort.stringsort.refine_key_order`)
  on the tied rows' string bytes where they lie -- the UTF-8 forms of
  the runs' VARCHAR key columns, which a spill file holds as they are;
  no ``str`` decoded -- then emitted.
  This is the sort's one string repair, made by the final pass only
  (:meth:`RunMerger.merge`; an intermediate :meth:`~RunMerger.merge_to_run`
  leaves byte order alone): a tie group reaches it ordered
  by its remaining key bytes, then run, then row id -- the stable
  refinement's precondition -- whereas repairing runs first would hand
  the kernel runs that are no longer byte-sorted whenever key bytes
  follow the truncated segment.
* **Payload** -- one format, whatever the store: a run's table in
  columns plus the positions of its rows in key order, which a spill
  file holds as they are (:mod:`repro.sort.spillfile`) and a pass reads
  whole, once, when it opens the run.  So every merge moves row
  positions only: each round gathers its rows' positions in the run
  tables joined end to end, and the result is one ``Table.take`` by them
  (an intermediate pass keeps the joined table, the merged words and the
  positions as its run).  Key-carried spill files hold no payload, and
  such a merge decodes the table from its merged key words.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from repro.keys.compression import decode_key_table, rebase_words
from repro.sort.kernels import KWayBlockStats, kway_merge_blocks
from repro.sort.rungen import InMemoryRun, RunGenerator
from repro.sort.stringsort import inexact_prefix_end, prefix_words, refine_key_order
from repro.table.strings import EncodedStrings
from repro.table.table import Table

__all__ = ["RunMerger"]


class RunMerger:
    """K-way merge of sorted runs into the result table (or one new run).

    ``phase_seconds["refine"]`` (exact-string repair) and ``["decode"]``
    (the result table) are timed here, inside a caller's ``"merge"``.

    Finishes what ``generator`` began: the run format (the key layout
    covering every run, whether runs are key-carried), the config, the
    stats and the cancellation checkpoint are the generator's.
    ``block_rows`` bounds each run's frontier block.
    ``make_prefetcher(runs, key_fetch)`` is the spilling store's
    read-ahead hook; it may return ``None``.
    """

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
        self._words_per_row = -(-key_layout.key_width // 8)

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
        if len(runs) == 1 and self.refine_end is None and not runs[0].on_disk:
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
        A spilled run's payload (none when key-carried) is read and
        decoded here, whole, before any prefetcher exists: a read error
        here leaks no pool.
        """
        stale = [self._stale(run) for run in runs]
        self.stats.key_layout_rebases += sum(stale)
        runs = [
            run.rebased(self.key_layout) if old and not run.on_disk else run
            for run, old in zip(runs, stale)
        ]
        if self.key_carried and any(run.on_disk for run in runs):
            return runs, _KeyPayload(self.key_layout, self.schema)
        with self.stats.time_phase("decode"):
            resident = [
                run.read_payload(self.schema, self.stats)
                if run.on_disk else run
                for run in runs
            ]
        return runs, _PositionPayload(resident)

    # ------------------------------------------------------------------ #
    # Streaming reads
    # ------------------------------------------------------------------ #

    def _stale(self, run) -> bool:
        """Was the run encoded under a narrower layout than the final?"""
        return run.layout != self.key_layout

    def _key_block(self, run, start: int, stop: int, stats):
        """Key word columns of rows ``[start, stop)`` on the final layout.

        A resident run gathers its own (rebased already, if stale).  For a
        spilled run this is the one read (and CRC check) of these words,
        transposed into the columns the kernel reads (one copy per block,
        none per round); a stale block is rebased on them.  (Prefetch
        workers call this with a thread-private ``stats``.)
        """
        if not run.on_disk:
            return run.key_block(start, stop)
        block = run.read_key_block(start, stop, stats)
        if not self._stale(run):
            return np.ascontiguousarray(block.T)
        # The rebase consumes its words: a copy, never the run's own.
        words = np.array(block.T, order="C")
        return rebase_words(words, run.layout, self.key_layout)

    def _key_source(self, run) -> Iterator:
        """A run's key word columns on the final layout, by block."""
        for start in range(0, run.num_rows, self.block_rows):
            stop = min(start + self.block_rows, run.num_rows)
            yield self._key_block(run, start, stop, self.stats)

    # ------------------------------------------------------------------ #
    # The pass
    # ------------------------------------------------------------------ #

    def _merge(
        self, runs: Sequence, payload, final: bool
    ) -> tuple[np.ndarray | None, tuple[list[np.ndarray], ...]]:
        """One pass over ``runs``: ``(keys | None, payload columns)``.

        The ``final`` pass repairs truncated-VARCHAR tie groups and
        gathers only what the result is made from (a key-carried result
        its merged key word columns); an intermediate one keeps byte
        order and gathers the new run's key word rows too.  The payload
        columns hold, per array ``payload.gather`` returns, its settled
        batches in order.
        """
        stats = self.stats
        # A spilling merge takes the kernel's merged key words for a
        # key-carried result or a new run; resident runs hold their own.
        want_keys = any(run.on_disk for run in runs) and (
            self.key_carried or not final
        )
        prefetcher = None
        if self._make_prefetcher:
            prefetcher = self._make_prefetcher(
                runs, lambda i, lo, hi, s: self._key_block(runs[i], lo, hi, s)
            )
        if prefetcher is not None:
            sources = [prefetcher.key_source(i) for i in range(len(runs))]
        else:
            sources = [self._key_source(run) for run in runs]
        # The merged keys a pass keeps, which the kernel gathers into
        # place: a new run's word rows, or the word columns a result is
        # decoded from.
        keys = out = None
        if want_keys:
            shape = (sum(r.num_rows for r in runs), self._words_per_row)
            keys = np.empty(shape[::-1] if final else shape, np.uint64)
            out = keys if final else keys.T
        kernel_stats = KWayBlockStats()
        refine_end = self.refine_end if final else None
        rounds = kway_merge_blocks(
            sources, kernel_stats, emit_keys=refine_end is not None, out=out
        )

        def gathered() -> Iterator[tuple]:
            """Each round's ``(merged key words | None, payload arrays)``:
            its spans' payload slices through its permutation."""
            for order, spans, *merged in rounds:
                # A cancelled sort unwinds between rounds, never
                # mid-read: cleanup sees a consistent set of spill files.
                self._check_cancelled()
                words = merged[0] if merged else None
                yield words, payload.gather(spans, order)
                del order  # not held while the kernel sorts the next round

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
        _, arrays = zip(*parts)
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
        # (*key words, *payload arrays) slices of the open tie group.
        carry: list[tuple[np.ndarray, ...]] = []
        last: list = []

        def settle(parts):
            columns = [_concat(list(column)) for column in zip(*parts)]
            count = self._words_per_row
            words, arrays = columns[:count], columns[count:]
            with self.stats.time_phase("refine"):
                # Only the tied rows' strings are consulted.
                perm = refine_key_order(
                    words,
                    self.key_layout,
                    lambda tied: payload.fetch_tied(arrays, tied),
                    self.stats,
                )
            if perm is not None:
                arrays = [array[perm] for array in arrays]
            return None, tuple(arrays)

        for words, arrays in batches:
            batch = (*words, *arrays)
            prefix = prefix_words(words, self.refine_end)
            tail = _trailing_tie_start(prefix)
            joins = not carry or all(w[0] == v for w, v in zip(prefix, last))
            last = [word[-1] for word in prefix]
            if tail == 0 and joins:
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
    merged word columns, its own to consume (a new run keeps the words
    and decodes its table from a copy)."""

    def __init__(self, key_layout, schema) -> None:
        self.key_layout, self.schema = key_layout, schema

    def gather(self, spans, order) -> tuple:
        return ()

    def table(self, keys, columns) -> Table:
        return decode_key_table(keys, self.key_layout, self.schema)

    def run(self, keys, columns, key_layout) -> InMemoryRun:
        table = self.table([np.array(word) for word in keys.T], columns)
        positions = np.arange(len(keys), dtype=np.int64)
        return InMemoryRun(list(keys.T), key_layout, table, positions)


class _PositionPayload:
    """Each row's position in the run tables joined end to end (run
    ``i``'s rows start at ``bases[i]``): resident runs, and spilled runs'
    payloads read back.  The runs come in generation order, so the joined
    rows' positions are their row ids."""

    def __init__(self, runs: Sequence[InMemoryRun]) -> None:
        self.runs = runs
        sizes = [run.num_rows for run in runs]
        self.bases = np.cumsum([0, *sizes[:-1]], dtype=np.int64)
        self._joined: dict = {}

    def gather(self, spans, order) -> tuple:
        runs, bases = self.runs, self.bases
        ids = [runs[i].positions[lo:hi] + bases[i] for i, lo, hi in spans]
        return (_gather(ids, order),)

    def fetch_tied(self, arrays, tied):
        ids = arrays[0][tied]

        def get(name):
            strings = self._strings(name)
            return strings.buffer, strings.starts[ids], strings.lengths[ids]

        return get

    def table(self, keys, columns) -> Table:
        return self._table().take(_concat(columns[0]))

    def run(self, keys, columns, key_layout) -> InMemoryRun:
        """The pass's new run.  Its words are the runs' own, joined like
        their tables, or -- read from spill files -- the merged ones put
        back in table order; its columns derive their UTF-8 forms from
        the runs'."""
        positions = _concat(columns[0])
        if keys is None:
            runs = self.runs
            words = [_concat(list(w)) for w in zip(*(r.words for r in runs))]
        else:
            words = [np.empty(len(positions), np.uint64) for _ in keys.T]
            for word, merged in zip(words, keys.T):
                word[positions] = merged
        return InMemoryRun(words, key_layout, self._table(), positions)

    def _table(self) -> Table:
        tables = [run.table for run in self.runs]
        return tables[0].concat(*tables[1:]) if len(tables) > 1 else tables[0]

    def _strings(self, name: str) -> EncodedStrings:
        """A VARCHAR key column's UTF-8 forms in the runs, joined once."""
        if name not in self._joined:
            self._joined[name] = EncodedStrings.concat(
                [run.table.column(name).strings(name) for run in self.runs]
            )
        return self._joined[name]


def _gather(parts: list[np.ndarray], order: np.ndarray) -> np.ndarray:
    """A round's span slices in merge order (a lone span already is)."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)[order]


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate`` that hands a lone part through uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _trailing_tie_start(prefix: list[np.ndarray]) -> int:
    """First row of the trailing maximal group of equal prefix rows.

    ``prefix`` holds the rows' :func:`prefix_words`.  Returns 0 when every
    row belongs to one tied group (the whole batch must be carried into
    the next merge round).  Rows are compared with the last one from the
    end, in growing steps: the group is usually short.
    """
    end, step = len(prefix[0]), 64
    while end > 0:
        start = max(0, end - step)
        differs = np.logical_or.reduce([w[start:end] != w[-1] for w in prefix])
        if differs.any():
            return start + int(np.flatnonzero(differs)[-1]) + 1
        end, step = start, 2 * step
    return 0
