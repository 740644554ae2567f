"""Run generation: the stage every run store shares.

:class:`RunGenerator` turns a buffer of input chunks into one sorted run
-- the chunks joined (a lone chunk is not copied), key statistics, one
stable sort of the keys as uint64 words, each packed when first read
(:func:`repro.keys.normalizer.key_words`) -- and hands it over as an
:class:`InMemoryRun`: the table as it arrived, its key words, and the
positions of its rows in key order (the paper's Figure 11 sorts keys
that carry a row id; here the position is the row id).  Nothing is
gathered: a result made of one run is one ``Table.take``, and a spill
file holds the same three things (:mod:`repro.sort.spillfile`).  Where a
VARCHAR prefix truncates, the exact-string repair happens once, in the
merger, on tie groups that by then span all runs.
What happens to the run next is the *store's* business:
:class:`~repro.sort.operator.SortOperator` keeps it resident,
:class:`~repro.sort.external.ExternalSortOperator` spills it,
:class:`~repro.sort.incremental.IncrementalSorter` compacts it with its
neighbours.  The run format -- key layout, key-carried spill files -- is
decided here once for all.

The batch replacement selection and the presortedness probe at the end
of the module have no caller in the engine: the end-to-end benchmark's
probes bind them, and they go with ROADMAP item A.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.errors import UnencodableString
from repro.keys.compression import (
    KeyStatsAccumulator,
    key_carried_eligible,
    plain_key_width,
)
from repro.keys.normalizer import KeyLayout, KeyWords, key_words
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import argsort_rows
from repro.table.chunk import DataChunk, concat_chunks
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "InMemoryRun",
    "ReplacementSelection",
    "RunGenerator",
    "SelectionRun",
    "presortedness",
]


@dataclass(eq=False)
class InMemoryRun:
    """A sorted run held resident: what :class:`RunGenerator` produces.

    ``table``, the rows as they arrived; ``words``, their keys under
    ``layout`` as uint64 word columns in table order
    (:func:`~repro.keys.normalizer.key_words`); ``positions``, the int64
    position in ``table`` of each row in key order.  A VARCHAR key
    column's UTF-8 form is the column's own (a rebase reads its prefix
    classes, exact-string refinement its tied strings).  No key bytes, no
    row matrix, no heap: a result made of resident runs is one
    ``Table.take`` by position, and the merge frontier reads
    :meth:`key_block`'s words.  A spill file holds a run as it is -- its
    key words in key order, then its table and positions; its payload
    read back is one of these whose ``words`` stay on disk (``None``).
    """

    words: list[np.ndarray] | None
    layout: KeyLayout
    table: Table
    positions: np.ndarray

    on_disk = False
    path = "<memory>"

    @property
    def num_rows(self) -> int:
        return len(self.positions)

    def key_block(self, start: int, stop: int) -> list[np.ndarray]:
        """Key word columns of the rows ``[start, stop)`` in key order."""
        positions = self.positions[start:stop]
        return [word[positions] for word in self.words]

    def rebased(self, layout: KeyLayout) -> "InMemoryRun":
        """The run with its keys packed anew under a wider ``layout``
        (from its own table: the values, not the old codes, are encoded)."""
        words = key_words(self.table, layout)
        return dataclasses.replace(self, words=words, layout=layout)


class RunGenerator:
    """Buffered chunks in, one sorted :class:`InMemoryRun` out.

    Holds what must be shared *across* the runs of one sort: the
    monotone key-statistics accumulator (so key layouts only ever widen
    and every earlier run rebases losslessly onto :attr:`layout`) and
    the run-format decision (:attr:`key_carried`).
    ``stats`` is the owning operator's
    :class:`~repro.sort.operator.SortStats`; ``check_cancelled`` its
    cooperative-cancellation checkpoint.
    """

    def __init__(
        self,
        schema: Schema,
        spec: SortSpec,
        config,
        stats,
        check_cancelled: Callable[[], None],
    ) -> None:
        self.schema = schema
        self.spec = spec
        self.config = config
        self.stats = stats
        self.check_cancelled = check_cancelled
        self._key_acc = KeyStatsAccumulator(schema, spec, config.string_prefix)
        #: Key-carried spill files: when the key segments alone
        #: reconstruct every column exactly, a spilled run writes its
        #: keys and no payload rows at all.
        self.key_carried = key_carried_eligible(schema, spec)
        #: The key layout covering every run generated so far (the
        #: accumulator's latest, widest one); ``None`` before the first.
        self.layout: KeyLayout | None = None

    def encode(self, chunks: list[DataChunk]) -> tuple[Table, KeyWords]:
        """Concatenate the buffered chunks once and read their statistics.

        Returns ``(table, words)``: ``table``'s
        :func:`~repro.keys.normalizer.key_words` under :attr:`layout`,
        packed on first read from the values and the UTF-8 forms (a
        VARCHAR column's own) the statistics pass read.  A value with no
        UTF-8 form is named by its row in the sort's input.
        """
        self.check_cancelled()
        stats = self.stats
        with stats.time_phase("encode"):
            table = concat_chunks(chunks)
            # The accumulator has seen every row so far, so this run's
            # layout is at least as wide as every earlier run's; the
            # merge rebases narrower runs onto the last.
            try:
                encoded = self._key_acc.update(table)
            except UnencodableString as error:
                raise error.shifted(stats.rows_sorted) from None
            layout = self.layout = self._key_acc.build_layout(
                include_row_id=False
            )
            words = key_words(table, layout, encoded)
            stats.key_width_used = layout.key_width
            stats.key_width_full = plain_key_width(layout)
            stats.prefix_exact = stats.prefix_exact and all(
                segment.prefix_exact for segment in layout.segments
            )
            stats.rows_sorted += len(table)
        return table, words

    def sort_run(self, table: Table, words, consume=False) -> InMemoryRun:
        """Sort one encoded batch into a run: nothing is gathered.

        One stable sort of the key words it reads (``consume``: sorted in
        place, for a run whose words are dropped unread); a run's
        positions are its row ids, and runs merge in generation order.
        Truncated VARCHAR prefixes sort by their bytes here; the merger
        repairs the tie groups.
        """
        with self.stats.time_phase("run_gen"):
            order = vector_sort_rows(words, self.stats, consume)
            self.stats.runs_generated += 1
            self.stats.run_lengths.append(len(order))
            return InMemoryRun(words, self.layout, table, order)


# ---------------------------------------------------------------------- #
# Uncalled: bound by benchmarks/e2e, goes with ROADMAP item A
# ---------------------------------------------------------------------- #

PROBE_SAMPLE = 4096
"""Pairs sampled by :func:`presortedness`."""

PROBE_STRIDE = 256
"""Distance between the rows of each sampled pair: displacement smaller
than the stride is invisible, while genuine global disorder still probes
~0.5 (random) or ~0.0 (reverse)."""

DEFAULT_BATCH_ROWS = 1024
"""Candidate-window rows per segment per selection step."""


def presortedness(
    matrix: np.ndarray,
    sample: int = PROBE_SAMPLE,
    stride: int = PROBE_STRIDE,
) -> float:
    """Fraction of non-decreasing first-word pairs ``stride`` apart.
    Uncalled: bound by ``benchmarks/e2e``, goes with ROADMAP item A.

    ``matrix`` is a normalized-key byte matrix (row-id suffix excluded
    by the caller); only the first 8 bytes -- the first comparison word
    -- are inspected, and ties on it count as in-order.
    """
    n = len(matrix)
    if n < 2:
        return 1.0
    stride = max(1, min(stride, n - 1))
    width = min(8, matrix.shape[1])
    starts = np.unique(
        np.linspace(0, n - 1 - stride, min(sample, n - stride)).astype(
            np.int64
        )
    )
    pairs = np.concatenate([starts, starts + stride])
    words = np.zeros((len(pairs), 8), dtype=np.uint8)
    words[:, :width] = matrix[pairs][:, :width]
    words = np.ascontiguousarray(words).view(">u8").reshape(-1)
    count = len(starts)
    return float(np.mean(words[count:] >= words[:count]))


class _Segment:
    """One sorted batch of the working set.

    ``matrix`` rows ``[0, cur)`` are consumed (emitted into the current
    run, or recorded in ``deferred`` for the next one); ``deferred``
    holds the skipped ``[lo, hi)`` ranges in ascending position (and
    therefore ascending key) order.
    """

    __slots__ = ("table_id", "matrix", "positions", "cur", "deferred")

    def __init__(
        self, table_id: int, matrix: np.ndarray, positions: np.ndarray
    ) -> None:
        self.table_id = table_id
        self.matrix = matrix
        self.positions = positions
        self.cur = 0
        self.deferred: list[tuple[int, int]] = []

    @property
    def pending(self) -> int:
        held = sum(hi - lo for lo, hi in self.deferred)
        return held + (len(self.matrix) - self.cur)


@dataclass
class SelectionRun:
    """One closed run: keys in emission order plus payload references.

    ``keys`` holds the key rows in emission order; row ``i``'s payload is row
    ``positions[i]`` of ``tables[table_ids[i]]`` (:meth:`payload`).
    """

    keys: np.ndarray
    table_ids: np.ndarray
    positions: np.ndarray
    layout: KeyLayout
    tables: dict[int, object] = field(default_factory=dict)

    def payload(self) -> Table:
        """The run's payload rows in emission order, one gather per table.

        Within each source table the emitted positions ascend (a sorted
        segment is consumed front to back), so one ``take`` per table
        plus one interleaving gather reconstructs emission order.
        """
        unique = np.unique(self.table_ids)
        if len(unique) == 1:
            return self.tables[int(unique[0])].take(self.positions)
        parts: list[Table] = []
        gather = np.empty(len(self.table_ids), dtype=np.int64)
        base = 0
        for table_id in unique:
            selected = np.flatnonzero(self.table_ids == table_id)
            parts.append(
                self.tables[int(table_id)].take(self.positions[selected])
            )
            gather[selected] = base + np.arange(
                len(selected), dtype=np.int64
            )
            base += len(selected)
        return parts[0].concat(*parts[1:]).take(gather)


class ReplacementSelection:
    """Batch replacement selection over normalized-key byte matrices.

    Classic replacement selection (Knuth vol. 3, sec. 5.4.1) emits the
    smallest held row still >= the last row written (the *fence*) and
    defers smaller rows to the next run.  Here it is a batch tournament
    over sorted segments: each fed batch is one sorted segment; one
    :meth:`step` ranks a candidate window from the head of every segment
    plus the fence with one :func:`~repro.sort.kernels.argsort_rows`
    call and emits every candidate above the fence and at most the
    smallest unfinished window's tail (the k-way merge's frontier rule),
    deferring the candidates below the fence.  Key rows carry a unique
    row-id suffix, so how rows split into runs never changes a merge's
    output.  At :meth:`close_run` each segment's deferred ranges and
    unconsumed tail concatenate, already sorted, into its next segment.

    Protocol: :meth:`feed` sorted batches in arrival order, call
    :meth:`step` to emit one batch of the current run, watch
    :attr:`exhausted` / :attr:`run_rows` to decide when to
    :meth:`close_run`.  ``rebase`` (injected) widens every held matrix
    when the key layout grows -- layouts only ever widen, so
    re-encoding is lossless and order-preserving.
    """

    def __init__(
        self,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        rebase=None,
    ) -> None:
        if batch_rows <= 0:
            raise ValueError("batch_rows must be positive")
        self._batch = batch_rows
        self._rebase = rebase
        self._segments: list[_Segment] = []
        self._tables: dict[int, object] = {}
        self._next_table = 0
        self._layout = None
        self._fence: np.ndarray | None = None  # (1, width) last emitted key
        self._run_keys: list[np.ndarray] = []
        self._run_tids: list[np.ndarray] = []
        self._run_pos: list[np.ndarray] = []
        self.run_rows = 0
        self.exhausted = False  # nothing in the working set is >= fence

    @property
    def pending_rows(self) -> int:
        """Unconsumed rows across all segments (eligible + deferred)."""
        return sum(segment.pending for segment in self._segments)

    def feed(
        self,
        matrix: np.ndarray,
        positions: np.ndarray,
        table,
        layout=None,
    ) -> None:
        """Add one sorted batch (full-width keys, row-id included)."""
        matrix = np.ascontiguousarray(matrix)
        if self._layout is None:
            self._layout = layout
        elif layout != self._layout:
            # Eager rebase: the accumulator only widens layouts, so every
            # held matrix (segments, fence, the open run's batches)
            # re-encodes losslessly onto the new one.
            old = self._layout
            for segment in self._segments:
                segment.matrix = self._rebase(segment.matrix, old, layout)
            if self._fence is not None:
                self._fence = self._rebase(self._fence, old, layout)
            self._run_keys = [
                self._rebase(block, old, layout) for block in self._run_keys
            ]
            self._layout = layout
        if self._segments and matrix.shape[1] != self._segments[0].matrix.shape[1]:
            raise ValueError(
                "replacement selection fed mismatched key widths "
                f"({matrix.shape[1]} vs {self._segments[0].matrix.shape[1]})"
            )
        if not len(matrix):
            return
        table_id = self._next_table
        self._next_table += 1
        self._tables[table_id] = table
        self._segments.append(
            _Segment(table_id, matrix, np.asarray(positions, dtype=np.int64))
        )
        self.exhausted = False

    def step(self) -> int:
        """One selection batch; returns the rows emitted into the run.

        Always makes progress while rows remain: candidates below the
        fence are deferred (cursor advances past them) even on a
        zero-emission step.  Sets :attr:`exhausted` when the whole
        working set sits below the fence, i.e. the run must close.
        """
        window_rows = self._batch
        live = [s for s in self._segments if s.cur < len(s.matrix)]
        if not live:
            self.exhausted = self.pending_rows > 0
            return 0
        windows: list[np.ndarray] = []
        counts: list[int] = []
        incomplete: list[bool] = []
        for segment in live:
            end = min(segment.cur + window_rows, len(segment.matrix))
            windows.append(segment.matrix[segment.cur : end])
            counts.append(end - segment.cur)
            incomplete.append(end < len(segment.matrix))
        stacked = windows[0] if len(windows) == 1 else np.concatenate(windows)
        fenced = self._fence is not None
        if fenced:
            stacked = np.concatenate([stacked, self._fence])
        order = argsort_rows(np.ascontiguousarray(stacked))
        total = len(stacked)
        rank = np.empty(total, dtype=np.int64)
        rank[order] = np.arange(total, dtype=np.int64)
        # Keys are unique (row-id suffix) and the fence was already
        # emitted, so rank > fence_rank is exactly "key > fence" -- the
        # eligibility test.
        fence_rank = int(rank[total - 1]) if fenced else -1
        offsets = np.concatenate(
            [[0], np.cumsum(np.asarray(counts, dtype=np.int64))]
        )
        # Frontier rule: nothing past an unfinished window has been
        # seen, so only rows <= the smallest unfinished window tail may
        # leave the working set this step.
        cutoff_rank = total - 1
        for index, unfinished in enumerate(incomplete):
            if unfinished:
                cutoff_rank = min(
                    cutoff_rank, int(rank[offsets[index + 1] - 1])
                )
        window_ranks = rank[: total - 1] if fenced else rank
        segment_of = np.repeat(
            np.arange(len(live), dtype=np.int64), counts
        )
        consumed = np.bincount(
            segment_of[window_ranks <= cutoff_rank], minlength=len(live)
        )
        if fenced:
            below = np.bincount(
                segment_of[window_ranks <= fence_rank], minlength=len(live)
            )
        else:
            below = np.zeros(len(live), dtype=np.int64)
        starts = [segment.cur for segment in live]
        for index, segment in enumerate(live):
            taken = int(consumed[index])
            held = min(int(below[index]), taken)
            if held:
                segment.deferred.append((segment.cur, segment.cur + held))
            segment.cur += taken
        emit = order[fence_rank + 1 : cutoff_rank + 1]
        if not len(emit):
            self.exhausted = not any(incomplete) and self.pending_rows > 0
            return 0
        keys = np.ascontiguousarray(stacked[emit])
        segment_ids = segment_of[emit]
        local = emit - offsets[segment_ids]
        table_ids = np.empty(len(emit), dtype=np.int64)
        positions = np.empty(len(emit), dtype=np.int64)
        for index, segment in enumerate(live):
            mask = segment_ids == index
            if not mask.any():
                continue
            table_ids[mask] = segment.table_id
            positions[mask] = segment.positions[starts[index] + local[mask]]
        self._run_keys.append(keys)
        self._run_tids.append(table_ids)
        self._run_pos.append(positions)
        self.run_rows += len(emit)
        self._fence = keys[-1:].copy()
        self.exhausted = False
        return len(emit)

    def close_run(self) -> SelectionRun:
        """Seal the open run, reset the fence, compact the segments."""
        if self.run_rows == 0:
            raise ValueError("close_run with no emitted rows")
        keys = (
            self._run_keys[0]
            if len(self._run_keys) == 1
            else np.concatenate(self._run_keys)
        )
        table_ids = np.concatenate(self._run_tids)
        positions = np.concatenate(self._run_pos)
        run = SelectionRun(
            np.ascontiguousarray(keys),
            table_ids,
            positions,
            self._layout,
            {
                int(table_id): self._tables[int(table_id)]
                for table_id in np.unique(table_ids)
            },
        )
        self._run_keys.clear()
        self._run_tids.clear()
        self._run_pos.clear()
        self.run_rows = 0
        self._fence = None
        self.exhausted = False
        survivors: list[_Segment] = []
        for segment in self._segments:
            matrix_parts = [
                segment.matrix[lo:hi] for lo, hi in segment.deferred
            ]
            position_parts = [
                segment.positions[lo:hi] for lo, hi in segment.deferred
            ]
            if segment.cur < len(segment.matrix):
                matrix_parts.append(segment.matrix[segment.cur :])
                position_parts.append(segment.positions[segment.cur :])
            if not matrix_parts:
                continue
            # Deferred ranges ascend in position (hence key) order and
            # every deferred row is below the fence its successors
            # survived, so the concatenation is already sorted.
            survivors.append(
                _Segment(
                    segment.table_id,
                    np.ascontiguousarray(np.concatenate(matrix_parts)),
                    np.concatenate(position_parts),
                )
            )
        self._segments = survivors
        keep = {segment.table_id for segment in survivors}
        self._tables = {
            table_id: table
            for table_id, table in self._tables.items()
            if table_id in keep
        }
        return run
