"""Run generation: the stage every run store shares.

:class:`RunGenerator` turns a buffer of input chunks into one sorted run
-- one ``Table.concat``, key statistics, every key packed into uint64
words (:func:`repro.keys.normalizer.key_words`), one stable sort of the
words -- and hands it over as an :class:`InMemoryRun`: the table as it
arrived, its key words, and the positions of its rows in key order (the
paper's Figure 11 sorts keys that carry a row id; here the position is
the row id).  Nothing is gathered: a result made of one run is one
``Table.take``.  Key bytes with a row-id suffix, NSM payload rows and a
string heap are the spill format, built only for a run written to a
spill file or merged with one (:meth:`InMemoryRun.to_row_run`).  Where a
VARCHAR prefix truncates, the exact-string repair happens once, in the
merger, on tie groups that by then span all runs.
What happens to the run next is the *store's* business:
:class:`~repro.sort.operator.SortOperator` keeps it resident,
:class:`~repro.sort.external.ExternalSortOperator` spills it (and may
regroup rows into longer runs with replacement selection first, below),
:class:`~repro.sort.incremental.IncrementalSorter` compacts it with its
neighbours.  The run format -- key layout, key-carried spill files -- is
decided here once for all.

Replacement-selection run generation over normalized-key matrices
-----------------------------------------------------------------

The external sort's run generation cuts a run at a fixed row threshold:
buffer ``run_threshold`` rows, argsort, spill, repeat.  That ignores
input order entirely -- a nearly sorted stream still produces
``n / threshold`` runs.  Classic replacement selection (Knuth vol. 3,
sec. 5.4.1; reaffirmed as one of the two big external-sort levers by
Polyntsov et al., arXiv 2207.12713) makes fewer: keep a selection
working set, repeatedly emit its smallest row that is still >= the last
row written (the *fence*), and defer smaller rows to the next run.  On
random input runs average twice the working set; on input whose
disorder is smaller than the working set, one run can swallow the whole
stream.  Fewer runs buy nothing while one merge pass takes them all,
and the selection steps cost more than the run sort they replace, so it
runs only when ``SortConfig.replacement_selection`` asks for it.

A row-at-a-time tournament tree is the textbook implementation, but a
Python loop per row is exactly what this codebase avoids.  This module
reformulates replacement selection as a **batch tournament over sorted
segments**:

* each fed batch is argsorted once (the same vectorized kernels run
  generation already uses) and enters the working set as a *sorted
  segment* -- a key matrix plus the positions mapping rows back to the
  source table;
* one selection step takes a fixed-size candidate window from the head
  of every segment, ranks all windows plus the fence with a single
  :func:`~repro.sort.kernels.argsort_rows` call, and emits every
  candidate that is above the fence and below the *cutoff* -- the
  smallest unfinished window's tail, the same frontier rule the k-way
  merge kernel uses, which guarantees no unseen row could precede an
  emitted one;
* candidates below the fence are *deferred*: their (contiguous) window
  prefix is recorded and the cursor skips them, so each step advances
  even when nothing is emittable.

Because every spilled key row carries a unique ascending row-id suffix,
keys are distinct and the final k-way merge produces byte-identical
output no matter how rows were partitioned into runs -- replacement
selection only changes *how many* runs there are, never the result.

When a run closes (no row in the working set is >= the fence, or the
run hits ``RUN_CAP_FACTOR`` times the threshold), each segment compacts
its deferred ranges and unconsumed tail into a new sorted segment: the
deferred ranges are ascending in position order and every one is below
the fence the tail survived, so concatenation preserves sortedness
without a re-sort.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.keys.compression import (
    KeyStatsAccumulator,
    key_carried_eligible,
    plain_key_width,
)
from repro.keys.normalizer import KeyLayout, key_words, words_to_bytes
from repro.rows.block import RowBlock
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import argsort_rows
from repro.table.chunk import DataChunk, concat_chunks
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "ROW_ID_WIDTH",
    "RUN_CAP_FACTOR",
    "InMemoryRun",
    "ReplacementSelection",
    "RowRun",
    "RunGenerator",
    "SelectionRun",
    "presortedness",
]

ROW_ID_WIDTH = 8
"""Bytes of the row-id suffix every run appends to its keys."""

RUN_CAP_FACTOR = 4
"""A replacement-selection run closes at this multiple of the run
threshold even if rows are still eligible, bounding the key rows and
payload references accumulated for one run."""

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

    ``keys`` is ready to spill as-is; row ``i``'s payload is row
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
    """Batch replacement selection; the operator feeds and drains it.

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


# ---------------------------------------------------------------------- #
# The shared run generator
# ---------------------------------------------------------------------- #


@dataclass(eq=False)
class InMemoryRun:
    """A sorted run held resident: what :class:`RunGenerator` produces.

    ``table``, the rows as they arrived; ``words``, their keys under
    ``layout`` as the uint64 word columns
    :func:`~repro.keys.normalizer.key_words` packs, in table order;
    ``positions``, the int64 position in ``table`` of each row in key
    order; ``encoded``, the UTF-8 ``(buffer, lengths)`` of each VARCHAR
    *key* column in table order (the key statistics pass made them;
    exact-string refinement reads tied strings there); ``row_id_base``,
    the row id of the table's first row.  No key bytes, no row matrix, no
    heap, whatever the columns: a result made of resident runs is one
    ``Table.take`` by position, and the merge frontier reads
    :meth:`key_block`'s words.
    :class:`~repro.sort.operator.SortOperator` and the incremental
    sorter keep their runs in this form;
    :class:`~repro.sort.external.ExternalSortOperator` writes a cut
    run's :meth:`to_row_run` to a spill file (keeping the run as it is
    when no spill target is writable) and keeps the tail run.
    """

    words: list[np.ndarray]
    layout: KeyLayout
    table: Table
    positions: np.ndarray
    encoded: dict
    row_id_base: int

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
        words = key_words(self.table, layout, self.encoded)
        return dataclasses.replace(self, words=words, layout=layout)

    def to_row_run(self, keys_only: bool = False) -> "RowRun":
        """The run in the spill format: key rows (key bytes plus the
        big-endian row-id suffix), NSM payload rows, heap, in key order.

        Built for a run written to a spill file, or merged with one; the
        heap is the run's string columns in table order, VARCHAR keys
        from ``encoded`` as they are.  ``keys_only`` (a key-carried sort)
        leaves the rows and heap empty.
        """
        layout, count = self.layout, self.num_rows
        keys = np.empty((count, layout.total_width), dtype=np.uint8)
        keys[:, : layout.key_width] = words_to_bytes(
            self.key_block(0, count), layout.key_width
        )
        ids = (self.positions + self.row_id_base).astype(">u8").view(np.uint8)
        keys[:, layout.key_width :] = ids.reshape(count, ROW_ID_WIDTH)
        if keys_only:
            return RowRun.keys_only(keys, layout)
        block = RowBlock.from_table(self.table, self.encoded)
        block = block.take(self.positions)
        return RowRun(keys, block.rows, block.heap, layout)


class RowRun:
    """A resident run in the spill format: key rows, NSM rows, heap.

    What :meth:`InMemoryRun.to_row_run` builds, what replacement
    selection packs, and what a merge that reads spilled runs makes of an
    intermediate pass (kept resident when no spill target takes it).
    ``read_key_block`` / ``read_row_block`` / ``read_heap`` are
    :class:`~repro.sort.external.SpilledRun`'s reads, so such a merge
    streams any mix of the two alike.  Key-carried runs have zero-width
    rows and an empty heap.
    """

    on_disk = False
    path = "<memory>"

    def __init__(
        self,
        keys: np.ndarray,
        rows: np.ndarray,
        heap: bytes,
        layout: KeyLayout,
    ) -> None:
        self.keys = np.ascontiguousarray(keys)
        self.rows = np.ascontiguousarray(rows)
        self.heap = heap
        self.layout = layout

    @classmethod
    def keys_only(cls, keys: np.ndarray, layout: KeyLayout) -> "RowRun":
        """A key-carried run: zero-width rows, no heap."""
        return cls(keys, np.empty((len(keys), 0), dtype=np.uint8), b"", layout)

    @property
    def num_rows(self) -> int:
        return len(self.keys)

    def to_row_run(self, keys_only: bool = False) -> "RowRun":
        return self

    def read_key_block(self, start: int, stop: int, stats=None) -> np.ndarray:
        return self.keys[start:stop]

    def read_row_block(self, start: int, stop: int, stats=None) -> np.ndarray:
        return self.rows[start:stop]

    def read_heap(self, stats=None) -> bytes:
        return self.heap


class RunGenerator:
    """Buffered chunks in, one sorted :class:`InMemoryRun` out.

    Holds what must be shared *across* the runs of one sort: the
    monotone key-statistics accumulator (so key layouts only ever widen
    and every earlier run rebases losslessly onto :attr:`layout`), the
    global row-id counter (unique ascending ids make every merge
    stable), and the run-format decision (:attr:`key_carried`).
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
        self.has_string_key = any(
            schema.column(name).dtype.type_id is TypeId.VARCHAR
            for name in spec.column_names
        )
        self._key_acc = KeyStatsAccumulator(schema, spec, config.string_prefix)
        #: Key-carried spill files: when the key segments alone
        #: reconstruct every column exactly, a spilled run writes its
        #: keys and no payload rows at all.
        self.key_carried = key_carried_eligible(schema, spec)
        #: The key layout covering every run generated so far (the
        #: accumulator's latest, widest one); ``None`` before the first.
        self.layout: KeyLayout | None = None
        self._next_row_id = 0

    def encode(
        self, chunks: list[DataChunk]
    ) -> tuple[Table, list[np.ndarray], dict, int]:
        """Concatenate the buffered chunks once and pack their keys.

        Returns ``(table, words, encoded, row_id_base)``: the
        :func:`~repro.keys.normalizer.key_words` of ``table`` under
        :attr:`layout`, made from the order codes and UTF-8 buffers the
        statistics pass computed; the VARCHAR key columns' ``(buffer,
        lengths)``, the run's one crossing from ``str``, read by the key
        windows, by exact-string refinement and, once the run is written
        to a spill file, as its heap; and the row id of the table's first
        row.
        """
        self.check_cancelled()
        stats = self.stats
        with stats.time_phase("encode"):
            table = concat_chunks(chunks)
            # The accumulator has seen every row so far, so this run's
            # layout is at least as wide as every earlier run's; the
            # merge rebases narrower runs onto the last.
            encoded = self._key_acc.update(table)
            layout = self.layout = self._key_acc.build_layout(
                include_row_id=True, row_id_width=ROW_ID_WIDTH
            )
            words = key_words(table, layout, encoded)
        row_id_base = self._next_row_id
        self._next_row_id += len(table)
        stats.key_width_used = layout.key_width
        stats.key_width_full = plain_key_width(layout)
        stats.prefix_exact = stats.prefix_exact and all(
            segment.prefix_exact for segment in layout.segments
        )
        stats.rows_sorted += len(table)
        strings = {k: v for k, v in encoded.items() if isinstance(v, tuple)}
        return table, words, strings, row_id_base

    def argsort(self, words: list[np.ndarray]) -> np.ndarray:
        """Stable vectorized sort of the key words.

        Row ids ascend with row index, so a stable sort of the key alone
        is the order of the whole key rows.  Truncated VARCHAR prefixes
        sort by their bytes here; the merger repairs the tie groups.
        """
        return vector_sort_rows(words, self.stats)

    def sort_run(
        self, table: Table, words: list, encoded: dict, row_id_base: int
    ) -> InMemoryRun:
        """Sort one encoded batch into a run: nothing is gathered."""
        with self.stats.time_phase("run_gen"):
            order = self.argsort(words)
        self._count(len(order))
        layout = self.layout
        return InMemoryRun(words, layout, table, order, encoded, row_id_base)

    def pack(self, keys: np.ndarray, layout: KeyLayout, payload: Table):
        """Seal a replacement-selection run in the spill format: its key
        rows (row ids included) and ``payload``, both in key order."""
        self._count(len(keys))
        if self.key_carried:
            return RowRun.keys_only(keys, layout)
        block = RowBlock.from_table(payload)
        return RowRun(keys, block.rows, block.heap, layout)

    def _count(self, rows: int) -> None:
        self.stats.runs_generated += 1
        self.stats.run_lengths.append(rows)
