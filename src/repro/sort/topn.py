"""Top-N: cut each batch on its keys, sort only the survivors.

The paper notes that ``ORDER BY ... LIMIT 1`` "will typically trigger a
specialized top N operator rather than the 'normal' sort operator".  This
is that operator.  With ``capacity = limit + offset``, an absorbed batch
(the held rows, then :data:`BATCH_ROWS` buffered rows or one larger
chunk) of more than ``2 * capacity`` rows is cut to the rows the best
``capacity`` may hold.  :func:`key_cut` partitions the key word by word
among the rows still tied with the ``capacity``-th smallest key: the
order codes of fixed-width keys (:func:`order_words`), or a run's key
words up to a truncated VARCHAR's end, whose ties the full strings
order.  :func:`lead_cut` cuts on one lead word per row first, in a batch
with a VARCHAR key or of ``4 * SAMPLE_WORDS`` rows or more; there it
reads a provisional cut from a strided sample, so the lead words are
the one array as long as the batch.  Survivors beyond ``2 * capacity``
(full ties) are sorted as a run is and ``capacity`` kept; ``finalize``
sorts what is held and slices ``[offset, offset + limit)``.  Ties go to
arrival order: held rows precede the batch, and the cuts and the stable
sort keep order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError
from repro.keys.compression import KeyStatsAccumulator
from repro.keys.encoding import fixed_column_codes
from repro.keys.normalizer import key_words
from repro.sort.kernels import argsort_words
from repro.sort.operator import SortConfig, SortStats, raise_if_cancelled
from repro.sort.stringsort import inexact_prefix_end, prefix_words, refine_table_order
from repro.table import VECTOR_SIZE, DataChunk, concat_chunks
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = ["BATCH_ROWS", "SAMPLE_WORDS", "TopNOperator", "top_n"]

BATCH_ROWS = 8 * VECTOR_SIZE
"""Rows ``sink`` buffers before one absorb."""

SAMPLE_WORDS = 4096
"""Lead words a large batch's provisional cut is read from."""


def order_words(table: Table, keys, lead: bool = False) -> list[np.ndarray]:
    """Fixed-width ``keys``' order codes, DESC inverted, NULLs given the
    lowest or highest code: words that compare as ``table``'s rows sort.
    NULLs sharing that code with a value get a word ranking them first,
    unless ``lead`` asks for one word per key, which a cut may keep ties
    on but never drops a row by wrongly (a VARCHAR's: its lead word)."""
    words = []
    for key in keys:
        column = table.column(key.column)
        if column.dtype.is_variable_width:
            codes = column.strings(key.column).lead_word()
        else:
            codes = fixed_column_codes(column.data, column.dtype)
        if key.descending:
            np.invert(codes, out=codes)
        if column.has_nulls:
            nulls = ~column.validity
            codes[nulls] = edge = 0 if key.nulls_first else ~np.uint64(0)
            shared = np.count_nonzero(codes == edge) > np.count_nonzero(nulls)
            if shared and not lead:
                rank = column.validity if key.nulls_first else nulls
                words.append(rank.astype(np.uint64))
        words.append(codes)
    return words


def key_cut(words: list[np.ndarray], capacity: int) -> np.ndarray | None:
    """Ascending positions of the rows whose key ``words`` (most
    significant first) are at most the ``capacity``-th smallest key, every
    row equal to it kept; ``None`` when that is every row.  Each word is
    read only for the rows tied with the cut on the words before it."""
    rows, need = None, capacity
    for word in words:
        values = word if rows is None else word[rows]
        cut = np.partition(values, need - 1)[need - 1]
        under = values <= cut
        if rows is None:
            keep = under
        else:
            keep[rows] = under
        count = np.count_nonzero(under)
        if count == need:
            break
        tied = np.flatnonzero(values == cut)
        need -= count - len(tied)
        rows = tied if rows is None else rows[tied]
    return None if keep.all() else np.flatnonzero(keep)


def lead_cut(lead: np.ndarray, capacity: int) -> np.ndarray | None:
    """:func:`key_cut` on one ``lead`` word per row; a large batch's cut is
    found among the few words under a provisional cut read from a sample."""
    step = len(lead) // SAMPLE_WORDS
    # About (rank + 1) * step words lie at or under the sample's rank-th:
    # twice capacity, with slack enough that fewer than capacity is rare.
    rank = 2 * capacity // max(step, 1) + 8
    if step >= 4 and 4 * rank < SAMPLE_WORDS:
        rows = np.flatnonzero(lead <= np.partition(lead[::step], rank)[rank])
        if len(rows) >= capacity:
            words = lead[rows]
            cut = np.partition(words, capacity - 1)[capacity - 1]
            return rows[words <= cut]
    return key_cut([lead], capacity)


class TopNOperator:
    """Streaming ORDER BY ... LIMIT ... OFFSET with bounded memory.

    ``stats`` reports the sorts the cuts did not avoid: ``rows_sorted``
    counts rows entering survivor sorts (set it against the rows sunk),
    ``sort_passes`` / ``sort_tied_rows`` their kernel work, and the
    exact-string counters the tie repair."""

    def __init__(
        self,
        schema: Schema,
        spec: SortSpec,
        limit: int,
        offset: int = 0,
        config: SortConfig | None = None,
    ) -> None:
        if limit < 0 or offset < 0:
            raise SortError("limit and offset must be non-negative")
        self.schema = schema
        self.spec = spec
        self.limit = limit
        self.offset = offset
        self.config = config or SortConfig()
        self.stats = SortStats()
        self._capacity = limit + offset
        dtypes = {key.column: schema.column(key.column).dtype for key in spec.keys}
        self._strings = [name for name, t in dtypes.items() if t.is_variable_width]
        # Chunks sunk since the last absorb; the <= 2 * capacity it kept.
        self._pending: list[DataChunk] = []
        self._pending_rows = 0
        self._held = Table.empty(schema)

    def sink(self, chunk: DataChunk) -> None:
        """Buffer one chunk; every ``BATCH_ROWS`` rows are absorbed."""
        raise_if_cancelled(self.config)
        if len(chunk) == 0 or self.limit == 0:
            return
        self._pending.append(chunk)
        self._pending_rows += len(chunk)
        if self._pending_rows >= BATCH_ROWS:
            table, keys = self._select()
            if table.num_rows > 2 * self._capacity:
                table = self._take(table, self._order(table, keys)[: self._capacity])
            self._held = table

    def _select(self):
        """The held rows, then the pending ones, cut when over ``2 *
        capacity``; and the key words and layout the cut made, if any."""
        chunks = self._pending
        if self._held.num_rows:
            chunks = [DataChunk.from_table(self._held), *chunks]
        self._pending, self._pending_rows = [], 0
        table = concat_chunks(chunks) if chunks else self._held
        # A VARCHAR key's words cost a statistics pass and a string gather
        # for every row: the lead word cuts first, as in a large batch.
        lead_first = self._strings or table.num_rows >= 4 * SAMPLE_WORDS
        if table.num_rows > 2 * self._capacity and lead_first:
            lead = order_words(table, self.spec.keys[:1], lead=True)[0]
            rows = lead_cut(lead, self._capacity)
            if rows is not None:
                table = self._take(table, rows)
        if table.num_rows <= 2 * self._capacity:
            return table, None
        words, keys = self._cut_words(table)
        rows = key_cut(words, self._capacity)
        if rows is not None:
            table = self._take(table, rows)
            keys = keys and ([word[rows] for word in keys[0]], keys[1])
        return table, keys

    def _cut_words(self, table: Table):
        """Words comparing as ``table``'s rows sort but for ties up to a
        truncated VARCHAR's end; and the key words and layout, if made."""
        if not self._strings:
            words = order_words(table, self.spec.keys)
            return words, (words, None)
        keys = words, layout = self._words(table, self.spec)
        end = inexact_prefix_end(layout)
        return (words if end is None else prefix_words(words, end)), keys

    def _take(self, table: Table, rows: np.ndarray) -> Table:
        """``table``'s rows at ``rows``, their VARCHAR keys' UTF-8 forms
        gathered while ``table``'s (which a gather holds weakly) live."""
        taken = table.take(rows)
        for name in self._strings:
            taken.column(name).strings(name)
        return taken

    def _words(self, table: Table, spec: SortSpec):
        """``table``'s key words under ``spec`` and the layout of its rows."""
        acc = KeyStatsAccumulator(self.schema, spec, self.config.string_prefix)
        encoded = acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        return key_words(table, layout, encoded), layout

    def _order(self, table: Table, keys=None) -> np.ndarray:
        """Stable key order of ``table``'s rows, exact on full strings;
        ``keys`` are their key words and layout, if already made."""
        words, layout = keys or self._words(table, self.spec)
        self.stats.rows_sorted += table.num_rows
        order = argsort_words(words, self.stats)
        if layout is not None and inexact_prefix_end(layout) is not None:
            self.stats.prefix_exact = False
            order = refine_table_order(table, words, layout, order, self.stats)
        return order

    def finalize(self) -> Table:
        """The LIMIT rows after OFFSET, in sorted order."""
        raise_if_cancelled(self.config)
        table, keys = self._select()
        if not table.num_rows:
            return table
        order = self._order(table, keys)
        return table.take(order[self.offset : self.offset + self.limit])


def top_n(
    table: Table, spec: SortSpec | str, limit: int, offset: int = 0
) -> Table:
    """One-shot top-N over a table (sunk whole, as one batch)."""
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    operator = TopNOperator(table.schema, spec, limit, offset)
    operator.sink(DataChunk.from_table(table))
    return operator.finalize()
