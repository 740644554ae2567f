"""Top-N: select on the leading key word, sort only the survivors.

The paper notes that ``ORDER BY ... LIMIT 1`` "will typically trigger a
specialized top N operator rather than the 'normal' sort operator".  This
is that operator.  With ``capacity = limit + offset``, each absorbed batch
keeps the best ``capacity`` rows of the held rows and the batch, with a
run's own key words and no byte layout.

* **Select on the lead word.**  A statistics pass over the first ORDER BY
  key alone packs its first uint64 key word
  (:func:`~repro.keys.normalizer.key_words`).  A row whose word exceeds
  the ``capacity``-th smallest (one ``np.partition``) has ``capacity``
  rows whose first key is strictly smaller, so it is dropped.  The later
  keys, a VARCHAR among them, are encoded only for the survivors.
* **Sort the survivors.**  When more than ``2 * capacity`` rows survive
  (ties on the lead word), they are sorted as a run is: a statistics pass
  over every key, ``key_words`` and the stable
  :func:`~repro.sort.kernels.argsort_words`; truncated-VARCHAR tie groups
  are repaired on the full strings, and the best ``capacity`` rows are
  kept.  ``finalize`` selects once more, sorts what is held the same way
  and slices ``[offset, offset + limit)``.
* **Ties go to arrival order.**  Held rows precede the batch, and both the
  selection mask and the stable sort keep relative order.  Each absorb
  derives its layout from the rows it holds, so no layout outlives it:
  nothing is rebased or escaped, and batches never compare key bytes.

Memory is at most ``2 * capacity`` held rows plus one batch: the
:data:`BATCH_ROWS` rows smaller chunks are buffered to, or one larger
chunk sunk at once (the engine's child chunks: a scan's table, a
filter's selection over it).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError
from repro.keys.compression import KeyStatsAccumulator
from repro.keys.normalizer import key_words
from repro.sort.kernels import argsort_words
from repro.sort.operator import SortConfig, SortStats, raise_if_cancelled
from repro.sort.stringsort import inexact_prefix_end, refine_table_order
from repro.table import VECTOR_SIZE, DataChunk, concat_chunks
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = ["BATCH_ROWS", "TopNOperator", "top_n"]

BATCH_ROWS = 8 * VECTOR_SIZE
"""Rows ``sink`` buffers before one absorb."""


class TopNOperator:
    """Streaming ORDER BY ... LIMIT ... OFFSET with bounded memory.

    ``stats`` reports the sorts the selection did not avoid:
    ``rows_sorted`` counts rows entering survivor sorts (set it against
    the rows sunk), ``sort_passes`` / ``sort_tied_rows`` their kernel
    work, and the exact-string counters the tie repair.
    """

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
            table = self._select()
            if table.num_rows > 2 * self._capacity:
                table = table.take(self._order(table)[: self._capacity])
            self._held = table

    def _select(self) -> Table:
        """The held rows, then the pending ones, without every row that
        has ``capacity`` rows strictly ahead of it on the lead word."""
        chunks = self._pending
        if self._held.num_rows:
            chunks = [DataChunk.from_table(self._held), *chunks]
        self._pending, self._pending_rows = [], 0
        table = concat_chunks(chunks) if chunks else self._held
        if table.num_rows > self._capacity:
            lead = self._words(table, SortSpec(self.spec.keys[:1]))[0][0]
            cut = np.partition(lead, self._capacity - 1)[self._capacity - 1]
            keep = lead <= cut
            if not keep.all():
                table = table.take(np.flatnonzero(keep))
        return table

    def _words(self, table: Table, spec: SortSpec):
        """``table``'s key words under ``spec`` and the layout of its rows."""
        acc = KeyStatsAccumulator(self.schema, spec, self.config.string_prefix)
        encoded = acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        return key_words(table, layout, encoded), layout

    def _order(self, table: Table) -> np.ndarray:
        """Stable key order of ``table``'s rows, exact on full strings."""
        words, layout = self._words(table, self.spec)
        self.stats.rows_sorted += table.num_rows
        order = argsort_words(words, self.stats)
        if inexact_prefix_end(layout) is not None:
            self.stats.prefix_exact = False
            order = refine_table_order(table, words, layout, order, self.stats)
        return order

    def finalize(self) -> Table:
        """The LIMIT rows after OFFSET, in sorted order."""
        raise_if_cancelled(self.config)
        table = self._select()
        if not table.num_rows:
            return table
        order = self._order(table)
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
