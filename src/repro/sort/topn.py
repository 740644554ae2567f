"""Top-N: run generation with a cutoff filter and no merge.

The paper notes that ``ORDER BY ... LIMIT 1`` "will typically trigger a
specialized top N operator rather than the 'normal' sort operator" -- which
is exactly why its benchmark query adds OFFSET 1.  This module provides that
operator.  Its win is in what never enters a sort: with
``capacity = limit + offset``, every chunk is filtered on its normalized
keys before any payload is touched.

* **Encode once per batch.**  ``sink`` buffers; every :data:`BATCH_ROWS`
  rows are concatenated and normalized in one call (per vector, encoding
  cost more than the sorts it saved) under one layout for all batches:
  plain segments, and VARCHAR windows of the fixed
  :data:`~repro.keys.normalizer.MAX_STRING_PREFIX` bytes after the bytes
  the first batch's strings all start with (skipped as the full sort's
  statistics layout skips them; a later string without them is escaped),
  so key bytes compare across batches.
* **Cutoff filter.**  Once ``capacity`` rows are held, the key of the
  ``capacity``-th best of them is the cutoff, and
  :func:`repro.sort.kernels.cutoff_mask` drops every row of a new batch
  that cannot beat it; only the survivors are gathered.  A fixed-width
  leading key is encoded alone first and rows whose lead already sorts
  after the cutoff's are dropped before the rest is encoded.  Rows are
  compared on the *decisive* key prefix: the bytes up to the end of the
  first VARCHAR segment some batch truncated (a difference past it
  decides nothing, because the full string outranks every later ORDER BY
  column), or the whole key when no string was truncated.  When the
  whole key is decisive the test is a strict ``<``: a row equal to the
  cutoff arrived later than it and ties resolve to arrival order, so it
  can never displace it.  When a truncated VARCHAR ends the decisive
  prefix the test is ``<=``: an equal prefix may hide a smaller string.
* **Compaction.**  When ``2 * capacity`` rows are held,
  :func:`repro.sort.kernels.smallest_mask` first drops every row with
  ``capacity`` rows strictly ahead of it on the leading key word; the
  rest go through one stable vector sort (kept rows come before newer
  survivors, all in arrival order, so stability *is* the arrival-order
  tie rule), truncated-VARCHAR tie groups are repaired on the full
  strings, the best ``capacity`` rows are kept and the cutoff is re-read
  from the last of them.  The cutoff only tightens at a compaction; in
  between a stale cutoff lets extra rows through, never too few.

Memory stays O(limit + offset + :data:`BATCH_ROWS`): one unencoded
batch, at most ``2 * capacity`` held rows and one batch's survivors.
``finalize`` absorbs the last partial batch, compacts and slices.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError
from repro.keys.encoding import (
    common_prefix,
    encode_utf8_column,
    ends_in_nul,
    prefix_classes,
)
from repro.keys.normalizer import (
    MAX_STRING_PREFIX,
    KeyLayout,
    KeySegment,
    normalize_keys,
)
from repro.sort.kernels import argsort_rows, cutoff_mask, smallest_mask
from repro.sort.operator import SortConfig, SortStats, raise_if_cancelled
from repro.sort.stringsort import (
    and_prefix_exact,
    inexact_prefix_end,
    refine_table_order,
)
from repro.table import VECTOR_SIZE, DataChunk, chunk_table, concat_chunks
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = ["BATCH_ROWS", "TopNOperator", "top_n"]

BATCH_ROWS = 8 * VECTOR_SIZE
"""Rows ``sink`` buffers before one encode + cutoff filter."""


class TopNOperator:
    """Streaming ORDER BY ... LIMIT ... OFFSET with bounded memory.

    ``stats`` reports the sorts the pruning did not avoid:
    ``rows_sorted`` counts rows entering compaction sorts (set it against
    the rows sunk), ``sort_passes`` / ``sort_tied_rows`` the work of the
    compaction sorts, and the exact-string counters the tie repair.
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
        # Chunks sunk since the last batch was encoded.
        self._pending: list[DataChunk] = []
        self._pending_rows = 0
        # Kept rows first, then survivors in arrival order; part i of
        # the tables and of the key matrices describe the same rows.
        self._tables: list[Table] = []
        self._matrices: list[np.ndarray] = []
        self._held = 0
        # The batches' common key layout, prefix_exact AND-ed over them.
        self._layout = None
        self._decisive = 0
        self._cutoff: np.ndarray | None = None
        # VARCHAR key -> the bytes its segment skips (the first batch's).
        self._skipped: dict[str, bytes] = {}

    def sink(self, chunk: DataChunk) -> None:
        """Buffer one vector batch; every ``BATCH_ROWS`` rows are filtered."""
        raise_if_cancelled(self.config)
        if len(chunk) == 0 or self.limit == 0:
            return
        self._pending.append(chunk)
        self._pending_rows += len(chunk)
        if self._pending_rows >= BATCH_ROWS:
            self._absorb()

    def _absorb(self) -> None:
        """Encode the pending chunks once; keep rows that beat the cutoff."""
        if not self._pending:
            return
        table = concat_chunks(self._pending)
        self._pending = []
        self._pending_rows = 0
        if self._cutoff is not None:
            table = self._lead_filter(table)
            if not table.num_rows:
                return
        encoded = {}
        for key in self.spec.keys:
            column = table.column(key.column)
            if column.dtype.type_id is TypeId.VARCHAR:
                encoded[key.column] = encode_utf8_column(
                    column.data, column.validity, key.column
                )
        keys = normalize_keys(
            table,
            self.spec,
            layout=self._batch_layout(table, encoded),
            encoded=encoded,
        )
        if self._layout is None or not keys.prefix_exact:
            self._layout = (
                keys.layout
                if self._layout is None
                else and_prefix_exact(self._layout, keys.layout)
            )
            truncated_end = inexact_prefix_end(self._layout)
            self.stats.prefix_exact = truncated_end is None
            self._decisive = truncated_end or self._layout.key_width
        matrix = keys.matrix
        if self._cutoff is not None:
            mask = cutoff_mask(
                matrix[:, : self._decisive],
                self._cutoff[: self._decisive],
                inclusive=not self.stats.prefix_exact,
            )
            if not mask.any():
                return
            if not mask.all():
                table, matrix = table.take(np.flatnonzero(mask)), matrix[mask]
        self._tables.append(table)
        self._matrices.append(matrix)
        self._held += len(matrix)
        if self._held >= 2 * self._capacity:
            self._compact()

    def _lead_filter(self, table: Table) -> Table:
        """``table`` without the rows whose leading key sorts after the
        cutoff's: those are never encoded in full.  (A VARCHAR lead is
        left to the full filter: its encoding is the batch's cost.)"""
        lead = self._layout.segments[0]
        if lead.dtype.fixed_width is None:
            return table
        width = lead.total_width
        head = normalize_keys(
            table, self.spec, layout=KeyLayout((lead,), width, 0)
        )
        mask = cutoff_mask(head.matrix, self._cutoff[:width], inclusive=True)
        return table if mask.all() else table.take(np.flatnonzero(mask))

    def _batch_layout(self, table: Table, encoded: dict) -> KeyLayout:
        """The one layout of every batch, this batch's exactness in it.

        Plain segments; a VARCHAR window is :data:`MAX_STRING_PREFIX`
        bytes after the bytes the first batch's strings all start with,
        fixed from then on (a later string without them is escaped), so
        key bytes compare across batches.
        """
        segments, offset = [], 0
        for key in self.spec.keys:
            dtype = self.schema.column(key.column).dtype
            width, exact, skipped = dtype.fixed_width, True, b""
            if key.column in encoded:
                buffer, lengths = encoded[key.column]
                starts = np.cumsum(lengths) - lengths
                if key.column not in self._skipped:
                    valid = table.column(key.column).validity
                    self._skipped[key.column] = (
                        common_prefix(buffer, starts[valid], lengths[valid])
                        if valid.any()
                        else b""
                    )
                skipped, tails = self._skipped[key.column], lengths
                if skipped:
                    shares = prefix_classes(buffer, starts, lengths, skipped)
                    tails = lengths - len(skipped) * (shares == 0)
                width = MAX_STRING_PREFIX
                exact = int(tails.max(initial=0)) <= width and not ends_in_nul(
                    buffer, lengths
                )
            segments.append(
                KeySegment(key, dtype, offset, width, exact, skipped=skipped)
            )
            offset += segments[-1].total_width
        return KeyLayout(tuple(segments), offset, 0)

    def _compact(self) -> None:
        """Sort the buffer, keep the best ``capacity`` rows, reset the cutoff."""
        if not self._tables:
            return
        table = self._tables[0].concat(*self._tables[1:])
        matrix = np.concatenate(self._matrices)
        if len(matrix) > 2 * self._capacity:
            # Select before sorting: a dropped row has `capacity` rows
            # strictly ahead of it inside the decisive prefix.
            mask = smallest_mask(matrix[:, : self._decisive], self._capacity)
            if not mask.all():
                table, matrix = table.take(np.flatnonzero(mask)), matrix[mask]
        self.stats.rows_sorted += len(matrix)
        order = argsort_rows(matrix[:, : self._layout.key_width], self.stats)
        if not self.stats.prefix_exact:
            order = refine_table_order(
                table, matrix, self._layout, order, self.stats
            )
        order = order[: self._capacity]
        self._tables = [table.take(order)]
        self._matrices = [matrix[order]]
        self._held = len(order)
        if self._held == self._capacity:
            self._cutoff = self._matrices[0][-1]

    def finalize(self) -> Table:
        """The LIMIT rows after OFFSET, in sorted order."""
        raise_if_cancelled(self.config)
        self._absorb()
        self._compact()
        if not self._tables:
            return Table.empty(self.schema)
        return self._tables[0].slice(self.offset, self.offset + self.limit)


def top_n(
    table: Table, spec: SortSpec | str, limit: int, offset: int = 0
) -> Table:
    """One-shot top-N over a table."""
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    operator = TopNOperator(table.schema, spec, limit, offset)
    for chunk in chunk_table(table):
        operator.sink(chunk)
    return operator.finalize()
