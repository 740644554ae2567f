"""Top-N: run generation with a cutoff filter and no merge.

The paper notes that ``ORDER BY ... LIMIT 1`` "will typically trigger a
specialized top N operator rather than the 'normal' sort operator" -- which
is exactly why its benchmark query adds OFFSET 1.  This module provides that
operator.  Its win is in what never enters a sort: with
``capacity = limit + offset``, every chunk is filtered on its normalized
keys before any payload is touched.

* **Encode once.**  Each chunk is normalized under the fixed
  :data:`~repro.keys.normalizer.MAX_STRING_PREFIX`, so key bytes compare
  across chunks.
* **Cutoff filter.**  Once ``capacity`` rows are held, the key of the
  ``capacity``-th best of them is the cutoff, and
  :func:`repro.sort.kernels.cutoff_mask` drops every row of a new chunk
  that cannot beat it; only the survivors are gathered.  Rows are
  compared on the *decisive* key prefix: the bytes up to the end of the
  first VARCHAR segment some chunk truncated (a difference past it
  decides nothing, because the full string outranks every later ORDER BY
  column), or the whole key when no string was truncated.  When the
  whole key is decisive the test is a strict ``<``: a row equal to the
  cutoff arrived later than it and ties resolve to arrival order, so it
  can never displace it.  When a truncated VARCHAR ends the decisive
  prefix the test is ``<=``: an equal prefix may hide a smaller string.
* **Compaction.**  When the buffer reaches ``2 * capacity`` rows it is
  sorted with one stable vector sort (kept rows are concatenated before
  newer survivors, so stability *is* the arrival-order tie rule),
  truncated-VARCHAR tie groups are repaired on the full strings, the
  best ``capacity`` rows are kept and the cutoff is re-read from the
  last of them.  The cutoff only tightens at a compaction; in between a
  stale cutoff lets extra rows through, never too few.

Memory stays O(limit + offset): at most ``2 * capacity`` buffered rows
plus the survivors of one chunk.  ``finalize`` is one last compaction
and a slice.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SortError
from repro.keys.normalizer import MAX_STRING_PREFIX, normalize_keys
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import cutoff_mask
from repro.sort.operator import SortConfig, SortStats, raise_if_cancelled
from repro.sort.stringsort import (
    and_prefix_exact,
    inexact_prefix_end,
    refine_table_order,
)
from repro.table.chunk import DataChunk, chunk_table
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = ["TopNOperator", "top_n"]


class TopNOperator:
    """Streaming ORDER BY ... LIMIT ... OFFSET with bounded memory.

    ``stats`` reports the sorts the pruning did not avoid:
    ``rows_sorted`` counts rows entering compaction sorts (set it against
    the rows sunk), ``vector_sort_paths`` / ``vector_sort_reasons`` the
    kernel each compaction dispatched to, and the exact-string counters
    the tie repair.
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
        # Kept rows first, then survivors in arrival order; part i of
        # the tables and of the key matrices describe the same rows.
        self._tables: list[Table] = []
        self._matrices: list[np.ndarray] = []
        self._held = 0
        # The chunks' common key layout, prefix_exact AND-ed over them.
        self._layout = None
        self._decisive = 0
        self._cutoff: np.ndarray | None = None

    def sink(self, chunk: DataChunk) -> None:
        """Offer one vector batch; keeps only rows that beat the cutoff."""
        raise_if_cancelled(self.config)
        if len(chunk) == 0 or self.limit == 0:
            return
        table = chunk.to_table()
        keys = normalize_keys(
            table,
            self.spec,
            string_prefix=MAX_STRING_PREFIX,
            include_row_id=False,
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
            survivors = np.flatnonzero(
                cutoff_mask(
                    matrix[:, : self._decisive],
                    self._cutoff[: self._decisive],
                    inclusive=not self.stats.prefix_exact,
                )
            )
            if len(survivors) == 0:
                return
            if len(survivors) < len(matrix):
                table = table.take(survivors)
                matrix = matrix[survivors]
        self._tables.append(table)
        self._matrices.append(matrix)
        self._held += len(matrix)
        if self._held >= 2 * self._capacity:
            self._compact()

    def _compact(self) -> None:
        """Sort the buffer, keep the best ``capacity`` rows, reset the cutoff."""
        if not self._tables:
            return
        table = self._tables[0].concat(*self._tables[1:])
        matrix = np.concatenate(self._matrices)
        self.stats.rows_sorted += len(matrix)
        order = vector_sort_rows(
            matrix, self._layout.key_width, self.stats, self.stats.radix
        )
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
