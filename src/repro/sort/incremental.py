"""Streaming incremental sort: a sorted view maintained over deltas.

The first "continuously serving" workload (ROADMAP): instead of sorting
one materialized table, a consumer keeps a **sorted view** alive while
batches of new rows arrive.  Each delta is sorted with the same vector
kernels the one-shot operator uses (:func:`repro.sort.heuristic.
vector_sort_rows` over normalized keys), buffered as a sorted run, and
runs are periodically **compacted** into the view through the existing
block-streaming k-way kernel (:func:`repro.sort.kway.
kway_merge_indices`) -- so steady-state serving exercises exactly the
merge machinery the external sort spills through, minus the disk.

Ordering semantics match the one-shot operator bit for bit:

* Row ids are assigned in arrival order across the whole stream
  (``row_id_base`` advances per delta), and both the per-delta sort and
  the k-way merge are stable with earlier-run-wins ties, so the view
  equals ``sort_table(concat(deltas), spec)`` -- the differential tests
  assert byte identity against the tuple-key oracle.
* Truncated VARCHAR prefixes: stored runs stay in raw **byte order**
  (the k-way kernel requires memcmp-sorted input, which string-refined
  rows violate -- the same reason the external sort gates its multipass
  merges on inexactness), and the exact full-string order is produced
  at ``view()`` time by one adaptive tie-break re-encoding pass
  (:func:`repro.sort.stringsort.refine_table_order`) over the compacted
  view, cached until the next insert.  Long-string views are exact.

Amortization: deltas accumulate as sorted runs until
``compact_threshold`` runs exist, then one k-way merge folds them into
the view (the LSM-ish policy); ``view()`` always compacts first, so a
read sees every insert.  ``IncrementalStats`` records deltas, runs
merged, rows moved by compaction, and the dispatch/refine counters via
an embedded :class:`~repro.sort.operator.SortStats`.

The service integration (``SortService.maintain_view`` /
``append_delta`` / ``view_snapshot``) runs inserts and compactions on
the service's worker pool under its memory governor -- see
:mod:`repro.service.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SortError
from repro.keys.normalizer import MAX_STRING_PREFIX, normalize_keys
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import KWayBlockStats
from repro.sort.kway import kway_merge_indices
from repro.sort.operator import SortConfig, SortStats, raise_if_cancelled
from repro.sort.stringsort import and_prefix_exact, refine_table_order
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = ["DEFAULT_COMPACT_THRESHOLD", "IncrementalSorter", "IncrementalStats"]

DEFAULT_COMPACT_THRESHOLD = 8
"""Sorted runs buffered before an automatic compaction merges them."""


@dataclass
class IncrementalStats:
    """What the maintained view did: insert, compaction, and sort work.

    ``rows_compacted`` counts rows *moved* by compaction merges (a row
    merged in three compactions counts three times -- the write
    amplification of the maintenance policy); ``peak_runs`` is the most
    sorted runs buffered at once.  ``sort`` holds the per-delta dispatch
    and refine counters (``vector_sort_paths``, ``full_key_compares``,
    ...), and ``kway`` the merge kernel's frontier counters.
    """

    deltas_inserted: int = 0
    rows_inserted: int = 0
    compactions: int = 0
    runs_compacted: int = 0
    rows_compacted: int = 0
    peak_runs: int = 0
    sort: SortStats = field(default_factory=SortStats)
    kway: KWayBlockStats = field(default_factory=KWayBlockStats)


@dataclass
class _DeltaRun:
    """One sorted run of the view: full-width keys plus payload rows."""

    keys: np.ndarray  # (n, total_width) uint8, sorted, row-id suffix included
    table: Table  # payload rows in key order


class IncrementalSorter:
    """Maintains a sorted view of everything inserted so far.

    Use as::

        sorter = IncrementalSorter(schema, SortSpec.of("a DESC", "b"))
        sorter.insert(first_batch)
        sorter.insert(second_batch)
        snapshot = sorter.view()   # sorted over both batches
    """

    def __init__(
        self,
        schema: Schema,
        spec: SortSpec | str,
        config: SortConfig | None = None,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    ) -> None:
        if isinstance(spec, str):
            spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
        if compact_threshold < 2:
            raise SortError("compact_threshold must be at least 2")
        self.schema = schema
        self.spec = spec
        self.config = config or SortConfig()
        for name in spec.column_names:
            schema.column(name)  # raises SchemaError on unknown columns
        self.compact_threshold = compact_threshold
        self.stats = IncrementalStats()
        self._runs: list[_DeltaRun] = []
        self._next_row_id = 0
        self._key_width: int | None = None
        self._view_cache: Table | None = None
        # The widest-inexactness layout seen: refinement consults segment
        # prefix_exact flags, and a later delta whose strings all fit the
        # prefix must not mask an earlier delta's truncation.
        self._refine_layout = None
        self._has_string_key = any(
            schema.column(name).dtype.type_id is TypeId.VARCHAR
            for name in spec.column_names
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Rows inserted so far (equals ``len(view())``)."""
        return self._next_row_id

    @property
    def pending_runs(self) -> int:
        """Sorted runs currently buffered (1 after a compaction)."""
        return len(self._runs)

    # ------------------------------------------------------------------ #
    # Insert
    # ------------------------------------------------------------------ #

    def insert(self, delta: Table) -> None:
        """Sort one arriving batch and buffer it as a run."""
        if delta.schema.names != self.schema.names:
            raise SortError(
                f"delta schema {delta.schema.names} does not match view "
                f"schema {self.schema.names}"
            )
        raise_if_cancelled(self.config)
        if delta.num_rows == 0:
            return
        # One fixed layout across deltas: forced 12-byte VARCHAR prefix
        # (like the one-shot operator's multi-run rule), no stats-driven
        # compression -- every run must memcmp against every other.
        string_prefix = self.config.string_prefix
        if string_prefix is None and self._has_string_key:
            string_prefix = MAX_STRING_PREFIX
        keys = normalize_keys(
            delta,
            self.spec,
            string_prefix=string_prefix,
            include_row_id=True,
            row_id_base=self._next_row_id,
            row_id_width=8,
        )
        width = keys.layout.key_width
        if self._key_width is None:
            self._key_width = width
        elif width != self._key_width:
            raise SortError(
                f"delta key width {width} != view key width "
                f"{self._key_width}"
            )
        if not keys.prefix_exact:
            self._merge_refine_layout(keys.layout)
        order = vector_sort_rows(
            keys.matrix[:, :width],
            width,
            self.stats.sort,
            self.stats.sort.radix,
        )
        # Stored in raw byte order (refinement happens per view): the
        # compaction kernel requires memcmp-sorted runs.
        matrix = keys.matrix[order]
        table = delta.take(order)
        self._next_row_id += delta.num_rows
        self._view_cache = None
        self._runs.append(_DeltaRun(matrix, table))
        self.stats.deltas_inserted += 1
        self.stats.rows_inserted += delta.num_rows
        # Each delta is one sorted run; mirror the operator counters so
        # run-shape consumers (the bench matrix) see the same fields.
        self.stats.sort.runs_generated += 1
        self.stats.sort.run_lengths.append(delta.num_rows)
        self.stats.sort.rows_sorted += delta.num_rows
        self.stats.peak_runs = max(self.stats.peak_runs, len(self._runs))
        if len(self._runs) >= self.compact_threshold:
            self._compact()

    def _merge_refine_layout(self, layout) -> None:
        """Accumulate the pessimistic layout for view refinement."""
        if self._refine_layout is None:
            self._refine_layout = layout
        else:
            self._refine_layout = and_prefix_exact(
                self._refine_layout, layout
            )

    # ------------------------------------------------------------------ #
    # Compaction / view
    # ------------------------------------------------------------------ #

    def view(self) -> Table:
        """The sorted view over every row inserted so far.

        Compacts pending runs, then (with truncated string prefixes)
        refines the byte order to exact full-string order.  The refined
        snapshot is cached until the next insert, so steady reads of an
        unchanged view cost nothing.
        """
        raise_if_cancelled(self.config)
        if not self._runs:
            return Table.empty(self.schema)
        if self._view_cache is None:
            self._compact()
            run = self._runs[0]
            self._view_cache = (
                run.table
                if self._refine_layout is None
                else self._refine(run)
            )
        return self._view_cache

    def _compact(self) -> None:
        """Fold every buffered run into one through the k-way kernel."""
        if len(self._runs) <= 1:
            return
        raise_if_cancelled(self.config)
        width = self._key_width
        # Runs are kept in arrival order, so row ids ascend run to run
        # and the kernel's earlier-run-wins tie rule is exactly the
        # stable (row-id) order -- no suffix comparison needed.
        run_ids, row_ids = kway_merge_indices(
            [run.keys[:, :width] for run in self._runs],
            block_stats=self.stats.kway,
        )
        offsets = np.zeros(len(self._runs), dtype=np.int64)
        np.cumsum(
            [len(run.keys) for run in self._runs[:-1]], out=offsets[1:]
        )
        gather = offsets[run_ids] + row_ids
        merged_keys = np.concatenate(
            [run.keys for run in self._runs], axis=0
        )[gather]
        merged_table = (
            self._runs[0]
            .table.concat(*(run.table for run in self._runs[1:]))
            .take(gather)
        )
        self.stats.compactions += 1
        self.stats.runs_compacted += len(self._runs)
        self.stats.rows_compacted += len(merged_keys)
        self._runs = [_DeltaRun(merged_keys, merged_table)]

    def _refine(self, run: _DeltaRun) -> Table:
        """Repair the run's byte order to exact full-string order."""
        order = refine_table_order(
            run.table,
            run.keys,
            self._refine_layout,
            np.arange(len(run.keys)),
            self.stats.sort,
        )
        return run.table.take(order)
