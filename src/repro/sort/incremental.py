"""Streaming incremental sort: a sorted view maintained over deltas.

The first "continuously serving" workload (ROADMAP): instead of sorting
one materialized table, a consumer keeps a **sorted view** alive while
batches of new rows arrive.  :class:`IncrementalSorter` is the third run
store over the pipeline's two shared stages (beside the resident
:class:`~repro.sort.operator.SortOperator` and the spilling
:class:`~repro.sort.external.ExternalSortOperator`): a *compacting* one.
Each delta becomes one resident sorted run through
:class:`~repro.sort.rungen.RunGenerator` (``encode`` + ``sort_run``),
runs are periodically **compacted** into one by ``RunMerger.merge_to_run``
(:mod:`repro.sort.merger`), and ``view()`` is ``RunMerger.merge`` -- so
views get key compression, layout rebasing and key-carried runs from
the stages, and steady-state serving exercises exactly the merge
machinery the external sort spills through, minus the disk.

Ordering semantics match the one-shot operator bit for bit:

* Row ids are assigned in arrival order across the whole stream (the
  generator's counter advances per delta), and both the per-delta sort
  and the k-way merge are stable with earlier-run-wins ties, so the view
  equals ``sort_table(concat(deltas), spec)`` -- the differential tests
  assert byte identity against the tuple-key oracle.
* Truncated VARCHAR prefixes: stored runs stay in raw **byte order**
  (the k-way kernel requires memcmp-sorted input, which string-refined
  rows violate, so ``merge_to_run`` never refines), and the exact
  full-string order is produced at ``view()`` time by the merger's one
  string repair over the compacted run, cached until the next insert.
  Long-string views are exact.

Amortization: deltas accumulate as sorted runs until
``compact_threshold`` runs exist, then one k-way merge folds them into
the view (the LSM-ish policy); ``view()`` always compacts first, so a
read sees every insert.  ``IncrementalStats`` records deltas, runs
merged, rows moved by compaction, and the pipeline's own counters
(dispatch, key widths, rebases, merge rounds, refinement) via an
embedded :class:`~repro.sort.operator.SortStats`.

The service integration (``SortService.maintain_view`` /
``append_delta`` / ``view_snapshot``) runs inserts and compactions on
the service's worker pool under its memory governor -- see
:mod:`repro.service.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SortError
from repro.sort.merger import RunMerger
from repro.sort.operator import SortConfig, SortStats, raise_if_cancelled
from repro.sort.rungen import InMemoryRun, RunGenerator
from repro.table.chunk import DataChunk
from repro.table.table import Table
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
    sorted runs buffered at once.  ``sort`` holds what the shared stages
    recorded across every delta, compaction and view
    (``sort_passes``, ``key_width_used``, ``key_layout_rebases``,
    ``kway_rounds``, ``full_key_compares``, ...).
    """

    deltas_inserted: int = 0
    rows_inserted: int = 0
    compactions: int = 0
    runs_compacted: int = 0
    rows_compacted: int = 0
    peak_runs: int = 0
    sort: SortStats = field(default_factory=SortStats)


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
        self._generator = RunGenerator(
            schema, spec, self.config, self.stats.sort, self._check_cancelled
        )
        self._runs: list[InMemoryRun] = []
        self._view_cache: Table | None = None

    def _check_cancelled(self) -> None:
        # Reads the *current* config: a service swaps ``self.config`` per
        # call to carry that call's cancel event.
        raise_if_cancelled(self.config)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        """Rows inserted so far (equals ``len(view())``)."""
        return self.stats.rows_inserted

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
        self._check_cancelled()
        if delta.num_rows == 0:
            return
        generator = self._generator
        # Stored in raw byte order (the merger repairs strings per
        # view): compaction requires memcmp-sorted runs.
        run = generator.sort_run(
            *generator.encode([DataChunk.from_table(delta)])
        )
        self._view_cache = None
        self._runs.append(run)
        self.stats.deltas_inserted += 1
        self.stats.rows_inserted += delta.num_rows
        self.stats.peak_runs = max(self.stats.peak_runs, len(self._runs))
        if len(self._runs) >= self.compact_threshold:
            self._compact()

    # ------------------------------------------------------------------ #
    # Compaction / view
    # ------------------------------------------------------------------ #

    def _merger(self) -> RunMerger:
        # Built per pass: the merger reads the generator's layout, which
        # every insert may widen.  Resident runs have nothing to stream,
        # so each is its own frontier block.
        block_rows = max(run.num_rows for run in self._runs)
        return RunMerger(self._generator, block_rows)

    def view(self) -> Table:
        """The sorted view over every row inserted so far.

        Compacts pending runs, then decodes the one run (with truncated
        string prefixes, through the merger's exact-string repair).  The
        snapshot is cached until the next insert, so steady reads of an
        unchanged view cost nothing.
        """
        self._check_cancelled()
        if not self._runs:
            return Table.empty(self.schema)
        if self._view_cache is None:
            self._compact()
            with self.stats.sort.time_phase("merge"):
                self._view_cache = self._merger().merge(self._runs)
        return self._view_cache

    def _compact(self) -> None:
        """Fold every buffered run into one through the k-way kernel.

        Runs are kept in arrival order, so row ids ascend run to run and
        the kernel's earlier-run-wins tie rule is exactly the stable
        (row-id) order.
        """
        if len(self._runs) <= 1:
            return
        with self.stats.sort.time_phase("merge"):
            merged = self._merger().merge_to_run(self._runs)
        self.stats.compactions += 1
        self.stats.runs_compacted += len(self._runs)
        self.stats.rows_compacted += merged.num_rows
        self._runs = [merged]
