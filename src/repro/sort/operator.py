"""The relational sort operator: DuckDB's pipeline from Figure 11.

The operator is a pipeline breaker: it sinks all input as vector chunks,
then produces the fully sorted table.  The stages mirror the paper:

1. **Materialize** -- incoming vectors are buffered; when a buffer reaches
   the run threshold it is converted to row formats: the ORDER BY columns
   become *normalized keys* (one order-preserving byte string per row, with
   a row-id suffix), all output columns become fixed-width NSM *payload
   rows* with a string heap.
2. **Run generation** -- the normalized keys of each buffer are sorted with
   radix sort, or pdqsort with memcmp if the keys contain strings (DuckDB's
   rule); the payload is immediately reordered, yielding fully sorted runs.
3. **Merge** -- sorted runs are merged with a cascaded 2-way merge comparing
   whole keys with memcmp (full strings break prefix ties), until one run
   remains.
4. **Output** -- the final row block is converted back to vectors/columns.

``sort_table`` wraps the operator for one-shot use.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import SortCancelledError, SortError
from repro.keys.compression import (
    KeyStatsAccumulator,
    plain_key_width,
    rebase_matrix,
)
from repro.keys.normalizer import MAX_STRING_PREFIX, NormalizedKeys, normalize_keys
from repro.rows.block import RowBlock
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import merge_indices
from repro.sort.stringsort import (
    refine_key_order,
    refine_table_order,
    refinement_must_defer,
)
from repro.sort.parallel_exec import (
    DEFAULT_MORSEL_ROWS as DEFAULT_PARALLEL_MORSEL_ROWS,
    ParallelSortExecutor,
)
from repro.sort.pdqsort import pdqsort
from repro.sort.radix import (
    LSD_WIDTH_THRESHOLD,
    RadixStats,
    radix_argsort,
)
from repro.table.chunk import VECTOR_SIZE, DataChunk, chunk_table
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec, compare_values

__all__ = [
    "SortConfig",
    "SortStats",
    "SortedRun",
    "SortOperator",
    "sort_table",
    "effective_run_threshold",
    "raise_if_cancelled",
]


def raise_if_cancelled(config: "SortConfig") -> None:
    """Raise :class:`SortCancelledError` when the config's event is set.

    The shared cooperative-cancellation checkpoint: every sort consumer
    (in-memory operator, external operator, Top-N, prefetch scheduler,
    parallel dispatch) calls this at its natural yield points.
    """
    event = config.cancel_event
    if event is not None and event.is_set():
        raise SortCancelledError("sort was cancelled")


def effective_run_threshold(config: "SortConfig") -> int:
    """The live run threshold: the configured one, shrunk by the grant.

    Re-evaluated at every sink so a governor revoking grant bytes
    mid-query takes effect at the next checkpoint -- the run is cut
    (and spilled, on the external path) earlier than the static
    configuration would have.
    """
    threshold = config.run_threshold
    grant = config.memory_grant
    if grant is not None:
        threshold = max(
            1, min(threshold, int(grant.effective_run_threshold(threshold)))
        )
    return threshold


def _segmented_compare(raw_a, raw_b, layout, spec, fetch_a, fetch_b) -> int:
    """Three-way compare of two normalized keys, segment by segment.

    Fixed-width segments are decided by their bytes.  A VARCHAR segment
    whose (possibly truncated) prefix bytes tie falls back to comparing
    the full string values -- fetched lazily via ``fetch_a``/``fetch_b``
    (called with the key-column ordinal) -- before any later key column is
    consulted.  This is the order DuckDB's "compare the rest of the string
    only if the prefixes are equal" implies.
    """
    for col, segment in enumerate(layout.segments):
        start = segment.offset
        stop = start + segment.total_width
        seg_a = raw_a[start:stop]
        seg_b = raw_b[start:stop]
        if seg_a != seg_b:
            return -1 if seg_a < seg_b else 1
        if segment.dtype.type_id is TypeId.VARCHAR:
            cmp = compare_values(fetch_a(col), fetch_b(col), segment.key)
            if cmp != 0:
                return cmp
    return 0


def _segmented_argsort(table: Table, keys, spec: SortSpec) -> np.ndarray:
    """Scalar pdqsort with segment-wise full-string tie-breaks.

    The per-row comparator path for inexact string prefixes.  Production
    sorts use the vectorized prefix sort plus
    :func:`repro.sort.stringsort.refine_key_order` instead; this remains
    as the ``use_vector_kernels=False`` reference oracle (shared by the
    in-memory and external operators).
    """
    from repro.sort.pdqsort import pdqsort as _pdqsort

    n = len(keys)
    matrix = keys.matrix
    raw = [matrix[i].tobytes() for i in range(n)]
    key_table = table.select(spec.column_names)
    layout = keys.layout

    def less(i: int, j: int) -> bool:
        cmp = _segmented_compare(
            raw[i],
            raw[j],
            layout,
            spec,
            lambda col: key_table.column_at(col).value(i),
            lambda col: key_table.column_at(col).value(j),
        )
        if cmp != 0:
            return cmp < 0
        return raw[i][layout.key_width:] < raw[j][layout.key_width:]

    order = list(range(n))
    _pdqsort(order, less)
    return np.asarray(order, dtype=np.int64)


DEFAULT_RUN_THRESHOLD = 1 << 17
"""Rows buffered per thread before a sorted run is generated."""


@dataclass(frozen=True)
class SortConfig:
    """Tuning knobs of the sort operator.

    Attributes:
        run_threshold: rows accumulated before a sorted run is cut.
        string_prefix: forced VARCHAR prefix length in normalized keys
            (default: chosen from the data, capped at 12 like DuckDB).
        lsd_threshold: key byte width at or below which LSD radix is used.
        force_algorithm: override DuckDB's algorithm choice; one of None
            (DuckDB's rule: pdqsort iff strings present), "radix",
            "pdqsort", or "heuristic" (the cost-based chooser of
            :mod:`repro.sort.heuristic`, the paper's future-work item).
        vector_size: chunk granularity used by :func:`sort_table`.
        use_vector_kernels: use the numpy kernels of
            :mod:`repro.sort.kernels` (whole-row argsort, searchsorted
            merge, vectorized radix bucket finishing) wherever memcmp
            order is exact; off forces the scalar row-at-a-time paths.
        external: make the engine's ORDER BY run through the
            spilling :class:`repro.sort.external.ExternalSortOperator`
            instead of the in-memory operator.
        spill_directories: ordered failover targets for spill files.
            The external sort writes each run to its primary directory
            first; on persistent write failure (e.g. ``ENOSPC``) it
            fails over to these, in order, before degrading to an
            in-memory run.
        spill_retries: transient-failure write retries per directory
            (bounded exponential backoff between attempts).
        spill_retry_backoff_s: initial backoff; doubles per retry,
            capped at 1 second.  Zero disables sleeping (tests).
        verify_spill_checksums: verify the per-page CRC32 checksums of
            every spill block read (and each run's header at merge
            start).  On by default; off trades integrity for a little
            read throughput.
        allow_memory_fallback: when no spill target is writable, keep
            runs in memory (reduced-memory degradation) instead of
            raising :class:`repro.errors.SpillCapacityError`.
        num_workers: worker processes for the multi-core parallel path
            (:mod:`repro.sort.parallel_exec`): morsel-driven run
            generation plus Merge-Path-partitioned merges over shared
            memory.  ``1`` (the default) keeps everything serial; any
            value is byte-identical to the serial kernels, and the
            parallel path silently falls back to serial when vector
            kernels are off or the platform lacks ``fork``/POSIX shared
            memory.  Truncated string prefixes run in parallel: the
            workers sort key bytes and the parent repairs prefix ties
            afterwards (:mod:`repro.sort.stringsort`), same as serial.
        parallel_morsel_rows: rows per run-generation morsel of the
            parallel path.
        compress_keys: shrink normalized keys from runtime statistics
            (paper, Section V): each fixed-width key column is biased to
            unsigned and stored at the minimal byte width its observed
            min/max needs, with the NULL indicator byte folded into the
            value when a spare code point exists
            (:mod:`repro.keys.compression`).  Off preserves the
            full-width layout bit-for-bit.  Ignored (treated as off) when
            ``string_prefix`` forces a fixed VARCHAR prefix, since the
            compressed layout chooses prefixes from the data.
        exact_varchar: repair truncated VARCHAR prefixes on the vector
            path (:mod:`repro.sort.stringsort`): byte-equal tie groups are
            re-encoded at progressively wider string offsets until the
            order is exact, in run generation and after every merge.  On
            by default -- string sorts are exact without the per-row
            scalar comparator.  Turning it off is the documented escape
            hatch for approximate prefix-only ordering and *requires* a
            forced ``string_prefix`` (so the truncation is an explicit
            choice, never an accident).
        use_ovc: apply offset-value coding in the merge kernels
            (:func:`repro.sort.kernels.merge_indices` /
            ``kway_merge_blocks``): uint64 words shared by every frontier
            row are skipped, so duplicate-heavy keys cost one word compare
            or none.  Off forces full-width comparisons (benchmark /
            equivalence-test knob; results are identical either way).
        prefetch_blocks: read-ahead depth, in blocks per run per section,
            of the external merge's prefetch layer
            (:mod:`repro.sort.prefetch`).  A small thread pool fetches and
            CRC-verifies each run's *next* key block (and the payload rows
            backing the frontier) while the merge kernel consumes the
            current one; file reads and ``zlib.crc32`` release the GIL, so
            the overlap is real in pure Python.  The total buffered
            read-ahead is additionally capped at ``run_threshold`` rows,
            so prefetch memory is charged against the same budget that
            sizes runs.  ``0`` disables prefetching (every spill read is
            synchronous on the merge's critical path).
        replacement_selection: run-generation policy of the external
            sort.  ``None`` (default) probes the presortedness of the
            buffered input (sampled first-key-word diffs,
            :func:`repro.sort.rungen.presortedness`) and switches to
            replacement selection when the input arrives near-sorted --
            runs then grow past ``run_threshold`` (up to
            :data:`repro.sort.rungen.RUN_CAP_FACTOR` times it), so fewer
            runs reach the merge.  ``True`` forces replacement selection,
            ``False`` always cuts runs at the threshold (the argsort
            path).  Output is byte-identical either way.
        cancel_event: cooperative cancellation flag (any object with an
            ``is_set()`` method, typically a ``threading.Event``).  Both
            sort operators poll it at their checkpoints -- sink, run
            generation, every merge round, the external k-way merge's
            round hook, prefetch scheduling, and parallel phase
            dispatch -- and raise
            :class:`repro.errors.SortCancelledError` when it is set, so
            a query service can abort a sort from another thread
            without reaching into operator internals.  Cleanup follows
            the operator's normal failure paths (temp files removed,
            prefetch pools joined, shared memory released).
        memory_grant: per-operator memory grant from a global governor
            (any object with ``effective_run_threshold(base_rows)`` and
            ``record_spill(nbytes)``, see
            :class:`repro.service.governor.MemoryGrant`).  The operator
            treats ``min(run_threshold, grant.effective_run_threshold(
            run_threshold))`` as its live run threshold, re-read at
            every sink -- so a governor shrinking the grant under
            memory pressure forces runs (and the prefetch budget
            derived from the threshold) to shrink mid-query, spilling
            earlier via the existing degradation ladder.
            ``SortStats.governor_forced_spills`` counts runs cut below
            the configured threshold because of the grant.
        merge_fan_in: maximum runs merged per k-way pass of the external
            sort.  ``0`` (default) merges all runs in one pass.  With a
            limit, excess runs are first combined in intermediate passes
            that re-spill merged runs -- each pass re-reads and re-writes
            its input, which is exactly the I/O replacement selection's
            longer runs avoid (``SortStats.merge_passes`` records the
            pass count).  Ignored on the scalar path and when truncated
            VARCHAR prefixes require exact-string refinement (those
            merges stay single-pass).
    """

    run_threshold: int = DEFAULT_RUN_THRESHOLD
    string_prefix: int | None = None
    lsd_threshold: int = LSD_WIDTH_THRESHOLD
    force_algorithm: str | None = None
    vector_size: int = VECTOR_SIZE
    use_vector_kernels: bool = True
    external: bool = False
    spill_directories: tuple[str, ...] = ()
    spill_retries: int = 2
    spill_retry_backoff_s: float = 0.01
    verify_spill_checksums: bool = True
    allow_memory_fallback: bool = True
    num_workers: int = 1
    parallel_morsel_rows: int = DEFAULT_PARALLEL_MORSEL_ROWS
    compress_keys: bool = True
    exact_varchar: bool = True
    use_ovc: bool = True
    prefetch_blocks: int = 1
    replacement_selection: bool | None = None
    merge_fan_in: int = 0
    cancel_event: object | None = field(default=None, compare=False)
    memory_grant: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.run_threshold <= 0:
            raise SortError("run_threshold must be positive")
        if not self.exact_varchar and self.string_prefix is None:
            raise SortError(
                "exact_varchar=False sorts by prefix bytes only; force a "
                "string_prefix to make the truncation explicit"
            )
        if self.num_workers < 1:
            raise SortError("num_workers must be at least 1")
        if self.parallel_morsel_rows < 1:
            raise SortError("parallel_morsel_rows must be at least 1")
        if self.force_algorithm not in (None, "radix", "pdqsort", "heuristic"):
            raise SortError(
                f"force_algorithm must be None, 'radix', 'pdqsort' or "
                f"'heuristic', got {self.force_algorithm!r}"
            )
        if self.spill_retries < 0:
            raise SortError("spill_retries must be non-negative")
        if self.prefetch_blocks < 0:
            raise SortError("prefetch_blocks must be non-negative")
        if self.merge_fan_in < 0 or self.merge_fan_in == 1:
            raise SortError("merge_fan_in must be 0 (unlimited) or >= 2")
        if self.spill_retry_backoff_s < 0:
            raise SortError("spill_retry_backoff_s must be non-negative")
        if not isinstance(self.spill_directories, tuple):
            object.__setattr__(
                self, "spill_directories", tuple(self.spill_directories)
            )


@dataclass
class SortStats:
    """What the operator did: run counts, algorithm, merge work.

    ``kernel_kway_merges`` / ``scalar_kway_merges`` count external k-way
    merge phases by path (block-streaming kernel vs. per-row tournament
    heap); ``kway_rounds`` and ``kway_peak_frontier_rows`` describe the
    kernel's frontier loop.  ``phase_seconds`` accumulates wall-clock per
    pipeline phase: ``encode`` (key normalization), ``run_gen`` (sorting
    runs), ``merge`` (merging runs, I/O excluded), and ``spill_io``
    (reading/writing spill files).

    The fault counters describe the external sort's degradation ladder:
    ``spill_retries`` (write attempts retried after a transient error),
    ``spill_failovers`` (runs redirected to a secondary spill
    directory), ``memory_run_fallbacks`` (runs kept in memory because no
    spill target was writable), ``checksum_verifications`` /
    ``checksum_failures`` (CRC32 pages checked on spill reads), and
    ``cleanup_errors`` (temp files/directories that could not be
    removed -- recorded, warned about, never silently swallowed).

    The parallel counters describe the multi-core executor
    (:mod:`repro.sort.parallel_exec`) when ``SortConfig.num_workers > 1``
    actually ran work: ``parallel_workers`` (pool size),
    ``parallel_task_rows`` / ``parallel_task_seconds`` (per parallel
    phase, the rows and wall-clock of every dispatched task in
    submission order), ``parallel_worker_seconds`` (busy time per pool
    worker slot), and ``parallel_makespan_s`` (parent-observed
    wall-clock of all parallel phases) -- the measured schedule that
    :class:`repro.engine.parallel.PhaseModel` predictions are checked
    against.

    The key-compression counters: ``key_width_used`` / ``key_width_full``
    are the final layout's key bytes per row with and without compression
    (row-id suffix excluded); ``key_layout_rebases`` counts runs whose
    keys were re-encoded because later data widened the layout;
    ``key_carried_runs`` counts external runs spilled as keys only (the
    payload reconstructed from the keys at merge time).
    ``vector_sort_paths`` / ``vector_sort_reasons`` record which
    vectorized sort kernel ran per run and why
    (:func:`repro.sort.heuristic.vector_sort_rows`).

    The exact-string counters: ``ovc_compares`` / ``ovc_ties`` are rows
    the merge kernels ordered through post-skip word comparisons vs. rows
    settled with all key words equal (offset-value coding);
    ``full_key_compares`` counts rows whose full string values were
    consulted to break byte-equal prefix ties; ``reencode_rounds`` /
    ``reencoded_rows`` count the adaptive tie-break re-encoding's chunk
    rounds and the row-chunks they touched
    (:mod:`repro.sort.stringsort`).

    The prefetch counters describe the external merge's read-ahead layer
    (:mod:`repro.sort.prefetch`): ``prefetch_hits`` (blocks already
    buffered when the merge asked for them) vs ``prefetch_misses``
    (blocks the merge had to wait for, or fetch synchronously), with the
    consumer-side wait recorded under ``phase_seconds["io_wait"]`` and
    the background threads' read+verify time under
    ``phase_seconds["spill_io_overlap"]`` (overlapped, so it does not
    extend the critical path the way ``spill_io`` does);
    ``prefetch_peak_blocks`` is the most read-ahead blocks buffered at
    once (the budget observably holding).

    The run-generation shape: ``run_lengths`` holds the row count of
    every external run in generation order (the run-length histogram --
    replacement selection shows up as runs longer than the threshold);
    ``rungen_path`` names the dispatched generator (``"argsort"`` or
    ``"replacement_selection"``) and ``rungen_probe`` the measured
    presortedness in [0, 1] (-1 before any probe ran).
    ``merge_passes`` counts k-way merge passes over the data
    (1 unless ``SortConfig.merge_fan_in`` forces intermediate passes).
    ``governor_forced_spills`` counts runs cut below the configured
    ``run_threshold`` because a shrinking memory grant
    (``SortConfig.memory_grant``) lowered the live threshold -- the
    governor forcing an early spill.

    The order-propagation counters describe planner-level sortedness
    reuse (:mod:`repro.engine.plan`): ``sorts_elided`` counts sorts
    skipped entirely because the input's provided ordering already
    satisfied the spec, ``sorts_subsumed`` sorts satisfied by a strictly
    longer provided ordering (``ORDER BY a, b`` over input sorted
    ``a, b, c``), ``sorts_refined`` sorts downgraded to the tie-group
    refinement pass (:func:`repro.sort.refine.refine_sorted`) because a
    proper prefix of the spec was provided, and ``refine_fallbacks``
    refine attempts that fell back to a full sort (truncated-VARCHAR
    suffixes where :func:`repro.sort.stringsort.refinement_must_defer`
    says byte order is inexact, or a scalar-only config).
    """

    rows_sorted: int = 0
    runs_generated: int = 0
    algorithm: str = ""
    merge_rounds: int = 0
    merge_comparisons: int = 0
    kernel_merges: int = 0
    scalar_merges: int = 0
    kernel_kway_merges: int = 0
    scalar_kway_merges: int = 0
    kway_rounds: int = 0
    kway_peak_frontier_rows: int = 0
    prefix_exact: bool = True
    spill_retries: int = 0
    spill_failovers: int = 0
    memory_run_fallbacks: int = 0
    checksum_verifications: int = 0
    checksum_failures: int = 0
    cleanup_errors: list[str] = field(default_factory=list)
    radix: RadixStats = field(default_factory=RadixStats)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    parallel_workers: int = 0
    parallel_task_rows: dict[str, list[int]] = field(default_factory=dict)
    parallel_task_seconds: dict[str, list[float]] = field(
        default_factory=dict
    )
    parallel_worker_seconds: dict[int, float] = field(default_factory=dict)
    parallel_makespan_s: float = 0.0
    key_width_used: int = 0
    key_width_full: int = 0
    key_layout_rebases: int = 0
    key_carried_runs: int = 0
    vector_sort_paths: dict[str, int] = field(default_factory=dict)
    vector_sort_reasons: dict[str, int] = field(default_factory=dict)
    ovc_compares: int = 0
    ovc_ties: int = 0
    full_key_compares: int = 0
    reencode_rounds: int = 0
    reencoded_rows: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_peak_blocks: int = 0
    run_lengths: list[int] = field(default_factory=list)
    rungen_path: str = ""
    rungen_probe: float = -1.0
    merge_passes: int = 0
    governor_forced_spills: int = 0
    sorts_elided: int = 0
    sorts_subsumed: int = 0
    sorts_refined: int = 0
    refine_fallbacks: int = 0

    def record_vector_sort(self, path: str, reason: str) -> None:
        self.vector_sort_paths[path] = self.vector_sort_paths.get(path, 0) + 1
        self.vector_sort_reasons[reason] = (
            self.vector_sort_reasons.get(reason, 0) + 1
        )

    def add_phase_seconds(self, phase: str, seconds: float) -> None:
        self.phase_seconds[phase] = (
            self.phase_seconds.get(phase, 0.0) + seconds
        )

    @contextmanager
    def time_phase(self, phase: str):
        """Accumulate the wall-clock of a ``with`` block into a phase."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_phase_seconds(phase, time.perf_counter() - start)


@dataclass
class SortedRun:
    """One fully sorted run: sorted keys plus the payload in key order.

    ``raw`` optionally caches the key rows as Python ``bytes`` for the
    scalar merge fallback; carrying it across cascade rounds avoids
    re-materializing both runs on every round.
    """

    keys: np.ndarray  # (n, width) uint8, sorted
    payload: RowBlock  # rows already in key order
    key_width: int  # bytes of key before the row-id suffix
    raw: list[bytes] | None = None  # per-row key bytes (scalar merge cache)
    layout: object | None = None  # KeyLayout the keys were encoded under

    def __len__(self) -> int:
        return len(self.keys)

    def raw_keys(self) -> list[bytes]:
        """The key rows as ``bytes``, materializing and caching on demand."""
        if self.raw is None:
            self.raw = [self.keys[i].tobytes() for i in range(len(self.keys))]
        return self.raw


class SortOperator:
    """Materializing ORDER BY operator (paper Figure 11).

    Use as::

        op = SortOperator(schema, SortSpec.of("a DESC", "b"))
        for chunk in chunks:
            op.sink(chunk)
        result = op.finalize()
    """

    def __init__(
        self,
        schema: Schema,
        spec: SortSpec,
        config: SortConfig | None = None,
    ) -> None:
        self.schema = schema
        self.spec = spec
        self.config = config or SortConfig()
        for name in spec.column_names:
            schema.column(name)  # raises SchemaError on unknown columns
        self._buffer: list[DataChunk] = []
        self._buffered_rows = 0
        self._runs: list[SortedRun] = []
        self._next_row_id = 0
        self._finalized = False
        self._key_layout = None
        self._parallel: ParallelSortExecutor | None = None
        self.stats = SortStats()
        self._has_string_key = any(
            schema.column(name).dtype.type_id is TypeId.VARCHAR
            for name in spec.column_names
        )
        # A forced string prefix pins the layout, which the statistics
        # pass would override -- compression defers to it.
        self._compress = (
            self.config.compress_keys and self.config.string_prefix is None
        )
        self._key_acc: KeyStatsAccumulator | None = None

    # ------------------------------------------------------------------ #
    # Parallel execution
    # ------------------------------------------------------------------ #

    def _parallel_executor(self) -> ParallelSortExecutor | None:
        """The lazily-created multi-core executor, or ``None`` if serial.

        The parallel path requires the vector kernels (the executor runs
        them in its workers).  It sorts and merges key *bytes*; truncated
        string prefixes are handled by running the same post-pass tie
        repair (:mod:`repro.sort.stringsort`) on its output that the
        serial vector path uses, so inexact prefixes no longer force
        serial execution.
        """
        if self.config.num_workers <= 1 or not self.config.use_vector_kernels:
            return None
        if self._parallel is None:
            self._parallel = ParallelSortExecutor(
                self.config.num_workers,
                self.config.parallel_morsel_rows,
                cancel_check=lambda: raise_if_cancelled(self.config),
            )
        return self._parallel

    def _close_parallel(self) -> None:
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None

    # ------------------------------------------------------------------ #
    # Sink
    # ------------------------------------------------------------------ #

    def sink(self, chunk: DataChunk) -> None:
        """Accept one vector batch of input."""
        if self._finalized:
            raise SortError("cannot sink into a finalized sort")
        if chunk.schema.names != self.schema.names:
            raise SortError(
                f"chunk schema {chunk.schema.names} does not match "
                f"operator schema {self.schema.names}"
            )
        raise_if_cancelled(self.config)
        if len(chunk) == 0:
            return
        self._buffer.append(chunk)
        self._buffered_rows += len(chunk)
        threshold = effective_run_threshold(self.config)
        if self._buffered_rows >= threshold:
            if threshold < self.config.run_threshold:
                self.stats.governor_forced_spills += 1
            self._generate_run()

    # ------------------------------------------------------------------ #
    # Run generation
    # ------------------------------------------------------------------ #

    def _choose_algorithm(self, keys: NormalizedKeys) -> str:
        forced = self.config.force_algorithm
        if forced == "heuristic":
            from repro.sort.heuristic import choose_algorithm

            if not keys.prefix_exact and not self._vector_exact_strings():
                # Without the vectorized tie repair, truncated string
                # prefixes need per-row tie-breaking comparisons, which
                # radix cannot perform.
                return "pdqsort"
            return choose_algorithm(keys.matrix, keys.layout.key_width)
        if forced is not None:
            return forced
        # DuckDB's rule: pdqsort when strings are present, radix otherwise.
        return "pdqsort" if self._has_string_key else "radix"

    def _vector_exact_strings(self) -> bool:
        """True when inexact prefixes are repaired on the vector path.

        The vectorized prefix sort stays usable for truncated VARCHAR
        prefixes because :func:`repro.sort.stringsort.refine_key_order`
        re-sorts the byte-equal tie groups on the full strings afterwards;
        with ``exact_varchar`` off the prefix order *is* the requested
        order, so the vector path needs no repair either way.
        """
        return self.config.use_vector_kernels and self.config.exact_varchar

    def _generate_run(self) -> None:
        if not self._buffer:
            return
        raise_if_cancelled(self.config)
        table = self._buffer[0].to_table()
        for chunk in self._buffer[1:]:
            table = table.concat(chunk.to_table())
        self._buffer.clear()
        self._buffered_rows = 0

        # All runs must share one key layout so the merge can memcmp
        # across them; with VARCHAR keys and no explicit prefix we lock
        # the prefix to DuckDB's 12-byte cap rather than letting each
        # run pick its own width from its data.
        string_prefix = self.config.string_prefix
        if string_prefix is None and self._has_string_key:
            string_prefix = MAX_STRING_PREFIX
        with self.stats.time_phase("encode"):
            layout = None
            if self._compress:
                # Stats-driven key compression: the accumulator is
                # monotone, so this run's layout covers all earlier runs'
                # data too -- earlier runs are re-based at finalize if
                # this layout is wider than theirs.
                if self._key_acc is None:
                    self._key_acc = KeyStatsAccumulator(self.schema, self.spec)
                self._key_acc.update(table)
                layout = self._key_acc.build_layout(
                    include_row_id=True, row_id_width=8
                )
            keys = normalize_keys(
                table,
                self.spec,
                string_prefix=string_prefix,
                include_row_id=True,
                row_id_base=self._next_row_id,
                row_id_width=8,
                layout=layout,
            )
        self._key_layout = keys.layout
        self.stats.key_width_used = keys.layout.key_width
        self.stats.key_width_full = plain_key_width(keys.layout)
        self._next_row_id += len(table)
        self.stats.prefix_exact = self.stats.prefix_exact and keys.prefix_exact

        algorithm = self._choose_algorithm(keys)
        if (
            algorithm == "radix"
            and not keys.prefix_exact
            and not self._vector_exact_strings()
        ):
            # Radix cannot tie-break truncated string prefixes, and
            # without the vector-path tie repair the only exact option is
            # pdqsort with full-string comparisons.
            algorithm = "pdqsort"
        self.stats.algorithm = algorithm
        with self.stats.time_phase("run_gen"):
            order = None
            # With exact prefixes the key bytes decide everything; with
            # inexact prefixes the vector path sorts the prefix bytes and
            # repairs the byte-equal tie groups afterwards, so the
            # parallel executor and radix requalify for string keys.
            vector_ok = keys.prefix_exact or self._vector_exact_strings()
            executor = self._parallel_executor()
            if executor is not None and vector_ok:
                # Morsel-driven parallel run generation: stable sorts of
                # the same key bytes, so the permutation -- and the run --
                # is byte-identical to whichever serial algorithm was
                # chosen (both radix and the kernel argsort are stable).
                order = executor.argsort(
                    keys.matrix, keys.layout.key_width, self.stats
                )
                if order is not None:
                    self.stats.algorithm = "parallel-morsel"
            if order is not None:
                pass
            elif algorithm == "radix":
                # Radix sort is stable, so only the key bytes need sorting
                # -- the row-id suffix exists for merge-time tie breaks,
                # and spending passes on its (unique) bytes would be
                # wasted work.
                if self.config.use_vector_kernels:
                    # Width/row-count/skew heuristic picks the vectorized
                    # MSD radix kernel or the argsort/lexsort kernel;
                    # both stable, so the run is byte-identical either way.
                    order = vector_sort_rows(
                        keys.matrix[:, : keys.layout.key_width],
                        keys.layout.key_width,
                        self.stats,
                        self.stats.radix,
                    )
                else:
                    order = radix_argsort(
                        keys.matrix[:, : keys.layout.key_width],
                        self.stats.radix,
                        self.config.lsd_threshold,
                        vector_threshold=None,
                    )
            else:
                order = self._pdq_argsort(table, keys)

            if (
                not keys.prefix_exact
                and self._vector_exact_strings()
                and not refinement_must_defer(keys.layout)
            ):
                # Adaptive tie-break re-encoding: only byte-equal groups
                # of the prefix order are re-sorted on their full strings,
                # so the run is exact without a per-row comparator.  With
                # later key bytes after the truncated segment the repair
                # would break the run's memcmp sortedness, so it is
                # deferred to the final merged result (finalize).
                order = refine_table_order(
                    table, keys.matrix, keys.layout, order, self.stats
                )
            sorted_keys = keys.matrix[order]
            payload = RowBlock.from_table(table).take(np.asarray(order))
        self._runs.append(
            SortedRun(
                sorted_keys, payload, keys.layout.key_width, layout=keys.layout
            )
        )
        self.stats.runs_generated += 1
        self.stats.rows_sorted += len(table)

    def _pdq_argsort(self, table: Table, keys: NormalizedKeys) -> np.ndarray:
        """pdqsort on memcmp of key bytes, with full-string tie-breaks.

        When every string fit its prefix the key bytes (which end in the
        unique row id) order rows exactly.  On the vector path, inexact
        prefixes are sorted by their bytes here and the byte-equal tie
        groups repaired afterwards by ``refine_table_order``.  Only the
        ``use_vector_kernels=False`` oracle walks the key *segments*
        per row: a VARCHAR segment whose truncated prefixes tie is
        resolved on the full strings before any later key column is
        consulted -- DuckDB's "compare the rest of the string only if the
        prefixes are equal".
        """
        n = len(keys)
        matrix = keys.matrix
        if self.config.use_vector_kernels:
            # Vectorized stable sort of the key bytes (heuristic
            # radix/lexsort dispatch).  The row-id suffix ascends with
            # row index, so a stable sort without it is byte-identical
            # to memcmp over the full row.
            return vector_sort_rows(
                matrix[:, : keys.layout.key_width],
                keys.layout.key_width,
                self.stats,
                self.stats.radix,
            )
        if keys.prefix_exact or not self.config.exact_varchar:
            raw = [matrix[i].tobytes() for i in range(n)]
            order = list(range(n))
            pdqsort(order, lambda i, j: raw[i] < raw[j])
            return np.asarray(order, dtype=np.int64)
        return _segmented_argsort(table, keys, self.spec)

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #

    def _merge_two(self, left: SortedRun, right: SortedRun) -> SortedRun:
        """Cascaded-merge step: physically merge two sorted runs.

        Keys are compared with memcmp over the full key row.  Row ids are
        globally unique and assigned in arrival order, so the suffix makes
        the merge stable.  On the vector path the merge is one vectorized
        searchsorted/lexsort kernel; truncated string prefixes are
        repaired afterwards by re-sorting the byte-equal tie groups on the
        full strings.  Only the scalar oracle re-resolves segment ties per
        row with values fetched from the payload.
        """
        key_width = left.key_width
        exact = self.stats.prefix_exact or not self.config.exact_varchar
        if self.config.use_vector_kernels:
            return self._merge_two_kernel(left, right)
        self.stats.scalar_merges += 1
        a = left.raw_keys()
        b = right.raw_keys()
        key_names = self.spec.column_names

        def b_before_a(i: int, j: int) -> bool:
            if exact:
                return b[j] < a[i]
            cmp = _segmented_compare(
                b[j],
                a[i],
                self._key_layout,
                self.spec,
                lambda col: right.payload.value(j, key_names[col]),
                lambda col: left.payload.value(i, key_names[col]),
            )
            if cmp != 0:
                return cmp < 0
            return b[j][key_width:] < a[i][key_width:]

        n, m = len(a), len(b)
        take_from_left = np.empty(n + m, dtype=bool)
        source_index = np.empty(n + m, dtype=np.int64)
        merged_raw: list[bytes] = [b""] * (n + m)
        i = j = 0
        comparisons = 0
        for k in range(n + m):
            if i < n and (j >= m or not b_before_a(i, j)):
                if j < m:
                    comparisons += 1
                take_from_left[k] = True
                source_index[k] = i
                merged_raw[k] = a[i]
                i += 1
            else:
                if i < n:
                    comparisons += 1
                take_from_left[k] = False
                source_index[k] = j
                merged_raw[k] = b[j]
                j += 1
        self.stats.merge_comparisons += comparisons

        merged_keys = np.empty(
            (n + m, left.keys.shape[1]), dtype=np.uint8
        )
        merged_keys[take_from_left] = left.keys[source_index[take_from_left]]
        merged_keys[~take_from_left] = right.keys[source_index[~take_from_left]]

        combined = left.payload.concat(right.payload)
        gather = np.where(
            take_from_left, source_index, source_index + n
        )
        payload = combined.take(gather)
        return SortedRun(merged_keys, payload, key_width, raw=merged_raw)

    def _merge_two_kernel(self, left: SortedRun, right: SortedRun) -> SortedRun:
        """Vectorized merge: one searchsorted kernel, no per-row Python.

        The merge compares only the key bytes: row ids ascend with run
        order (earlier run => smaller ids), so the kernel's stable
        left-first tie handling reproduces the full-row memcmp order
        without touching the suffix.  With truncated string prefixes the
        byte-equal tie groups of the merged result are re-sorted on the
        full strings afterwards -- both inputs are already exact, but two
        runs can tie on the whole prefix while their full strings
        interleave, so the repair must happen per merge, not just per run.
        """
        key_width = left.key_width
        perm = None
        executor = self._parallel_executor()
        if executor is not None:
            # Merge-Path-partitioned parallel merge; ties resolve to the
            # left (earlier, lower-row-id) run exactly like the kernel.
            perm = executor.merge_two(
                left.keys, right.keys, key_width, self.stats
            )
        if perm is None:
            perm = merge_indices(
                left.keys[:, :key_width],
                right.keys[:, :key_width],
                stats=self.stats,
                use_ovc=self.config.use_ovc,
            )
        merged_keys = np.concatenate([left.keys, right.keys])[perm]
        payload = left.payload.concat(right.payload).take(perm)
        if (
            not self.stats.prefix_exact
            and self.config.exact_varchar
            and not self._defer_refinement()
        ):
            merged_keys, payload = self._refine_merged(
                merged_keys, payload, key_width
            )
        self.stats.kernel_merges += 1
        return SortedRun(
            merged_keys, payload, key_width, layout=self._key_layout
        )

    def _defer_refinement(self) -> bool:
        """Exact-string repair must wait for the final merged result.

        True when key bytes follow the first truncated VARCHAR segment
        (see :func:`repro.sort.stringsort.refinement_must_defer`):
        refining per run or per merge would hand the merge kernels runs
        that are no longer byte-sorted.
        """
        return self._key_layout is not None and refinement_must_defer(
            self._key_layout
        )

    def _refine_merged(
        self, merged_keys: np.ndarray, payload: RowBlock, key_width: int
    ) -> tuple[np.ndarray, RowBlock]:
        """Re-sort a merged run's byte-equal tie groups on full strings."""

        def fetch_tied(tied: np.ndarray):
            tied_table = payload.take(tied).to_table()

            def get(name: str):
                column = tied_table.column(name)
                return column.data, column.validity

            return get

        perm = refine_key_order(
            merged_keys[:, :key_width], self._key_layout, fetch_tied, self.stats
        )
        if perm is None:
            return merged_keys, payload
        return merged_keys[perm], payload.take(perm)

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> Table:
        """Sort any remaining buffer, merge all runs, return the table."""
        if self._finalized:
            raise SortError("sort already finalized")
        self._finalized = True
        try:
            if self._buffer:
                self._generate_run()
            if not self._runs:
                return Table.empty(self.schema)
            runs = self._runs
            if self._compress and len(runs) > 1:
                # Later runs may have widened the compressed layout; the
                # last run's layout covers every run (the statistics
                # accumulator is monotone), so re-base narrower runs onto
                # it and the merge memcmps one shared layout.
                final_layout = runs[-1].layout
                for run in runs:
                    if run.layout is None or run.layout == final_layout:
                        continue
                    with self.stats.time_phase("encode"):
                        run.keys = rebase_matrix(
                            run.keys, run.layout, final_layout
                        )
                    run.layout = final_layout
                    run.key_width = final_layout.key_width
                    run.raw = None
                    self.stats.key_layout_rebases += 1
                self._key_layout = final_layout
                self.stats.key_width_used = final_layout.key_width
            with self.stats.time_phase("merge"):
                while len(runs) > 1:
                    raise_if_cancelled(self.config)
                    self.stats.merge_rounds += 1
                    merged = []
                    for i in range(0, len(runs) - 1, 2):
                        merged.append(self._merge_two(runs[i], runs[i + 1]))
                    if len(runs) % 2 == 1:
                        merged.append(runs[-1])
                    runs = merged
            if (
                not self.stats.prefix_exact
                and self._vector_exact_strings()
                and self._defer_refinement()
            ):
                # Deferred exact-string repair: runs and merges stayed in
                # raw byte order (later key bytes follow the truncated
                # VARCHAR segment), so one refinement of the final result
                # produces the exact order -- tie groups arrive sorted by
                # the remaining key bytes and row id, which the stable
                # re-sort preserves for equal full strings.
                final = runs[0]
                merged_keys, payload = self._refine_merged(
                    final.keys, final.payload, final.key_width
                )
                runs = [
                    SortedRun(
                        merged_keys,
                        payload,
                        final.key_width,
                        layout=final.layout,
                    )
                ]
            self._runs = runs
            return runs[0].payload.to_table()
        finally:
            self._close_parallel()


def sort_table(
    table: Table, spec: SortSpec | str, config: SortConfig | None = None
) -> Table:
    """Sort a table by an ORDER BY spec; the one-call public entry point.

    ``spec`` may be a :class:`SortSpec` or text like
    ``"country DESC NULLS LAST, birth_year"``.
    """
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    config = config or SortConfig()
    operator = SortOperator(table.schema, spec, config)
    for chunk in chunk_table(table, config.vector_size):
        operator.sink(chunk)
    return operator.finalize()
