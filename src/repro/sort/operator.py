"""The relational sort operator: DuckDB's pipeline from Figure 11.

The operator is a pipeline breaker: it sinks all input as chunks of any
length, then produces the fully sorted table.  The stages mirror the paper:

1. **Materialize** -- incoming vectors are buffered, then the ORDER BY
   columns become *normalized keys*: per row, an order-preserving key
   packed into uint64 words, so comparing word lists is memcmp on the
   key bytes; the row's position is its row id.  The payload stays in
   its columns, and a run written out holds it the same way: its
   columns, its rows' positions in key order, and its key words in key
   order beside them (the paper spills NSM rows; here the result is
   columns, so a spilled run keeps columns too).
2. **Run generation** -- the key words are sorted, yielding a sorted
   run: its table, key words and the positions of its rows in key
   order (:class:`repro.sort.rungen.RunGenerator`, shared with the
   external sort).
3. **Merge** -- sorted runs are merged in one k-way pass comparing key
   words (full strings break prefix ties), and the payload is fetched
   by row position once, with one ``Table.take``
   (:class:`repro.sort.merger.RunMerger`, likewise shared); a lone run
   is taken as it stands, its key words dropped first: at any moment a
   resident sort holds key words and packed words, or order and result.

One operator family runs those stages; what differs is the *run store*
between them.  :class:`SortOperator` is the resident store: runs are a
unit of spilling (DuckDB's come from 48 threads and a memory limit), so
it sorts everything as one run.
:class:`repro.sort.external.ExternalSortOperator` adds spilling (the
same sink plus "cut and spill a run once ``run_threshold`` rows are
buffered"); :class:`repro.sort.incremental.IncrementalSorter` is the
third, compacting, store.  :func:`make_sort_operator` picks between the
first two from ``SortConfig.external``; ``sort_table`` wraps it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import SortCancelledError, SortError
from repro.sort.merger import RunMerger
from repro.sort.rungen import InMemoryRun, RunGenerator
from repro.table.chunk import DataChunk
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "SortConfig",
    "SortStats",
    "SortOperator",
    "make_sort_operator",
    "sort_table",
    "effective_run_threshold",
    "raise_if_cancelled",
]


def raise_if_cancelled(config: "SortConfig") -> None:
    """Raise :class:`SortCancelledError` when the config's event is set.

    The shared cooperative-cancellation checkpoint: every sort consumer
    (in-memory operator, external operator, Top-N, prefetch scheduler)
    calls this at its natural yield points.
    """
    event = config.cancel_event
    if event is not None and event.is_set():
        raise SortCancelledError("sort was cancelled")


def effective_run_threshold(config: "SortConfig") -> int:
    """The live run threshold: the configured one, capped by the grant.

    The external sort reads it at every sink and after every run cut; a
    grant below the configured threshold cuts every run at the grant.
    (The in-memory operator cuts no run and never asks.)
    """
    threshold = config.run_threshold
    grant = config.memory_grant
    if grant is not None:
        threshold = max(
            1, min(threshold, int(grant.effective_run_threshold(threshold)))
        )
    return threshold


DEFAULT_RUN_THRESHOLD = 1 << 17
"""Rows the spilling store buffers before it sorts and spills a run."""


@dataclass(frozen=True)
class SortConfig:
    """Tuning knobs of the sort operator.

    Attributes:
        run_threshold: rows a sort that may spill (``external``)
            accumulates before it cuts a sorted run (at a multiple of
            :data:`repro.table.chunk.VECTOR_SIZE` rows into the chunk
            that reaches it) and spills it.  Ignored otherwise: a
            resident cut frees nothing, so everything is one run.
        string_prefix: forced VARCHAR prefix length in normalized keys
            (default: chosen from the data, capped at 12 like DuckDB).
            An input of the statistics layout like the data's own
            lengths; the paper-face prefix ablation is its caller.
        external: the sort may spill.  Input that reaches the live run
            threshold is cut into runs that go to disk and stream back
            through the k-way merge; input that never reaches it is
            sorted exactly as without the flag (no file, no directory).
            Honoured wherever a full sort runs (:func:`sort_table`, the
            engine's ORDER BY, GROUP BY, window and merge-join sorts)
            through :func:`make_sort_operator`, its one reader.
        spill_directories: ordered failover targets for spill files.
            The external sort writes each run to its primary directory
            first (two retries per directory, 10 ms backoff doubling per
            retry); on persistent write failure (e.g. ``ENOSPC``) it
            fails over to these, in order, before keeping the run in
            memory at half the run threshold.
        verify_spill_checksums: verify the CRC32 of every spill block
            read, one per merge block and one per payload.  On by
            default; off trades integrity for a little read throughput.
        prefetch_blocks: read-ahead depth, in blocks per run per section,
            of the external merge's prefetch layer
            (:mod:`repro.sort.prefetch`).  Once reads prove slow, a small
            thread pool fetches and CRC-verifies each run's *next* key
            block (and the payload rows backing the frontier) while the
            merge kernel consumes the current one; file reads release the
            GIL, so the latency overlaps merge compute.  The total buffered
            read-ahead is additionally capped at ``run_threshold`` rows,
            so prefetch memory is charged against the same budget that
            sizes runs.  ``0`` disables prefetching (every spill read is
            synchronous on the merge's critical path).
        cancel_event: cooperative cancellation flag (any object with an
            ``is_set()`` method: a ``threading.Event``, or the
            :class:`repro.service.QueryTicket` that is also set once its
            deadline passes).  Both
            sort operators poll it at their checkpoints -- sink, run
            generation, every round of the k-way merge, and prefetch
            scheduling -- and raise
            :class:`repro.errors.SortCancelledError` when it is set, so
            a query service can abort a sort from another thread
            without reaching into operator internals.  Cleanup follows
            the operator's normal failure paths (temp files removed,
            prefetch pools joined).
        memory_grant: per-operator memory grant from a global governor
            (any object with ``effective_run_threshold(base_rows)`` and
            ``record_spill(nbytes)``, see
            :class:`repro.service.governor.MemoryGrant`).  The external
            sort treats ``min(run_threshold,
            grant.effective_run_threshold(run_threshold))`` as its live
            run threshold, read at every sink -- so a grant smaller
            than the threshold cuts runs (and the prefetch budget
            derived from the threshold) at its size, spilling earlier
            (``SortStats.governor_forced_spills`` counts the runs so
            cut).  Ignored in memory, like ``run_threshold``.
        merge_fan_in: maximum runs merged per k-way pass of the external
            sort.  ``0`` (default) merges all runs in one pass.  With a
            limit, excess runs are first combined in intermediate passes
            that re-spill merged runs: a merge whose memory holds only
            ``merge_fan_in`` frontier blocks pays for each pass by
            re-reading and re-writing its input (``merge_passes`` counts
            the passes).  Ignored when truncated VARCHAR prefixes require
            exact-string refinement (those merges stay single-pass).
    """

    run_threshold: int = DEFAULT_RUN_THRESHOLD
    string_prefix: int | None = None
    external: bool = False
    spill_directories: tuple[str, ...] = ()
    verify_spill_checksums: bool = True
    prefetch_blocks: int = 1
    merge_fan_in: int = 0
    cancel_event: object | None = field(default=None, compare=False)
    memory_grant: object | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.run_threshold <= 0:
            raise SortError("run_threshold must be positive")
        if self.string_prefix is not None and self.string_prefix < 0:
            raise SortError("string_prefix must be non-negative")
        if self.prefetch_blocks < 0:
            raise SortError("prefetch_blocks must be non-negative")
        if self.merge_fan_in < 0 or self.merge_fan_in == 1:
            raise SortError("merge_fan_in must be 0 (unlimited) or >= 2")
        if not isinstance(self.spill_directories, tuple):
            object.__setattr__(
                self, "spill_directories", tuple(self.spill_directories)
            )


class PhaseClock:
    """Each phase's self time into ``phase_seconds``: its :meth:`time_phase`
    block's wall clock less every phase opened or charged inside it (per
    open phase, innermost last, ``_open`` sums those).  :class:`SortStats`
    and the service's ``QueryTicket`` use it."""

    def __post_init__(self) -> None:
        self._open: list[float] = []

    def add_phase_seconds(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` to ``phase``, out of the innermost open one."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds
        if self._open:
            self._open[-1] += seconds

    def time_phase(self, phase: str) -> "_OpenPhase":
        """Charge the ``with`` block's self time to ``phase``."""
        return _OpenPhase(self, phase)


class _OpenPhase:
    """One :meth:`PhaseClock.time_phase` block (half a generator's cost)."""

    __slots__ = ("clock", "phase", "start")

    def __init__(self, clock: PhaseClock, phase: str) -> None:
        self.clock, self.phase = clock, phase

    def __enter__(self) -> None:
        self.clock._open.append(0.0)
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self.start
        inner = self.clock._open.pop()
        self.clock.add_phase_seconds(self.phase, elapsed - inner)
        if self.clock._open:  # the enclosing phase loses all of ``elapsed``
            self.clock._open[-1] += inner


@dataclass
class SortStats(PhaseClock):
    """What the operator did: run counts, dispatch, merge work.

    Both operators run the same pipeline, so every counter means the
    same thing for a resident and a spilling store; the spill, fault and
    prefetch counters simply stay zero when nothing is spilled.

    ``kernel_kway_merges`` counts k-way merge passes of the
    block-streaming kernel; ``kway_rounds`` and
    ``kway_peak_frontier_rows`` describe its frontier loop.
    ``phase_seconds`` holds each pipeline phase's self time
    (:class:`PhaseClock`), so the phases partition the sort's wall clock:
    ``encode`` (chunks sunk and joined into a run, its key statistics and
    normalization), ``run_gen`` (sorting runs), ``merge`` (merging runs
    and gathering their payload), ``refine`` (exact-string repair of
    prefix-tied rows inside the merge), ``decode`` (the result table:
    resident payload taken by row position, spilled rows or keys
    decoded) and ``spill_io`` (reading/writing spill files).

    The fault counters describe the external sort's degradation ladder:
    ``spill_retries`` (writes retried after a transient error),
    ``spill_failovers`` (runs redirected to a secondary directory),
    ``memory_run_fallbacks`` (runs kept because no target was writable),
    ``checksum_verifications`` / ``checksum_failures`` (CRC32 blocks
    checked on spill reads), ``cleanup_errors`` (temp files that could
    not be removed: recorded and warned about).

    The key-compression counters: ``key_width_used`` is the final
    layout's key bytes per row and ``key_width_full`` what the plain
    (NULL byte + full type width; a VARCHAR window at byte 0, so the
    bytes its segment skips count) layout would cost (row-id suffix
    excluded); ``key_layout_rebases`` counts runs whose
    keys were re-encoded because later data widened the layout;
    ``key_carried_runs`` counts runs spilled without payload (the file
    holds the keys alone; the merge decodes the columns from them).
    ``sort_passes`` / ``sort_tied_rows`` are the run sort's exact counts
    (:func:`repro.sort.kernels.argsort_words`): sort calls made, and rows
    each sort's first pass left tied (what the kernel's cost depends on).

    The exact-string counters: ``full_key_compares`` counts rows whose
    full string values were consulted to break byte-equal prefix ties;
    ``reencode_rounds`` / ``reencoded_rows`` count the adaptive
    tie-break re-encoding's chunk rounds and the row-chunks they touched
    (:mod:`repro.sort.stringsort`).

    The prefetch counters describe the external merge's read-ahead layer
    (:mod:`repro.sort.prefetch`): ``prefetch_hits`` (blocks already
    buffered when the merge asked for them) vs ``prefetch_misses``
    (blocks the merge had to wait for, or fetch synchronously), with the
    consumer-side wait recorded under ``phase_seconds["io_wait"]`` and
    the background threads' read+verify time under
    ``phase_seconds["spill_io_overlap"]`` (overlapped, so it is taken
    out of no phase and falls outside the partition);
    ``prefetch_peak_blocks`` is the most read-ahead blocks buffered at
    once (the budget observably holding).

    The run-generation shape: ``run_lengths`` holds the row count of
    every run in generation order (the run-length histogram).
    ``merge_passes`` counts k-way merge passes over the data: 0 when
    one resident run with exact byte order is the result (a sort that
    never spilled, without a truncated VARCHAR prefix), else 1, plus
    the intermediate passes ``SortConfig.merge_fan_in`` makes the
    spilling store insert.  ``governor_forced_spills`` counts runs the
    external sort cut below the configured ``run_threshold`` because the
    memory grant (``SortConfig.memory_grant``) capped the live
    threshold -- the governor forcing an early spill.

    The order-propagation counters describe planner-level sortedness
    reuse (:mod:`repro.engine.plan`): ``sorts_elided`` counts sorts the
    input's ordering already satisfied, ``sorts_subsumed`` those a
    strictly longer one did (``ORDER BY a, b`` over input sorted ``a, b,
    c``); an input sorted on a proper prefix gets a full sort.
    """

    rows_sorted: int = 0
    runs_generated: int = 0
    kernel_kway_merges: int = 0
    kway_rounds: int = 0
    kway_peak_frontier_rows: int = 0
    prefix_exact: bool = True
    spill_retries: int = 0
    spill_failovers: int = 0
    memory_run_fallbacks: int = 0
    checksum_verifications: int = 0
    checksum_failures: int = 0
    cleanup_errors: list[str] = field(default_factory=list)
    phase_seconds: dict[str, float] = field(default_factory=dict)
    key_width_used: int = 0
    key_width_full: int = 0
    key_layout_rebases: int = 0
    key_carried_runs: int = 0
    sort_passes: int = 0
    sort_tied_rows: int = 0
    full_key_compares: int = 0
    reencode_rounds: int = 0
    reencoded_rows: int = 0
    prefetch_hits: int = 0
    prefetch_misses: int = 0
    prefetch_peak_blocks: int = 0
    run_lengths: list[int] = field(default_factory=list)
    merge_passes: int = 0
    governor_forced_spills: int = 0
    sorts_elided: int = 0
    sorts_subsumed: int = 0

class SortOperator:
    """Materializing ORDER BY operator (paper Figure 11).

    Use as::

        op = SortOperator(schema, SortSpec.of("a DESC", "b"))
        op.sink(chunk)  # any number of chunks, of any length
        result = op.finalize()

    ``sink`` buffers; ``finalize`` runs the two shared stages:
    :class:`~repro.sort.rungen.RunGenerator` sorts it all as one run,
    :class:`~repro.sort.merger.RunMerger` returns it.  A resident store
    holds nothing to release: ``close()`` and the context manager are
    no-ops here, for the spilling subclass to override.
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
        self.stats = SortStats()
        self._generator = RunGenerator(
            schema, spec, self.config, self.stats, self._check_cancelled
        )
        self._buffer: list[DataChunk] = []
        self._finalized = False

    def __enter__(self) -> "SortOperator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def close(self) -> None:
        """Release what the store holds: nothing, for a resident one."""

    def _check_cancelled(self) -> None:
        raise_if_cancelled(self.config)

    def sink(self, chunk: DataChunk) -> None:
        """Accept a chunk of input, of any length (timed as ``encode``)."""
        start = time.perf_counter()
        if self._finalized:
            raise SortError("cannot sink into a finalized sort")
        if chunk.schema is not self.schema and chunk.schema.names != self.schema.names:
            raise SortError(
                f"chunk schema {chunk.schema.names} does not match "
                f"operator schema {self.schema.names}"
            )
        self._check_cancelled()
        if len(chunk):
            self._buffer.append(chunk)
        self.stats.add_phase_seconds("encode", time.perf_counter() - start)

    def finalize(self) -> Table:
        """Sort the buffered input as one run and return it as a table."""
        if self._finalized:
            raise SortError("sort already finalized")
        self._finalized = True
        if not self._buffer:
            return Table.empty(self.schema)
        run = self._sort_buffer(lone=True)
        with self.stats.time_phase("merge"):
            merger = RunMerger(self._generator, run.num_rows)
            if merger.refine_end is None:  # taken as it stands: keys unread
                run.words = None
            result = merger.merge([run])
            del run  # the run's table is freed inside the phase
        return result

    def _sort_buffer(self, lone: bool = False) -> InMemoryRun:
        """Everything buffered as one resident run; the buffer is released.
        The words of a ``lone`` run with exact byte order go unread after
        the sort, which may consume them."""
        table, words = self._generator.encode(self._buffer)
        self._buffer = []
        lone = lone and self.stats.prefix_exact
        return self._generator.sort_run(table, words, consume=lone)


def make_sort_operator(
    schema: Schema, spec: SortSpec, config: SortConfig | None = None
) -> SortOperator:
    """The full-sort operator ``config`` asks for; use it as a context.
    The one reader of ``SortConfig.external`` (the spilling subclass is
    imported here because it extends :class:`SortOperator`)."""
    if config is not None and config.external:
        from repro.sort.external import ExternalSortOperator

        return ExternalSortOperator(schema, spec, config)
    return SortOperator(schema, spec, config)


def sort_table(
    table: Table, spec: SortSpec | str, config: SortConfig | None = None
) -> Table:
    """Sort a table by an ORDER BY spec; the one-call public entry point.

    ``spec`` may be a :class:`SortSpec` or text like
    ``"country DESC NULLS LAST, birth_year"``; with
    ``SortConfig.external`` the sort may spill.
    """
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    with make_sort_operator(table.schema, spec, config) as operator:
        operator.sink(DataChunk.from_table(table))
        return operator.finalize()
