"""External (out-of-core) sorting: graceful degradation beyond memory.

The paper's future-work section calls for blocking operators whose
"performance gracefully degrades as the data size exceeds the memory
limit", using the unified row format "to offload the data to secondary
storage".  This module implements that design for the sort operator:

* :class:`ExternalSortOperator` *extends* the resident
  :class:`repro.sort.operator.SortOperator` (same construction,
  validation, buffer, :class:`repro.sort.rungen.RunGenerator` and
  cancellation checkpoint): its ``sink`` is the inherited one plus "the
  buffer reached the live run threshold: cut a run and **spill** it";
* input that never reaches the threshold is finished by the inherited
  ``finalize`` -- one resident run, returned unmerged, no file written,
  no directory made: spilling is what the sort does on overflow;
* otherwise the rows still buffered at ``finalize`` become one more
  *resident* run beside the spilled ones (sorting them is the memory
  peak either way, and writing them afterwards frees nothing the return
  does not), and all runs stream block-by-block through the shared
  :class:`repro.sort.merger.RunMerger` (the block-streaming k-way
  kernel, :func:`repro.sort.kernels.kway_merge_blocks`), so the merge
  working set is O(num_runs * block_rows) key rows instead of O(n),
  with zero per-row Python between frontier refills.

What this module adds to the inherited stages is the spilling *run
store*: the spill-file reader (:class:`SpilledRun`), the temp-directory
lifecycle, the write ladder below, header/CRC verification, the
read-ahead hook (:mod:`repro.sort.prefetch`), fan-in-limited merge
pre-passes, and -- only under ``SortConfig.replacement_selection`` --
replacement-selection run generation, which buys fewer files and
passes, so only a store that pays for files can use it.

Runs are encoded under the runtime key-compression layer
(:mod:`repro.keys.compression`): each run's layout comes from one
monotone statistics accumulator, so layouts only ever widen run-to-run
and the merge rebases earlier (narrower) runs onto the final layout
block-by-block as it streams them -- spilled key bytes shrink without a
re-spill pass.  A spill header's ``extra`` blob is its run's serialized
layout.
When the key segments alone can reconstruct every column exactly
(``key_carried_eligible``: all columns are fixed-width non-float sort
keys), runs are spilled **key-carried**: the payload row matrix and heap
sections are empty and the output table is decoded straight from the
merged key rows, cutting spill volume by the full payload width.

Truncated VARCHAR prefixes spill in key-byte order and the streamed
merge repairs them with the adaptive re-encode loop
(:func:`repro.sort.stringsort.refine_key_order`) -- rows tied on the
bytes up to the first truncated segment are held in a carry buffer
across round boundaries, refined against their full strings' bytes in
the spilled heaps (no ``str`` decoded), then emitted.

The spill format per run is one file of three contiguous data sections --
the sorted key matrix, the payload row matrix, and the string heap --
preceded by a versioned, checksummed header (:mod:`repro.sort.spillfile`).
The NSM rows and heap exist for the file: a resident run keeps its
payload in columns, and one ``RowBlock.from_table`` builds them when the
run is written (:meth:`~repro.sort.rungen.InMemoryRun.to_row_run`), or
once in the merge for a resident run (the tail, a memory fallback) that
joins spilled ones.
Sections are written with whole-buffer ``tobytes()`` calls and indexed by
offset arithmetic, so any row range reads back with a single seek; every
block read verifies the CRC32 pages it touches, so a truncated or
bit-flipped file raises :class:`repro.errors.SpillCorruptionError` naming
the run instead of an opaque numpy error mid-merge.

A production sorter is judged by how it fails, so spill I/O is fault
tolerant end to end (all of it routed through a swappable
:class:`repro.sort.faults.SpillIO`, which is also the fault-injection
point for the tests).  The degradation ladder on write failure:

1. **retry** -- transient errors are retried with bounded exponential
   backoff (``SortConfig.spill_retries`` / ``spill_retry_backoff_s``);
2. **failover** -- on persistent failure (e.g. ``ENOSPC``) the run is
   redirected to the next directory in ``SortConfig.spill_directories``;
3. **memory fallback** -- when no spill target is writable the run is
   kept resident (:class:`InMemoryRun`, its payload still columnar) and the
   run threshold halves, degrading to a reduced-memory in-process merge
   rather than failing the query (raise instead with
   ``SortConfig.allow_memory_fallback=False``).

The operator is a context manager; ``close()`` (idempotent, also run by
``finalize`` and ``cancel``) always removes the temp files, recording any
removal failure in ``SortStats.cleanup_errors`` instead of swallowing it.
"""

from __future__ import annotations

import os
import secrets
import tempfile
import time
import warnings
import zlib
from typing import Iterator, Sequence

import numpy as np

from repro.errors import (
    KeyEncodingError,
    SortCancelledError,
    SortError,
    SpillCapacityError,
    SpillCorruptionError,
    SpillIOError,
)
from repro.keys.compression import (
    deserialize_layout,
    rebase_matrix,
    serialize_layout,
)
from repro.keys.normalizer import KeyLayout
from repro.sort.faults import SpillIO
from repro.sort.merger import RunMerger
from repro.sort.operator import (
    SortConfig,
    SortOperator,
    SortStats,
    effective_run_threshold,
)
from repro.sort.prefetch import BlockPrefetcher, prefetch_budget_blocks
from repro.sort.rungen import (
    RUN_CAP_FACTOR,
    InMemoryRun,
    ReplacementSelection,
    RowRun,
)
from repro.sort.spillfile import (
    SECTION_NAMES,
    SpillHeader,
    VerifiedTailCache,
    build_header,
    read_header,
)
from repro.table.chunk import DataChunk
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "SpilledRun",
    "InMemoryRun",
    "ExternalSortOperator",
]

_BACKOFF_CAP_S = 1.0
"""Upper bound of one exponential-backoff sleep between write retries."""

_KEYS, _ROWS, _HEAP = range(3)


class SpilledRun:
    """A sorted run on disk: path, validated header, and block readers.

    The file layout is :mod:`repro.sort.spillfile`: a checksummed header
    followed by three contiguous sections (sorted key matrix, payload
    row matrix, string heap), each written with one ``tobytes()`` buffer
    -- no per-row serialization -- so any row range reads back as a
    single ``seek`` + ``read``.  With ``verify`` on (the default), every
    read checks the CRC32 pages it covers and raises
    :class:`SpillCorruptionError` on mismatch or truncation;
    OS-level read failures surface as :class:`SpillIOError`.  Both carry
    the offending ``path``.
    """

    on_disk = True

    def __init__(
        self,
        path: str,
        header: SpillHeader,
        layout: KeyLayout,
        io: SpillIO | None = None,
        verify: bool = True,
    ) -> None:
        self.path = path
        self.header = header
        #: the key layout the run was encoded under; ``header.extra``
        #: is its serialized form.
        self.layout = layout
        self.io = io or SpillIO()
        self.verify = verify
        # One verified page of bytes per section: consecutive block reads
        # whose boundary straddles a CRC page share it from memory
        # instead of re-reading and re-verifying it (thread-safe; see
        # :class:`repro.sort.spillfile.VerifiedTailCache`).
        self._tail_cache = VerifiedTailCache()

    @classmethod
    def open(
        cls,
        path: str,
        schema: Schema,
        spec: SortSpec,
        io: SpillIO | None = None,
        verify: bool = True,
    ) -> "SpilledRun":
        """Attach to an existing spill file, validating its header.

        The run's key layout is rebuilt from the header's extra blob and
        cross-checked against ``schema`` and ``spec``; a blob that does
        not describe this sort raises :class:`SpillCorruptionError`.
        """
        io = io or SpillIO()
        try:
            header = read_header(io, path)
        except OSError as error:
            raise SpillIOError(
                f"spill header read failed: {error}", path
            ) from error
        try:
            layout = deserialize_layout(header.extra, schema, spec)
        except KeyEncodingError as error:
            raise SpillCorruptionError(
                f"spill header key layout: {error}", path
            ) from error
        return cls(path, header, layout, io, verify)

    @property
    def num_rows(self) -> int:
        return self.header.num_rows

    @property
    def key_width(self) -> int:
        return self.header.key_width

    @property
    def row_width(self) -> int:
        return self.header.row_width

    @property
    def heap_bytes(self) -> int:
        return self.header.heap_bytes

    def verify_header(self, stats: SortStats | None = None) -> None:
        """Re-read the on-disk header and check it matches this run's.

        Catches a replaced, truncated, or header-corrupted file before
        any geometry derived from the in-memory header is trusted.
        """
        try:
            on_disk = read_header(self.io, self.path)
        except OSError as error:
            raise SpillIOError(
                f"spill header read failed: {error}", self.path
            ) from error
        if stats is not None:
            stats.checksum_verifications += 1
        if on_disk != self.header:
            if stats is not None:
                stats.checksum_failures += 1
            raise SpillCorruptionError(
                "on-disk spill header does not match the run that was "
                "written",
                self.path,
            )

    def _raw_read(
        self, offset: int, nbytes: int, stats: SortStats | None
    ) -> bytes:
        start = time.perf_counter()
        try:
            return self.io.read(self.path, offset, nbytes)
        except OSError as error:
            raise SpillIOError(
                f"spill read failed: {error}", self.path
            ) from error
        finally:
            if stats is not None:
                stats.add_phase_seconds(
                    "spill_io", time.perf_counter() - start
                )

    def _read_section(
        self,
        section: int,
        start: int,
        nbytes: int,
        stats: SortStats | None,
    ) -> bytes:
        """Bytes ``[start, start+nbytes)`` of a section, CRC-verified.

        Verification is page-granular: the read is widened to the CRC
        pages it touches, each covered page is checked against the
        header's table, and the requested slice is returned -- so
        integrity never requires reading more than one page beyond the
        block on either side.
        """
        header = self.header
        length = header.section_length(section)
        name = SECTION_NAMES[section]
        if start < 0 or nbytes < 0 or start + nbytes > length:
            raise SpillCorruptionError(
                f"read of [{start}, {start + nbytes}) outside the "
                f"{name} section (length {length})",
                self.path,
            )
        if nbytes == 0:
            return b""
        base = header.section_offset(section)
        if not self.verify:
            raw = self._raw_read(base + start, nbytes, stats)
            if len(raw) != nbytes:
                raise SpillCorruptionError(
                    f"truncated {name} section "
                    f"(got {len(raw)} of {nbytes} bytes)",
                    self.path,
                )
            return raw
        page = header.page_size
        first = start // page
        last = -(-(start + nbytes) // page)
        aligned_start = first * page
        aligned_stop = min(last * page, length)
        # Serve the head page from the tail cache when the previous read
        # already verified it; a request entirely inside the cached page
        # needs no I/O (and no re-verification) at all.
        head = b""
        cached = self._tail_cache.get(section, first)
        if cached is not None:
            if last == first + 1:
                offset = start - aligned_start
                return cached[offset : offset + nbytes]
            head = cached
            first += 1
            aligned_start = first * page
        raw = self._raw_read(
            base + aligned_start, aligned_stop - aligned_start, stats
        )
        if len(raw) != aligned_stop - aligned_start:
            raise SpillCorruptionError(
                f"truncated {name} section (got {len(raw)} of "
                f"{aligned_stop - aligned_start} bytes at offset "
                f"{aligned_start})",
                self.path,
            )
        crcs = header.page_crcs[section]
        view = memoryview(raw)
        for index in range(first, last):
            lo = index * page - aligned_start
            hi = min((index + 1) * page, length) - aligned_start
            if stats is not None:
                stats.checksum_verifications += 1
            if zlib.crc32(view[lo:hi]) != crcs[index]:
                if stats is not None:
                    stats.checksum_failures += 1
                raise SpillCorruptionError(
                    f"CRC32 mismatch in {name} section page {index}",
                    self.path,
                )
        self._tail_cache.put(
            section, last - 1, raw[(last - 1) * page - aligned_start :]
        )
        full = head + raw if head else raw
        offset = start - (aligned_start - len(head))
        return full[offset : offset + nbytes]

    def read_key_block(
        self, start: int, stop: int, stats: SortStats | None = None
    ) -> np.ndarray:
        """Key rows ``[start, stop)`` as an ``(m, key_width)`` matrix."""
        raw = self._read_section(
            _KEYS,
            start * self.key_width,
            (stop - start) * self.key_width,
            stats,
        )
        return np.frombuffer(raw, dtype=np.uint8).reshape(
            stop - start, self.key_width
        )

    def read_row_block(
        self, start: int, stop: int, stats: SortStats | None = None
    ) -> np.ndarray:
        """Payload rows ``[start, stop)`` as an ``(m, row_width)`` matrix."""
        raw = self._read_section(
            _ROWS,
            start * self.row_width,
            (stop - start) * self.row_width,
            stats,
        )
        return np.frombuffer(raw, dtype=np.uint8).reshape(
            stop - start, self.row_width
        )

    def read_heap(self, stats: SortStats | None = None) -> bytes:
        """The whole string heap (offsets in rows are run-relative)."""
        return self._read_section(_HEAP, 0, self.heap_bytes, stats)


class ExternalSortOperator(SortOperator):
    """The sort that may spill: sorted runs go to disk, the merge streams.

    A :class:`~repro.sort.operator.SortOperator` whose run store spills
    (see the module docstring for ``sink`` and ``finalize``), with a
    fault-tolerant lifecycle: ``close()`` always removes its temp files
    (recording failures in ``SortStats.cleanup_errors``), and
    ``cancel()`` aborts the sort at the next merge checkpoint with
    guaranteed cleanup.
    ``spill_directory`` defaults to a fresh temporary directory, made by
    the first spill; ``SortConfig.spill_directories`` names failover
    targets tried in order when writes to the primary keep failing,
    after which runs fall back to memory.  ``stats`` records run
    counts, k-way merges, the merge's peak frontier size, per-phase
    (encode / run_gen / merge / spill_io) wall-clock, and the fault
    counters (retries, failovers, memory fallbacks, checksum
    verifications/failures, cleanup errors).
    """

    def __init__(
        self,
        schema: Schema,
        spec: SortSpec,
        config: SortConfig | None = None,
        spill_directory: str | None = None,
        merge_block_rows: int = 4096,
        io: SpillIO | None = None,
    ) -> None:
        if merge_block_rows <= 0:
            raise SortError("merge_block_rows must be positive")
        super().__init__(schema, spec, config)
        self._io = io or SpillIO()
        self._spill_directory = spill_directory
        self._own_dir: str | None = None  # made by the first spill
        self.merge_block_rows = merge_block_rows
        self._buffered_rows = 0
        self._runs: list[SpilledRun | InMemoryRun | RowRun] = []
        self._closed = False
        self._cancelled = False
        self._merging = False
        self._spilling = False
        self._degraded = False
        # Replacement selection: the selection object holds the working
        # set of sorted segments between spills.
        self._selection: ReplacementSelection | None = None
        self._run_seq = 0  # spill filename counter (never reused)
        # Collision-proof spill names: concurrent sorts sharing a spill
        # directory (a service pool, user-provided failover targets)
        # must never write the same filename, so every operator salts
        # its run files with a per-instance random token.
        self._spill_token = secrets.token_hex(4)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release all resources: buffered chunks, spill files, temp dir.

        Idempotent; also invoked by ``finalize`` (success or failure),
        ``cancel``, and context-manager exit.  Removal failures are
        recorded in ``SortStats.cleanup_errors`` and warned about --
        never silently swallowed.
        """
        if self._closed:
            return
        self._closed = True
        self._selection = None
        self._buffer.clear()
        for run in self._runs:
            if run.on_disk:
                self._remove_file(run.path)
        if self._own_dir is not None:
            try:
                os.rmdir(self._own_dir)
            except FileNotFoundError:
                pass
            except OSError as error:
                self._record_cleanup_error(self._own_dir, error)

    @property
    def _dir(self) -> str:
        """The primary spill directory; an own one is made on first use
        (the first spill), so a sort that never spills makes none."""
        if self._spill_directory is None:
            self._spill_directory = self._own_dir = tempfile.mkdtemp(
                prefix="repro-spill-"
            )
        return self._spill_directory

    def cancel(self) -> None:
        """Abort the sort; temp files are removed, results are refused.

        Safe to call from any point, including a merge-progress hook or
        a fault-injection hook firing mid-spill: while a merge or a
        spill write is in flight only the cancelled flag is set, and the
        operator raises :class:`SortCancelledError` at its next
        checkpoint (cleanup then runs in the in-flight operation's
        ``finally``); otherwise cleanup happens immediately.
        """
        self._cancelled = True
        if not self._merging and not self._spilling:
            self.close()

    def _check_cancelled(self) -> None:
        if self._cancelled:
            raise SortCancelledError("external sort was cancelled")
        super()._check_cancelled()

    def _record_cleanup_error(self, target: str, error: OSError) -> None:
        message = f"{target}: {error}"
        self.stats.cleanup_errors.append(message)
        warnings.warn(
            f"external sort failed to clean up {message}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _remove_file(self, path: str) -> None:
        """Best-effort removal; failures are recorded, not raised."""
        try:
            self._io.remove(path)
        except FileNotFoundError:
            pass
        except OSError as error:
            self._record_cleanup_error(path, error)

    # ------------------------------------------------------------------ #
    # Sink + spill
    # ------------------------------------------------------------------ #

    @property
    def spilled_runs(self) -> int:
        return len(self._runs)

    @property
    def spilled_bytes(self) -> int:
        total = 0
        for run in self._runs:
            if not run.on_disk:
                continue
            try:
                total += self._io.file_size(run.path)
            except OSError:
                pass
        return total

    @property
    def _run_threshold(self) -> int:
        # Reduced-memory degradation: once runs stay resident, cut them
        # at half the configured threshold to curb buffer growth.  The
        # base threshold is the grant-shrunk live value
        # (:func:`effective_run_threshold`), re-read per sink so a
        # governor revoking bytes mid-query forces earlier spills.
        threshold = effective_run_threshold(self.config)
        return max(1, threshold // 2) if self._degraded else threshold

    def sink(self, chunk: DataChunk) -> None:
        """Accept one vector batch; cut and spill a run at the threshold."""
        if self._closed and not (self._finalized or self._cancelled):
            raise SortError("cannot sink into a closed sort")
        super().sink(chunk)
        self._buffered_rows += len(chunk)
        if self._buffered_rows >= self._run_threshold:
            if effective_run_threshold(self.config) < self.config.run_threshold:
                self.stats.governor_forced_spills += 1
            self._spill_run()

    def _spill_targets(self) -> Iterator[str]:
        """Candidate directories for the next run file, in failover order."""
        yield self._dir
        for directory in self.config.spill_directories:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError:
                continue  # an uncreatable failover target is skipped
            yield directory

    def _write_run_file(
        self, filename: str, sections: Sequence[bytes]
    ) -> str | None:
        """Write one run file through the retry -> failover ladder.

        Per candidate directory, transient ``OSError`` failures are
        retried ``SortConfig.spill_retries`` times with bounded
        exponential backoff; a directory that keeps failing is failed
        over.  Returns the written path, or ``None`` when every target
        was exhausted (the caller degrades to an in-memory run).
        Partial files from failed attempts are removed best-effort.
        """
        config = self.config
        for position, directory in enumerate(self._spill_targets()):
            if position > 0:
                self.stats.spill_failovers += 1
            path = os.path.join(directory, filename)
            for attempt in range(config.spill_retries + 1):
                try:
                    with self.stats.time_phase("spill_io"):
                        self._io.write_file(path, sections)
                    return path
                except OSError:
                    self._remove_file(path)
                    if attempt < config.spill_retries:
                        self.stats.spill_retries += 1
                        delay = config.spill_retry_backoff_s * (2**attempt)
                        if delay:
                            time.sleep(min(delay, _BACKOFF_CAP_S))
        return None

    def _spill_run(self) -> None:
        batch = self._generator.encode(self._buffer)
        self._buffer = []
        self._buffered_rows = 0
        # Replacement selection needs keys whose byte order *is* the sort
        # order: a truncated VARCHAR prefix would need exact-string
        # refinement across segment boundaries, so sorts with string keys
        # decline it.
        if (
            self.config.replacement_selection
            and not self._generator.has_string_key
        ):
            self.stats.rungen_path = "replacement_selection"
            self._rs_feed(*batch)
        else:
            self.stats.rungen_path = "argsort"
            self._store_run(self._generator.sort_run(*batch))

    # ------------------------------------------------------------------ #
    # Replacement-selection run generation
    # ------------------------------------------------------------------ #

    def _rs_feed(self, table: Table, words, encoded, base: int) -> None:
        """Sort one batch into the selection working set, then drain.

        The selection works on the batch's key rows in the spill format
        (key bytes plus row id), made here once.
        """
        if self._selection is None:
            self._selection = ReplacementSelection(rebase=rebase_matrix)
        layout = self._generator.layout
        with self.stats.time_phase("run_gen"):
            order = self._generator.argsort(words)
            run = InMemoryRun(words, layout, table, order, encoded, base)
            keys = run.to_row_run(keys_only=True).keys
            self._selection.feed(keys, order, table, layout)
        self._rs_drain(final=False)

    def _rs_drain(self, final: bool) -> None:
        """Emit selection batches until occupancy returns to the budget.

        Between spills the working set is drained back to one run
        threshold of rows (classic replacement selection holds exactly
        one memory's worth); at finalize it drains to empty.  A run
        closes when nothing left is >= the fence, or at the
        :data:`~repro.sort.rungen.RUN_CAP_FACTOR` safety cap -- without
        the cap a fully sorted stream would accumulate one unbounded
        in-memory run and defeat the point of spilling.
        """
        selection = self._selection
        cap = RUN_CAP_FACTOR * self._run_threshold
        target = 0 if final else self._run_threshold
        while selection.pending_rows > target:
            self._check_cancelled()
            with self.stats.time_phase("run_gen"):
                selection.step()
            if selection.run_rows and (
                selection.run_rows >= cap or selection.exhausted
            ):
                self._rs_store()
        if final and selection.run_rows:
            self._rs_store()

    def _rs_store(self) -> None:
        """Spill the selection's open run (keys ready, payload gathered)."""
        run = self._selection.close_run()
        with self.stats.time_phase("run_gen"):
            packed = self._generator.pack(run.keys, run.layout, run.payload())
        self._store_run(packed)

    # ------------------------------------------------------------------ #
    # The spilling run store
    # ------------------------------------------------------------------ #

    def _store_run(
        self, run: "InMemoryRun | RowRun"
    ) -> "SpilledRun | InMemoryRun | RowRun":
        """Spill one sorted run, degrading to memory when disk is gone.

        The stored run is appended to ``self._runs`` (so cleanup always
        sees it) and returned -- the run itself when it stays resident;
        the fan-in-limited merge stores
        intermediate runs through the same ladder.  Filenames come from a never-reused
        sequence counter, not the live run count, because multi-pass
        merging shrinks the list while old files still exist; the
        per-operator random token keeps names collision-proof across
        concurrent sorts sharing a spill directory.

        A ``cancel()``/``close()`` that raced the write (e.g. a fault
        hook firing mid-spill) is honored *after* the write: the fresh
        file -- which ``close()`` could not have seen -- is removed here
        and the sort raises :class:`SortCancelledError` instead of
        tracking a run past its own cleanup.
        """
        filename = f"run-{self._spill_token}-{self._run_seq:05d}.bin"
        self._run_seq += 1
        path = None
        self._spilling = True
        try:
            if not self._degraded:
                with self.stats.time_phase("run_gen"):
                    # The run's key bytes and NSM rows, once.
                    written = run.to_row_run(self._generator.key_carried)
                sections = (
                    written.keys.tobytes(),
                    written.rows.tobytes(),
                    written.heap,
                )
                header = build_header(
                    *written.keys.shape,
                    written.rows.shape[1],
                    sections,
                    extra=serialize_layout(run.layout),
                )
                path = self._write_run_file(
                    filename, [header.pack(), *sections]
                )
        finally:
            self._spilling = False
        if self._cancelled or self._closed:
            if path is not None:
                self._remove_file(path)
            self.close()
            raise SortCancelledError("external sort was cancelled")
        if path is not None:
            if self._generator.key_carried:
                self.stats.key_carried_runs += 1
            grant = self.config.memory_grant
            if grant is not None:
                try:
                    nbytes = self._io.file_size(path)
                except OSError:
                    nbytes = 0
                grant.record_spill(nbytes)
            run = SpilledRun(
                path,
                header,
                run.layout,
                self._io,
                verify=self.config.verify_spill_checksums,
            )
            self._runs.append(run)
            return run
        if not self.config.allow_memory_fallback:
            raise SpillCapacityError(
                "no spill target could absorb the run "
                f"(primary {self._dir!r}, "
                f"{len(self.config.spill_directories)} failover "
                "directories); memory fallback is disabled",
                os.path.join(self._dir, filename),
            )
        if not self._degraded:
            self._degraded = True
            warnings.warn(
                "external sort: no spill target is writable; degrading "
                "to in-memory runs at half the run threshold",
                RuntimeWarning,
                stacklevel=3,
            )
        self.stats.memory_run_fallbacks += 1
        self._runs.append(run)
        return run

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> Table:
        """The sorted output table: resident if nothing spilled, else merged.

        Nothing stored and no selection open means the input never
        reached the threshold: the inherited finish sorts it as one
        resident run and no file is written.  Otherwise the buffered
        tail becomes one more resident run (it holds the latest row
        ids, so it goes last) and every run streams through one merge.
        Cleanup is guaranteed: whether the merge succeeds, raises, or is
        cancelled, ``close()`` runs and removes every temp file.
        """
        if self._finalized:
            raise SortError("sort already finalized")
        self._check_cancelled()
        if self._closed:
            raise SortError("cannot finalize a closed sort")
        self._merging = True
        try:
            if not self._runs and self._selection is None:
                return super().finalize()
            self._finalized = True
            if self._selection is not None:
                # Replacement selection: the working set still holds up
                # to a threshold of rows; drain it into final run(s).
                self._rs_drain(final=True)
                self._selection = None
            if self._buffer:
                self._runs.append(self._sort_buffer())
            if self.config.verify_spill_checksums:
                # Re-validate every on-disk header before trusting it.
                for run in self._runs:
                    if run.on_disk:
                        run.verify_header(self.stats)
            merger = RunMerger(
                self._generator, self.merge_block_rows, self._make_prefetcher
            )
            # The merge phase is timed net of the spill I/O on its
            # critical path: synchronous reads/writes ("spill_io") plus
            # stalls waiting on an unfinished prefetch ("io_wait").
            # Overlapped background reads ("spill_io_overlap")
            # deliberately do NOT subtract -- they happened concurrently
            # with merge compute.
            with self.stats.time_phase(
                "merge", ("spill_io", "io_wait") + merger.NESTED_PHASES
            ):
                self._collapse_runs(merger)
                return merger.merge(self._runs)
        finally:
            self._merging = False
            self.close()

    def _collapse_runs(self, merger: RunMerger) -> None:
        """Fan-in-limited pre-passes: merge run groups until k <= fan-in.

        With ``SortConfig.merge_fan_in`` unset the single-pass kernel
        merges any k directly and this is a no-op.  A bounded fan-in
        models a real memory budget (k frontier blocks must fit): each
        pass merges groups of ``fan_in`` runs into new spilled runs --
        re-reading and re-writing their bytes -- which is exactly the
        extra I/O that fewer, longer replacement-selection runs avoid.
        Exact-string refinement permutes rows *within* prefix-tied
        groups, which would break the intermediate runs' key-byte
        sortedness, so such sorts stay single-pass.
        """
        fan_in = self.config.merge_fan_in
        if fan_in < 2 or len(self._runs) <= fan_in:
            return
        if merger.refine_end is not None:
            return
        while len(self._runs) > fan_in:
            self._check_cancelled()
            # Snapshot: _store_run appends each merged run to self._runs
            # (for cleanup visibility), and iterating the live list would
            # let a group slice swallow a run created earlier this pass.
            current = list(self._runs)
            survivors: list[SpilledRun | InMemoryRun | RowRun] = []
            for start in range(0, len(current), fan_in):
                group = current[start : start + fan_in]
                if len(group) == 1:
                    survivors.append(group[0])
                    continue
                # _store_run appends to self._runs, so a failure mid-pass
                # still leaves every live file visible to close().
                survivors.append(self._store_run(merger.merge_to_run(group)))
                for run in group:
                    if run.on_disk:
                        self._remove_file(run.path)
            self._runs = survivors
            self.stats.merge_passes += 1

    def _make_prefetcher(
        self,
        runs: "list[SpilledRun | InMemoryRun | RowRun]",
        key_fetch,
        row_fetch,
    ) -> BlockPrefetcher | None:
        """Build the read-ahead layer for one merge over ``runs``.

        ``None`` (prefetching disabled, no on-disk runs) keeps the merge
        on the synchronous source iterators.
        """
        depth = self.config.prefetch_blocks
        if depth <= 0:
            return None
        active = [run.on_disk for run in runs]
        if not any(active):
            return None
        # The budget derives from the *live* (grant-shrunk) threshold,
        # so a governor revoking memory also shrinks the read-ahead
        # window the moment the next merge starts; it counts the streams
        # this merge opens (key-carried runs have no payload stream).
        budget = prefetch_budget_blocks(
            depth,
            sum(active),
            self.merge_block_rows,
            effective_run_threshold(self.config),
            streams=1 if row_fetch is None else 2,
        )
        return BlockPrefetcher(
            [run.num_rows for run in runs],
            active,
            self.merge_block_rows,
            key_fetch,
            row_fetch,
            depth,
            budget,
            self.stats,
            cancel_event=self.config.cancel_event,
        )
