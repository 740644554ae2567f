"""External (out-of-core) sorting: graceful degradation beyond memory.

The paper's future-work section calls for blocking operators whose
"performance gracefully degrades as the data size exceeds the memory
limit", using the unified row format "to offload the data to secondary
storage".  This module implements that design for the sort operator:

* runs are generated exactly as in :mod:`repro.sort.operator` (normalized
  keys + row-format payload), but once sorted each run is **spilled** to a
  temporary file instead of held in memory;
* finalization streams the spilled runs back block-by-block through the
  block-streaming k-way merge kernel
  (:func:`repro.sort.kernels.kway_merge_blocks`), so the merge working set
  is O(num_runs * block_rows) key rows instead of O(n), with zero per-row
  Python between frontier refills.

Runs are encoded under the runtime key-compression layer
(:mod:`repro.keys.compression`) unless ``SortConfig.compress_keys`` is
off: each run's layout comes from one monotone statistics accumulator,
so layouts only ever widen run-to-run and the merge rebases earlier
(narrower) runs onto the final layout block-by-block as it streams them
-- spilled key bytes shrink without a re-spill pass.  Each spill header
carries its run's serialized layout in the header ``extra`` blob.
When the key segments alone can reconstruct every column exactly
(``key_carried_eligible``: all columns are fixed-width non-float sort
keys), runs are spilled **key-carried**: the payload row matrix and heap
sections are empty and the output table is decoded straight from the
merged key rows, cutting spill volume by the full payload width.

Truncated VARCHAR prefixes no longer raise at spill time: run
generation repairs each run's prefix order to exact string order with
the adaptive re-encode loop
(:func:`repro.sort.stringsort.refine_key_order`), and the streamed
merge applies the same repair to every emitted batch -- rows tied on
the bytes up to the first truncated segment are held in a carry buffer
across round boundaries, refined against the full strings decoded from
the spilled payload, then emitted.  Each run's header also stores its
offset-value codes (Do & Graefe, arXiv 2209.08420) as a format-v3
tagged frame; the merge kernel combines them with a per-round
first/last-word scan to drop the key words all frontier rows share, so
duplicate-heavy merges compare only the distinguishing suffix.

The spill format per run is one file of three contiguous data sections --
the sorted key matrix, the payload row matrix, and the string heap --
preceded by a versioned, checksummed header (:mod:`repro.sort.spillfile`).
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
   kept resident (:class:`InMemoryRun`, same streaming interface) and the
   run threshold halves, degrading to a reduced-memory in-process merge
   rather than failing the query (raise instead with
   ``SortConfig.allow_memory_fallback=False``).

The operator is a context manager; ``close()`` (idempotent, also run by
``finalize`` and ``cancel``) always removes the temp files, recording any
removal failure in ``SortStats.cleanup_errors`` instead of swallowing it.

With ``SortConfig.use_vector_kernels`` off (or for cross-checking), the
scalar fallback merges through the classic per-row tournament heap over
the same streamed blocks.
"""

from __future__ import annotations

import heapq
import os
import secrets
import tempfile
import time
import warnings
import zlib
from typing import Iterator, Sequence

import numpy as np

from repro.errors import (
    SortCancelledError,
    SortError,
    SpillCapacityError,
    SpillCorruptionError,
    SpillIOError,
)
from repro.keys.compression import (
    KeyStatsAccumulator,
    decode_key_table,
    deserialize_layout,
    key_carried_eligible,
    plain_key_width,
    rebase_matrix,
    serialize_layout,
)
from repro.keys.normalizer import (
    MAX_STRING_PREFIX,
    KeyLayout,
    normalize_keys,
)
from repro.rows.block import RowBlock, gather_slices
from repro.rows.layout import RowLayout
from repro.sort.faults import SpillIO
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import KWayBlockStats, ovc_codes
from repro.sort.kway import kway_merge_stream
from repro.sort.operator import (
    SortConfig,
    SortStats,
    _segmented_argsort,
    effective_run_threshold,
)
from repro.sort.parallel_exec import ParallelSortExecutor
from repro.sort.pdqsort import pdqsort
from repro.sort.prefetch import BlockPrefetcher, prefetch_budget_blocks
from repro.sort.radix import radix_argsort
from repro.sort.rungen import (
    PROBE_THRESHOLD,
    RUN_CAP_FACTOR,
    ReplacementSelection,
    SelectionRun,
    presortedness,
)
from repro.sort.spillfile import (
    EXTRA_TAG_LAYOUT,
    EXTRA_TAG_OVC,
    SECTION_NAMES,
    SpillHeader,
    VerifiedTailCache,
    build_header,
    pack_extra,
    read_header,
    unpack_extra,
)
from repro.sort.stringsort import (
    inexact_prefix_end,
    refine_key_order,
    refine_table_order,
    refinement_must_defer,
)
from repro.table.chunk import DataChunk, chunk_table
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "SpilledRun",
    "InMemoryRun",
    "ExternalSortOperator",
    "external_sort_table",
]

ROW_ID_WIDTH = 8
"""Bytes of the row-id suffix every spilled run appends to its keys."""

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
        io: SpillIO | None = None,
        verify: bool = True,
        layout: KeyLayout | None = None,
        ovc: np.ndarray | None = None,
    ) -> None:
        self.path = path
        self.header = header
        self.io = io or SpillIO()
        self.verify = verify
        # One verified page of bytes per section: consecutive block reads
        # whose boundary straddles a CRC page share it from memory
        # instead of re-reading and re-verifying it (thread-safe; see
        # :class:`repro.sort.spillfile.VerifiedTailCache`).
        self._tail_cache = VerifiedTailCache()
        #: the run's compressed key layout (``None`` for uncompressed
        #: runs); also serialized in ``header.extra`` for re-attachment.
        self.layout = layout
        #: the run's offset-value codes (one u16 per key row, see
        #: :func:`repro.sort.kernels.ovc_codes`), or ``None``; also
        #: stored as a tagged frame in ``header.extra``.
        self.ovc = ovc

    @classmethod
    def open(
        cls,
        path: str,
        io: SpillIO | None = None,
        verify: bool = True,
        schema: Schema | None = None,
        spec: SortSpec | None = None,
    ) -> "SpilledRun":
        """Attach to an existing spill file, validating its header.

        Metadata frames in the header's extra blob are re-attached:
        the offset-value codes always, the key layout when ``schema``
        and ``spec`` are given (deserializing a layout needs both).
        """
        io = io or SpillIO()
        try:
            header = read_header(io, path)
        except OSError as error:
            raise SpillIOError(
                f"spill header read failed: {error}", path
            ) from error
        frames = unpack_extra(header.extra, header.version, path)
        layout = None
        blob = frames.get(EXTRA_TAG_LAYOUT)
        if blob and schema is not None and spec is not None:
            layout = deserialize_layout(blob, schema, spec)
        ovc = None
        blob = frames.get(EXTRA_TAG_OVC)
        if blob is not None:
            ovc = np.frombuffer(blob, dtype="<u2")
            if len(ovc) != header.num_rows:
                raise SpillCorruptionError(
                    f"offset-value code frame holds {len(ovc)} codes "
                    f"for {header.num_rows} rows",
                    path,
                )
        return cls(path, header, io, verify, layout=layout, ovc=ovc)

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

    def iter_key_blocks(
        self,
        block_rows: int,
        key_bytes: int | None = None,
        stats: SortStats | None = None,
    ) -> Iterator[np.ndarray]:
        """Yield (m, width) key blocks of at most ``block_rows`` rows.

        ``key_bytes`` truncates each row to its leading bytes (the merge
        drops the row-id suffix).  One seek+read per block.
        """
        for start in range(0, self.num_rows, block_rows):
            stop = min(start + block_rows, self.num_rows)
            block = self.read_key_block(start, stop, stats)
            if key_bytes is not None and key_bytes != self.key_width:
                block = block[:, :key_bytes]
            yield block


class InMemoryRun:
    """A sorted run kept resident: the no-spill-target degradation rung.

    Implements the same streaming read interface as :class:`SpilledRun`
    (``read_key_block`` / ``read_row_block`` / ``read_heap`` /
    ``iter_key_blocks``), so the k-way merge works unchanged over a mix
    of spilled and in-memory runs when some spills failed over to memory.
    """

    on_disk = False
    path = "<memory>"

    def __init__(
        self,
        keys: np.ndarray,
        rows: np.ndarray,
        heap: bytes,
        layout: KeyLayout | None = None,
        ovc: np.ndarray | None = None,
    ) -> None:
        self._keys = np.ascontiguousarray(keys)
        self._rows = np.ascontiguousarray(rows)
        self._heap = heap
        self.layout = layout
        self.ovc = ovc

    @property
    def num_rows(self) -> int:
        return len(self._keys)

    @property
    def key_width(self) -> int:
        return self._keys.shape[1]

    @property
    def row_width(self) -> int:
        return self._rows.shape[1]

    @property
    def heap_bytes(self) -> int:
        return len(self._heap)

    def read_key_block(
        self, start: int, stop: int, stats: SortStats | None = None
    ) -> np.ndarray:
        return self._keys[start:stop]

    def read_row_block(
        self, start: int, stop: int, stats: SortStats | None = None
    ) -> np.ndarray:
        return self._rows[start:stop]

    def read_heap(self, stats: SortStats | None = None) -> bytes:
        return self._heap

    def iter_key_blocks(
        self,
        block_rows: int,
        key_bytes: int | None = None,
        stats: SortStats | None = None,
    ) -> Iterator[np.ndarray]:
        for start in range(0, self.num_rows, block_rows):
            block = self._keys[start : min(start + block_rows, self.num_rows)]
            if key_bytes is not None and key_bytes != self.key_width:
                block = block[:, :key_bytes]
            yield block


class ExternalSortOperator:
    """Sort that spills sorted runs to disk and streams the merge.

    The public protocol matches :class:`~repro.sort.operator.SortOperator`
    -- ``sink`` chunks, then ``finalize`` -- plus a fault-tolerant
    lifecycle: the operator is a context manager, ``close()`` always
    removes its temp files (recording failures in
    ``SortStats.cleanup_errors``), and ``cancel()`` aborts the sort at
    the next merge checkpoint with guaranteed cleanup.
    ``spill_directory`` defaults to a fresh temporary directory;
    ``SortConfig.spill_directories`` names failover targets tried in
    order when writes to the primary keep failing, after which runs fall
    back to memory.  ``stats`` records run counts, kernel-vs-scalar
    k-way merges, the merge's peak frontier size, per-phase
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
        self.schema = schema
        self.spec = spec
        self.config = config or SortConfig()
        self._io = io or SpillIO()
        self._own_dir = spill_directory is None
        self._dir = spill_directory or tempfile.mkdtemp(prefix="repro-spill-")
        self.merge_block_rows = merge_block_rows
        self._buffer: list[DataChunk] = []
        self._buffered_rows = 0
        self._runs: list[SpilledRun | InMemoryRun] = []
        self._finalized = False
        self._closed = False
        self._cancelled = False
        self._merging = False
        self._spilling = False
        self._degraded = False
        self._has_string_key = any(
            schema.column(name).dtype.type_id is TypeId.VARCHAR
            for name in spec.column_names
        )
        self._next_row_id = 0
        self._parallel: ParallelSortExecutor | None = None
        # Replacement selection: decided once, on the first spill, by the
        # presortedness probe (or forced by config); the selection object
        # holds the working set of sorted segments between spills.
        self._rs_active: bool | None = None
        self._selection: ReplacementSelection | None = None
        self._run_seq = 0  # spill filename counter (never reused)
        # Collision-proof spill names: concurrent sorts sharing a spill
        # directory (a service pool, user-provided failover targets)
        # must never write the same filename, so every operator salts
        # its run files with a per-instance random token.
        self._spill_token = secrets.token_hex(4)
        # Key compression: per-run layouts come from one monotone stats
        # accumulator, so layouts only widen run-to-run and every earlier
        # run rebases losslessly onto the final (widest) layout during the
        # merge.  A user-forced string_prefix pins the layout, so it
        # disables compression (same rule as SortOperator).
        self._compress = (
            self.config.compress_keys and self.config.string_prefix is None
        )
        self._key_acc = (
            KeyStatsAccumulator(schema, spec) if self._compress else None
        )
        # Key-carried runs: when the key segments alone can reconstruct
        # every column exactly, spill the sorted keys and nothing else.
        self._key_carried = (
            self._compress
            and self.config.use_vector_kernels
            and key_carried_eligible(schema, spec)
        )
        self._final_layout: KeyLayout | None = None
        # Uncompressed runs all share one locked layout (the VARCHAR
        # prefix is pinned before the first spill); the merge needs it to
        # locate truncated segments for exact-string refinement.
        self._plain_layout: KeyLayout | None = None
        self.stats = SortStats()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "ExternalSortOperator":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

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
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None
        self._selection = None
        self._buffer.clear()
        self._buffered_rows = 0
        for run in self._runs:
            if run.on_disk:
                self._remove_file(run.path)
        if self._own_dir:
            try:
                os.rmdir(self._dir)
            except FileNotFoundError:
                pass
            except OSError as error:
                self._record_cleanup_error(self._dir, error)

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
        event = self.config.cancel_event
        if event is not None and event.is_set():
            self._cancelled = True
        if self._cancelled:
            raise SortCancelledError("external sort was cancelled")

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
    # Parallel run generation
    # ------------------------------------------------------------------ #

    def _parallel_argsort(self, keys) -> np.ndarray | None:
        """Morsel-parallel sort of one run's keys; ``None`` falls back.

        Parallel run generation feeds the unchanged (serial, streaming)
        k-way spill merge: each spilled run is byte-identical to its
        serial counterpart because stable sorts of the same key bytes
        produce the same permutation.
        """
        if self.config.num_workers <= 1 or not self.config.use_vector_kernels:
            return None
        if self._parallel is None:
            self._parallel = ParallelSortExecutor(
                self.config.num_workers,
                self.config.parallel_morsel_rows,
                cancel_check=self._check_cancelled,
            )
        return self._parallel.argsort(
            keys.matrix, keys.layout.key_width, self.stats
        )

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
        self._check_cancelled()
        if self._finalized:
            raise SortError("cannot sink into a finalized sort")
        if self._closed:
            raise SortError("cannot sink into a closed sort")
        if len(chunk) == 0:
            return
        self._buffer.append(chunk)
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
        if not self._buffer:
            return
        self._check_cancelled()
        table = self._buffer[0].to_table()
        for chunk in self._buffer[1:]:
            table = table.concat(chunk.to_table())
        self._buffer.clear()
        self._buffered_rows = 0
        keys = self._encode_run(table)
        if self._rs_active is None:
            self._rs_active = self._choose_rungen(keys)
        if self._rs_active:
            self._rs_feed(table, keys)
            return
        exact_strings = not keys.prefix_exact and self.config.exact_varchar
        with self.stats.time_phase("run_gen"):
            order = self._parallel_argsort(keys)
            if order is not None:
                pass
            elif self.config.use_vector_kernels:
                # Stable vectorized sort of the key bytes (MSD radix or
                # argsort/lexsort per the width/skew heuristic); the
                # ascending row-id suffix makes any stable kernel's
                # permutation identical to full-row memcmp order.
                order = vector_sort_rows(
                    keys.matrix[:, : keys.layout.key_width],
                    keys.layout.key_width,
                    self.stats,
                    self.stats.radix,
                )
            elif exact_strings:
                # Scalar reference: prefix bytes alone are not the order,
                # so compare per segment, consulting the full strings.
                order = _segmented_argsort(table, keys, self.spec)
            elif self._has_string_key and self.config.force_algorithm != "radix":
                raw = [
                    keys.matrix[i].tobytes() for i in range(len(table))
                ]
                order_list = list(range(len(table)))
                pdqsort(order_list, lambda i, j: raw[i] < raw[j])
                order = np.asarray(order_list, dtype=np.int64)
            else:
                # Stable radix over the key bytes only (see SortOperator).
                order = radix_argsort(
                    keys.matrix[:, : keys.layout.key_width],
                    vector_threshold=None,
                )
            if (
                exact_strings
                and self.config.use_vector_kernels
                and not refinement_must_defer(keys.layout)
            ):
                # With later key bytes after the truncated VARCHAR
                # segment, refining here would spill runs the k-way
                # kernel cannot merge (no longer byte-sorted); such
                # sorts spill raw and the merge's settled-batch
                # refinement produces the exact order instead.
                order = refine_table_order(
                    table, keys.matrix, keys.layout, order, self.stats
                )
            sorted_keys = np.ascontiguousarray(keys.matrix[order])
            ovc = (
                ovc_codes(sorted_keys[:, : keys.layout.key_width])
                if self.config.use_vector_kernels
                else None
            )
            if self._key_carried:
                # The keys alone reconstruct every column: spill nothing
                # else.  Payload rows and heap shrink to zero bytes.
                sorted_rows = np.empty((len(table), 0), dtype=np.uint8)
                heap = b""
                self.stats.key_carried_runs += 1
            else:
                block = RowBlock.from_table(table).take(np.asarray(order))
                sorted_rows = np.ascontiguousarray(block.rows)
                heap = block.heap

        self._store_run(sorted_keys, sorted_rows, heap, keys.layout, ovc)
        self.stats.runs_generated += 1
        self.stats.run_lengths.append(len(table))
        self.stats.rows_sorted += len(table)

    def _encode_run(self, table: Table):
        """Normalize one buffered batch's keys (shared by both rungens)."""
        with self.stats.time_phase("encode"):
            if self._compress:
                # The accumulator has seen every row so far, so this run's
                # layout is at least as wide as every earlier run's; the
                # merge rebases narrower runs onto the final layout.
                self._key_acc.update(table)
                layout = self._key_acc.build_layout(
                    include_row_id=True, row_id_width=ROW_ID_WIDTH
                )
                keys = normalize_keys(
                    table,
                    self.spec,
                    include_row_id=True,
                    row_id_base=self._next_row_id,
                    row_id_width=ROW_ID_WIDTH,
                    layout=layout,
                )
            else:
                # Lock VARCHAR prefixes to the cap so every spilled run
                # shares one key layout -- the streamed merge compares
                # keys across runs.
                string_prefix = self.config.string_prefix
                if string_prefix is None and self._has_string_key:
                    string_prefix = MAX_STRING_PREFIX
                keys = normalize_keys(
                    table,
                    self.spec,
                    string_prefix=string_prefix,
                    include_row_id=True,
                    row_id_base=self._next_row_id,
                    row_id_width=ROW_ID_WIDTH,
                )
        self._next_row_id += len(table)
        if not self._compress and self._plain_layout is None:
            self._plain_layout = keys.layout
        self.stats.key_width_used = keys.layout.key_width
        self.stats.key_width_full = plain_key_width(keys.layout)
        self.stats.prefix_exact = (
            self.stats.prefix_exact and keys.prefix_exact
        )
        return keys

    # ------------------------------------------------------------------ #
    # Replacement-selection run generation
    # ------------------------------------------------------------------ #

    def _choose_rungen(self, keys) -> bool:
        """Pick the run generator for this sort, once, on the first spill.

        Replacement selection needs the vectorized kernels (each fed
        batch is argsorted) and keys whose byte order *is* the sort
        order -- a truncated VARCHAR prefix would require exact-string
        refinement across segment boundaries, so sorts that might
        need it (string keys under ``exact_varchar``) stay on the
        argsort path.  Within those gates: ``config.replacement_selection``
        forces the choice, and ``None`` probes the first buffered
        batch's presortedness (:func:`repro.sort.rungen.presortedness`)
        -- replacement selection only pays off when ascending stretches
        let runs grow past the threshold.
        """
        config = self.config
        eligible = config.use_vector_kernels and not (
            self._has_string_key and config.exact_varchar
        )
        probe = -1.0
        if not eligible or config.replacement_selection is False:
            choice = False
        elif config.replacement_selection:
            choice = True
        else:
            probe = presortedness(
                keys.matrix[:, : keys.layout.key_width]
            )
            choice = probe >= PROBE_THRESHOLD
        self.stats.rungen_probe = probe
        self.stats.rungen_path = (
            "replacement_selection" if choice else "argsort"
        )
        return choice

    def _rs_feed(self, table: Table, keys) -> None:
        """Sort one batch into the selection working set, then drain."""
        if self._selection is None:
            self._selection = ReplacementSelection(rebase=rebase_matrix)
        with self.stats.time_phase("run_gen"):
            order = self._parallel_argsort(keys)
            if order is None:
                order = vector_sort_rows(
                    keys.matrix[:, : keys.layout.key_width],
                    keys.layout.key_width,
                    self.stats,
                    self.stats.radix,
                )
            order = np.asarray(order, dtype=np.int64)
            self._selection.feed(
                np.ascontiguousarray(keys.matrix[order]),
                order,
                table,
                keys.layout if self._compress else None,
            )
        self.stats.rows_sorted += len(table)
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
                self._rs_store(selection.close_run())
        if final and selection.run_rows:
            self._rs_store(selection.close_run())

    def _rs_store(self, run: SelectionRun) -> None:
        """Spill one closed selection run (keys ready, payload gathered)."""
        keys = np.ascontiguousarray(run.keys)
        if run.layout is not None:
            key_width = run.layout.key_width
        else:
            key_width = keys.shape[1] - ROW_ID_WIDTH
        ovc = ovc_codes(keys[:, :key_width])
        if self._key_carried:
            rows = np.empty((len(keys), 0), dtype=np.uint8)
            heap = b""
            self.stats.key_carried_runs += 1
        else:
            with self.stats.time_phase("run_gen"):
                block = RowBlock.from_table(self._rs_gather_payload(run))
                rows = np.ascontiguousarray(block.rows)
                heap = block.heap
        self._store_run(keys, rows, heap, run.layout, ovc)
        self.stats.runs_generated += 1
        self.stats.run_lengths.append(len(keys))

    def _rs_gather_payload(self, run: SelectionRun) -> Table:
        """The run's payload rows in emission order, one gather per table.

        Within each source table the emitted positions ascend (a sorted
        segment is consumed front to back), so one ``take`` per table
        plus one interleaving gather reconstructs emission order.
        """
        unique = np.unique(run.table_ids)
        if len(unique) == 1:
            return run.tables[int(unique[0])].take(run.positions)
        parts: list[Table] = []
        gather = np.empty(len(run.table_ids), dtype=np.int64)
        base = 0
        for table_id in unique:
            selected = np.flatnonzero(run.table_ids == table_id)
            parts.append(
                run.tables[int(table_id)].take(run.positions[selected])
            )
            gather[selected] = base + np.arange(
                len(selected), dtype=np.int64
            )
            base += len(selected)
        return _concat_tables(parts).take(gather)

    def _store_run(
        self,
        sorted_keys: np.ndarray,
        sorted_rows: np.ndarray,
        heap: bytes,
        layout: KeyLayout | None = None,
        ovc: np.ndarray | None = None,
    ) -> "SpilledRun | InMemoryRun":
        """Spill one sorted run, degrading to memory when disk is gone.

        The run is appended to ``self._runs`` (so cleanup always sees
        it) and returned -- the fan-in-limited merge stores intermediate
        runs through the same ladder.  Filenames come from a
        never-reused sequence counter, not the live run count, because
        multi-pass merging shrinks the list while old files still exist;
        the per-operator random token keeps names collision-proof across
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
                keys_bytes = sorted_keys.tobytes()
                rows_bytes = sorted_rows.tobytes()
                frames: dict[int, bytes] = {}
                if self._compress and layout is not None:
                    frames[EXTRA_TAG_LAYOUT] = serialize_layout(layout)
                if ovc is not None:
                    frames[EXTRA_TAG_OVC] = ovc.astype("<u2").tobytes()
                header = build_header(
                    len(sorted_keys),
                    sorted_keys.shape[1],
                    sorted_rows.shape[1],
                    (keys_bytes, rows_bytes, heap),
                    extra=pack_extra(frames),
                )
                path = self._write_run_file(
                    filename, [header.pack(), keys_bytes, rows_bytes, heap]
                )
        finally:
            self._spilling = False
        if self._cancelled or self._closed:
            if path is not None:
                self._remove_file(path)
            self.close()
            raise SortCancelledError("external sort was cancelled")
        if path is not None:
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
                self._io,
                verify=self.config.verify_spill_checksums,
                layout=layout if self._compress else None,
                ovc=ovc,
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
        run = InMemoryRun(
            sorted_keys,
            sorted_rows,
            heap,
            layout=layout if self._compress else None,
            ovc=ovc,
        )
        self._runs.append(run)
        return run

    # ------------------------------------------------------------------ #
    # Finalize
    # ------------------------------------------------------------------ #

    def finalize(self) -> Table:
        """Stream-merge the spilled runs into the sorted output table.

        Cleanup is guaranteed: whether the merge succeeds, raises, or is
        cancelled, ``close()`` runs and removes every temp file.
        """
        if self._finalized:
            raise SortError("sort already finalized")
        self._check_cancelled()
        if self._closed:
            raise SortError("cannot finalize a closed sort")
        self._finalized = True
        self._merging = True
        try:
            if self._buffer:
                self._spill_run()
            if self._selection is not None:
                # Replacement selection: the working set still holds up
                # to a threshold of rows; drain it into final run(s).
                self._rs_drain(final=True)
                self._selection = None
            if not self._runs:
                return Table.empty(self.schema)
            if self._compress:
                # The widest (= final) layout; earlier, narrower runs are
                # rebased onto it block-by-block as the merge streams them.
                self._final_layout = self._key_acc.build_layout(
                    include_row_id=True, row_id_width=ROW_ID_WIDTH
                )
                self.stats.key_width_used = self._final_layout.key_width
                self.stats.key_width_full = plain_key_width(
                    self._final_layout
                )
                for run in self._runs:
                    if run.layout != self._final_layout:
                        self.stats.key_layout_rebases += 1
            if self.config.verify_spill_checksums:
                self._verify_run_headers()
            # Time the merge phase net of the spill I/O on its critical
            # path: synchronous reads/writes ("spill_io") plus stalls
            # waiting on an unfinished prefetch ("io_wait").  Overlapped
            # background reads ("spill_io_overlap") deliberately do NOT
            # subtract -- they happened concurrently with merge compute.
            def critical_io() -> float:
                return self.stats.phase_seconds.get(
                    "spill_io", 0.0
                ) + self.stats.phase_seconds.get("io_wait", 0.0)

            io_before = critical_io()
            start = time.perf_counter()
            result = self._merge_streams()
            elapsed = time.perf_counter() - start
            self.stats.add_phase_seconds(
                "merge", elapsed - (critical_io() - io_before)
            )
            return result
        finally:
            self._merging = False
            self.close()

    def _verify_run_headers(self) -> None:
        """Re-validate every on-disk run header before trusting it."""
        for run in self._runs:
            if run.on_disk:
                run.verify_header(self.stats)

    def _merge_streams(self) -> Table:
        """K-way merge of spilled runs, ``merge_block_rows`` rows at a time.

        With vector kernels on, the merge runs through the block-streaming
        frontier kernel (:func:`repro.sort.kernels.kway_merge_blocks`):
        each round refills at most one key block per run, finds the global
        cutoff from the frontier tails, and emits everything below it with
        one lexsort pass -- never holding more than ``k * merge_block_rows``
        key rows.  Payload rows are gathered per emitted round with one
        contiguous read per contributing run.  The scalar path keeps the
        per-row tournament heap over the same streamed blocks.  Both paths
        poll the cancellation flag at block/round granularity.
        """
        layout = RowLayout.for_schema(self.schema)
        has_strings = any(slot.is_string for slot in layout.slots)
        if self.config.use_vector_kernels:
            self._collapse_runs(layout, has_strings)
            self.stats.merge_passes += 1
            return self._merge_streams_kernel(layout, has_strings)
        self.stats.merge_passes += 1
        return self._merge_streams_scalar(layout, has_strings)

    def _refine_end(self) -> int | None:
        """First inexact key byte, or ``None`` when byte order is exact."""
        key_layout = self._final_layout or self._plain_layout
        if key_layout is None or not self.config.exact_varchar:
            return None
        return inexact_prefix_end(key_layout)

    def _collapse_runs(self, layout: RowLayout, has_strings: bool) -> None:
        """Fan-in-limited pre-passes: merge run groups until k <= fan-in.

        With ``SortConfig.merge_fan_in`` unset the single-pass kernel
        merges any k directly and this is a no-op.  A bounded fan-in
        models a real memory budget (k frontier blocks must fit): each
        pass merges groups of ``fan_in`` runs into new spilled runs --
        re-reading and re-writing their bytes -- which is exactly the
        extra I/O that fewer, longer replacement-selection runs avoid.
        Intermediate runs keep full-width keys (row-id suffix included,
        rebased onto the final layout), so later passes treat them like
        any other run.  Exact-string refinement permutes rows *within*
        prefix-tied groups, which would break the intermediate runs'
        key-byte sortedness, so such sorts stay single-pass.
        """
        fan_in = self.config.merge_fan_in
        if fan_in < 2 or len(self._runs) <= fan_in:
            return
        if self._refine_end() is not None:
            return
        while len(self._runs) > fan_in:
            self._check_cancelled()
            # Snapshot: _store_run appends each merged run to self._runs
            # (for cleanup visibility), and iterating the live list would
            # let a group slice swallow a run created earlier this pass.
            current = list(self._runs)
            survivors: list[SpilledRun | InMemoryRun] = []
            for start in range(0, len(current), fan_in):
                group = current[start : start + fan_in]
                if len(group) == 1:
                    survivors.append(group[0])
                    continue
                # _merge_group stores through _store_run, which appends
                # to self._runs -- so a failure mid-pass still leaves
                # every live file visible to close()'s cleanup.
                survivors.append(self._merge_group(group, layout, has_strings))
                for run in group:
                    if run.on_disk:
                        self._remove_file(run.path)
            self._runs = survivors
            self.stats.merge_passes += 1

    def _merge_group(
        self,
        group: "list[SpilledRun | InMemoryRun]",
        layout: RowLayout,
        has_strings: bool,
    ) -> "SpilledRun | InMemoryRun":
        """Merge one group of runs into a single new (spilled) run.

        The same frontier kernel and gather helpers as the final merge,
        but the output goes back through ``_store_run`` instead of into
        the result table: full-width keys gathered per round (so the new
        run is self-contained), payload rows gathered and their string
        slots rebased onto a fresh per-run heap, offset-value codes
        recomputed for the merged order.
        """
        stats = self.stats
        if self._final_layout is not None:
            merge_width = self._final_layout.key_width
        else:
            merge_width = group[0].key_width - ROW_ID_WIDTH
        # Heap reads precede prefetcher creation so a read error cannot
        # leak the pool (the try/finally only guards the merge loop).
        raw_heaps = (
            [run.read_heap(stats) for run in group] if has_strings else None
        )
        heaps = (
            [np.frombuffer(heap, dtype=np.uint8) for heap in raw_heaps]
            if has_strings
            else None
        )
        prefetcher = self._make_prefetcher(group, merge_width)
        if prefetcher is not None:
            sources = [prefetcher.key_source(i) for i in range(len(group))]
        else:
            sources = [
                self._key_block_source(run, merge_width) for run in group
            ]
        kernel_stats = KWayBlockStats()
        key_parts: list[np.ndarray] = []
        row_parts: list[np.ndarray] = []
        heap_parts: list[bytes] = []
        heap_cursor = 0
        try:
            for run_ids, row_ids in kway_merge_stream(
                sources,
                kernel_stats,
                on_round=self._check_cancelled,
                use_ovc=self.config.use_ovc,
                prefetcher=prefetcher,
            ):
                key_parts.append(
                    self._gather_key_blocks(
                        group,
                        run_ids,
                        row_ids,
                        prefetch=prefetcher if self._key_carried else None,
                    )
                )
                if self._key_carried:
                    continue
                out_rows = self._gather_blocks(
                    group, run_ids, row_ids, prefetch=prefetcher
                )
                if has_strings:
                    heap_cursor = self._rebase_string_block(
                        layout,
                        out_rows,
                        run_ids,
                        heaps,
                        heap_parts,
                        heap_cursor,
                    )
                row_parts.append(out_rows)
        finally:
            if prefetcher is not None:
                prefetcher.close()
        stats.kernel_kway_merges += 1
        stats.kway_rounds += kernel_stats.rounds
        stats.ovc_compares += kernel_stats.ovc_compares
        stats.ovc_ties += kernel_stats.ovc_ties
        stats.kway_peak_frontier_rows = max(
            stats.kway_peak_frontier_rows, kernel_stats.peak_frontier_rows
        )
        keys = (
            key_parts[0]
            if len(key_parts) == 1
            else np.concatenate(key_parts)
        )
        keys = np.ascontiguousarray(keys)
        if self._key_carried or not row_parts:
            rows = np.empty((len(keys), 0), dtype=np.uint8)
        else:
            rows = np.ascontiguousarray(np.concatenate(row_parts))
        ovc = ovc_codes(keys[:, :merge_width])
        return self._store_run(
            keys, rows, b"".join(heap_parts), self._final_layout, ovc
        )

    # ------------------------------------------------------------------ #
    # Kernel (block-streaming) merge path
    # ------------------------------------------------------------------ #

    def _merge_streams_kernel(
        self, layout: RowLayout, has_strings: bool
    ) -> Table:
        stats = self.stats
        # Merge on the key bytes only: every spilled run carries an
        # 8-byte row-id suffix that ascends with run order, so the
        # kernel's stable earlier-run-first tie handling reproduces
        # full-key memcmp order without comparing the suffix.  Under key
        # compression the merge width is the final layout's; narrower
        # runs rebase per block inside the source iterators.
        if self._final_layout is not None:
            merge_width = self._final_layout.key_width
        else:
            merge_width = self._runs[0].key_width - ROW_ID_WIDTH
        key_layout = self._final_layout or self._plain_layout
        refine_end = self._refine_end()
        runs = self._runs
        # Heaps stay resident while rows stream: string offsets are
        # run-relative, so the bytes must remain addressable until the
        # row that references them is emitted.  Read them before the
        # prefetcher exists: a read error here must not leak its pool
        # (the try/finally below only guards the merge itself).
        raw_heaps = (
            [run.read_heap(stats) for run in self._runs]
            if has_strings
            else None
        )
        heaps = (
            [np.frombuffer(heap, dtype=np.uint8) for heap in raw_heaps]
            if has_strings
            else None
        )
        prefetcher = self._make_prefetcher(runs, merge_width)
        if prefetcher is not None:
            sources = [prefetcher.key_source(i) for i in range(len(runs))]
        else:
            sources = [
                self._key_block_source(run, merge_width) for run in runs
            ]

        kernel_stats = KWayBlockStats()
        row_parts: list[np.ndarray] = []
        key_parts: list[np.ndarray] = []
        heap_parts: list[bytes] = []
        heap_cursor = 0

        def emit(run_ids: np.ndarray, row_ids: np.ndarray) -> None:
            nonlocal heap_cursor
            if self._key_carried:
                # No payload was spilled; re-read the emitted key rows
                # (rebased onto the final layout) and decode them back
                # into columns after the merge.
                key_parts.append(
                    self._gather_key_blocks(
                        runs,
                        run_ids,
                        row_ids,
                        prefetch=prefetcher,
                    )
                )
                return
            out_rows = self._gather_blocks(
                runs, run_ids, row_ids, prefetch=prefetcher
            )
            if has_strings:
                heap_cursor = self._rebase_string_block(
                    layout, out_rows, run_ids, heaps, heap_parts, heap_cursor
                )
            row_parts.append(out_rows)

        rounds = kway_merge_stream(
            sources,
            kernel_stats,
            on_round=self._check_cancelled,
            use_ovc=self.config.use_ovc,
            emit_keys=refine_end is not None,
            prefetcher=prefetcher,
        )
        try:
            if refine_end is None:
                for run_ids, row_ids in rounds:
                    emit(run_ids, row_ids)
            else:
                # Exact strings: rows tied on the key bytes up to the
                # first truncated VARCHAR segment may still reorder once
                # the full strings are consulted, and such a tie group
                # can straddle a round boundary.  Hold back each round's
                # trailing tie group (the carry), refine every settled
                # batch with the same re-encode loop run generation
                # used, then emit it.
                carry: tuple[np.ndarray, np.ndarray, np.ndarray] | None = (
                    None
                )
                for run_ids, row_ids, words in rounds:
                    key_bytes = _words_to_bytes(words, merge_width)
                    if carry is not None:
                        run_ids = np.concatenate([carry[0], run_ids])
                        row_ids = np.concatenate([carry[1], row_ids])
                        key_bytes = np.concatenate([carry[2], key_bytes])
                    tail = _trailing_tie_start(key_bytes[:, :refine_end])
                    carry = (
                        run_ids[tail:],
                        row_ids[tail:],
                        key_bytes[tail:],
                    )
                    if tail:
                        emit(
                            *self._refine_settled(
                                run_ids[:tail],
                                row_ids[:tail],
                                key_bytes[:tail],
                                key_layout,
                                layout,
                                raw_heaps,
                            )
                        )
                if carry is not None and len(carry[0]):
                    emit(
                        *self._refine_settled(
                            carry[0],
                            carry[1],
                            carry[2],
                            key_layout,
                            layout,
                            raw_heaps,
                        )
                    )
        finally:
            # kway_merge_stream also closes the prefetcher when the
            # stream ends; this covers errors raised from emit/gather
            # before the stream is exhausted.  close() is idempotent.
            if prefetcher is not None:
                prefetcher.close()

        stats.kernel_kway_merges += 1
        stats.kway_rounds += kernel_stats.rounds
        stats.ovc_compares += kernel_stats.ovc_compares
        stats.ovc_ties += kernel_stats.ovc_ties
        stats.kway_peak_frontier_rows = max(
            stats.kway_peak_frontier_rows, kernel_stats.peak_frontier_rows
        )
        if self._key_carried:
            if not key_parts:
                return Table.empty(self.schema)
            matrix = (
                key_parts[0]
                if len(key_parts) == 1
                else np.concatenate(key_parts)
            )
            return decode_key_table(matrix, self._final_layout, self.schema)
        if not row_parts:
            return Table.empty(self.schema)
        merged = RowBlock(
            layout, np.concatenate(row_parts), b"".join(heap_parts)
        )
        return merged.to_table()

    def _refine_settled(
        self,
        run_ids: np.ndarray,
        row_ids: np.ndarray,
        key_bytes: np.ndarray,
        key_layout: KeyLayout,
        row_layout: RowLayout,
        raw_heaps: list[bytes] | None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact-string repair of one settled merge batch.

        ``key_bytes`` are the batch's merged key rows (word-padded);
        tied rows' full strings are decoded on demand from the spilled
        payload -- one contiguous row read per contributing run, reused
        across the batch's key columns.
        """
        tables: dict[int, tuple[int, Table]] = {}

        def fetch_tied(tied):
            tied_runs = run_ids[tied]
            tied_rows = row_ids[tied]
            cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}

            def get(name):
                if name in cache:
                    return cache[name]
                values = np.empty(len(tied), dtype=object)
                valid = np.zeros(len(tied), dtype=bool)
                for index in np.unique(tied_runs):
                    selected = np.flatnonzero(tied_runs == index)
                    positions = tied_rows[selected]
                    cached = tables.get(index)
                    lo = int(positions.min())
                    hi = int(positions.max()) + 1
                    if cached is None or not (
                        cached[0] <= lo and hi <= cached[0] + len(cached[1])
                    ):
                        rows = np.ascontiguousarray(
                            self._runs[index].read_row_block(
                                lo, hi, self.stats
                            )
                        )
                        heap = raw_heaps[index] if raw_heaps else b""
                        cached = (
                            lo,
                            RowBlock(row_layout, rows, heap).to_table(),
                        )
                        tables[index] = cached
                    base, decoded = cached
                    column = decoded.column(name)
                    local = positions - base
                    values[selected] = column.data[local]
                    valid[selected] = column.validity[local]
                cache[name] = (values, valid)
                return cache[name]

            return get

        perm = refine_key_order(
            key_bytes[:, : key_layout.key_width],
            key_layout,
            fetch_tied,
            self.stats,
        )
        if perm is None:
            return run_ids, row_ids
        return run_ids[perm], row_ids[perm]

    def _make_prefetcher(
        self,
        runs: "list[SpilledRun | InMemoryRun]",
        merge_width: int,
    ) -> BlockPrefetcher | None:
        """Build the read-ahead layer for one merge over ``runs``.

        ``None`` (prefetching disabled, no on-disk runs) keeps the merge
        on the synchronous source iterators.  The row stream carries the
        dominant per-round I/O: the payload rows, or -- for key-carried
        runs, which spill no payload -- the full-width key rows the
        emit path re-reads for decoding.
        """
        depth = self.config.prefetch_blocks
        if depth <= 0:
            return None
        active = [run.on_disk for run in runs]
        if not any(active):
            return None
        # The budget derives from the *live* (grant-shrunk) threshold,
        # so a governor revoking memory also shrinks the read-ahead
        # window the moment the next merge starts.
        budget = prefetch_budget_blocks(
            depth,
            sum(active),
            self.merge_block_rows,
            effective_run_threshold(self.config),
        )

        def key_fetch(index, start, stop, stats):
            return self._fetch_key_block(
                runs[index], start, stop, merge_width, stats
            )

        if self._key_carried:
            def row_fetch(index, start, stop, stats):
                return self._fetch_full_keys(runs[index], start, stop, stats)
        else:
            def row_fetch(index, start, stop, stats):
                return runs[index].read_row_block(start, stop, stats)

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

    def _fetch_key_block(
        self,
        run: "SpilledRun | InMemoryRun",
        start: int,
        stop: int,
        merge_width: int,
        stats: SortStats,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """One merge-ready key block: read, rebase, truncate, slice codes.

        The body of :meth:`_key_block_source` for one explicit range;
        the prefetch layer calls it from worker threads (``stats`` is
        then a thread-private accumulator, merged at delivery).
        """
        final = self._final_layout
        block = run.read_key_block(start, stop, stats)
        if final is not None and run.layout is not None:
            block = rebase_matrix(block, run.layout, final)
        if block.shape[1] != merge_width:
            block = block[:, :merge_width]
        codes = run.ovc
        if codes is not None and final is not None and run.layout != final:
            codes = None
        return block, (None if codes is None else codes[start:stop])

    def _fetch_full_keys(
        self,
        run: "SpilledRun | InMemoryRun",
        start: int,
        stop: int,
        stats: SortStats,
    ) -> np.ndarray:
        """Full-width key rows rebased onto the final layout."""
        final = self._final_layout
        block = run.read_key_block(start, stop, stats)
        if final is not None and run.layout is not None:
            block = rebase_matrix(block, run.layout, final)
        return block

    def _gather_blocks(
        self,
        runs: "list[SpilledRun | InMemoryRun]",
        run_ids: np.ndarray,
        row_ids: np.ndarray,
        prefetch: BlockPrefetcher | None = None,
    ) -> np.ndarray:
        """Materialize one emitted round's payload rows in merge order.

        Each contributing run's rows form one contiguous range (a prefix
        of its frontier -- exact-string refinement may permute rows
        within the range but never leaves it), so the round needs
        exactly one contiguous spill read per run -- served from the
        read-ahead window when a prefetcher is active; interleaving back
        into merge order is a single vectorized gather.
        """
        parts: list[np.ndarray] = []
        bases = np.zeros(len(runs), dtype=np.int64)
        cursor = 0
        for index in np.unique(run_ids):
            positions = row_ids[run_ids == index]
            lo, hi = int(positions.min()), int(positions.max()) + 1
            if prefetch is not None:
                parts.append(prefetch.read_rows(int(index), lo, hi))
            else:
                parts.append(runs[index].read_row_block(lo, hi, self.stats))
            bases[index] = cursor - lo
            cursor += hi - lo
        stacked = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.ascontiguousarray(stacked[bases[run_ids] + row_ids])

    def _key_block_source(
        self, run: "SpilledRun | InMemoryRun", merge_width: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Stream a run's ``(key block, offset-value codes)`` pairs.

        Each block is read with one seek, rebased onto the final key
        layout when the run was written under a narrower one, and
        truncated to ``merge_width`` (the merge drops the row-id suffix).
        Stored codes ride along only when the run's layout already is the
        merge layout -- rebasing moves word boundaries, which would make
        them stale.
        """
        final = self._final_layout
        codes = run.ovc
        if codes is not None and final is not None and run.layout != final:
            codes = None
        for start in range(0, run.num_rows, self.merge_block_rows):
            stop = min(start + self.merge_block_rows, run.num_rows)
            block = run.read_key_block(start, stop, self.stats)
            if final is not None and run.layout is not None:
                block = rebase_matrix(block, run.layout, final)
            if block.shape[1] != merge_width:
                block = block[:, :merge_width]
            yield block, (None if codes is None else codes[start:stop])

    def _gather_key_blocks(
        self,
        runs: "list[SpilledRun | InMemoryRun]",
        run_ids: np.ndarray,
        row_ids: np.ndarray,
        prefetch: BlockPrefetcher | None = None,
    ) -> np.ndarray:
        """One emitted round's full key rows in merge order.

        Mirror of :meth:`_gather_blocks` over the keys section: one
        contiguous read per contributing run, rebased onto the final
        layout (the prefetcher's row stream delivers blocks already
        rebased), then a single vectorized gather back into merge order.
        Used by the key-carried emit path and by the fan-in merge's
        intermediate runs.
        """
        parts: list[np.ndarray] = []
        bases = np.zeros(len(runs), dtype=np.int64)
        cursor = 0
        for index in np.unique(run_ids):
            positions = row_ids[run_ids == index]
            lo, hi = int(positions.min()), int(positions.max()) + 1
            if prefetch is not None:
                parts.append(prefetch.read_rows(int(index), lo, hi))
            else:
                parts.append(
                    self._fetch_full_keys(runs[index], lo, hi, self.stats)
                )
            bases[index] = cursor - lo
            cursor += hi - lo
        stacked = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return np.ascontiguousarray(stacked[bases[run_ids] + row_ids])

    def _rebase_string_block(
        self,
        layout: RowLayout,
        out_rows: np.ndarray,
        run_ids: np.ndarray,
        heaps: list[np.ndarray],
        heap_parts: list[bytes],
        heap_cursor: int,
    ) -> int:
        """Rewrite one output block's string slots onto the merged heap.

        Vectorized per (string slot, source run): the referenced bytes are
        gathered out of the run heap with one fancy-indexing pass
        (:func:`repro.rows.block.gather_slices`) and the slot offsets are
        rewritten to the merged heap's running cursor.  Returns the new
        cursor.
        """
        for col_index, slot in enumerate(layout.slots):
            if not slot.is_string:
                continue
            byte_off, bit = layout.validity_position(col_index)
            valid = ((out_rows[:, byte_off] >> np.uint8(bit)) & 1).astype(
                bool
            )
            view = out_rows[:, slot.offset : slot.offset + 8]
            offsets = np.ascontiguousarray(view[:, :4]).view(np.uint32)
            offsets = offsets.reshape(-1).copy()
            lengths = (
                np.ascontiguousarray(view[:, 4:]).view(np.uint32).reshape(-1)
            )
            for index in np.unique(run_ids):
                selected = np.flatnonzero(valid & (run_ids == index))
                if not len(selected):
                    continue
                sel_lengths = lengths[selected].astype(np.int64)
                gathered = gather_slices(
                    heaps[index],
                    offsets[selected].astype(np.int64),
                    sel_lengths,
                )
                ends = np.cumsum(sel_lengths)
                offsets[selected] = (
                    heap_cursor + ends - sel_lengths
                ).astype(np.uint32)
                heap_parts.append(gathered.tobytes())
                heap_cursor += int(ends[-1]) if len(ends) else 0
            out_rows[:, slot.offset : slot.offset + 4] = offsets.view(
                np.uint8
            ).reshape(-1, 4)
        return heap_cursor

    # ------------------------------------------------------------------ #
    # Scalar (tournament heap) merge path
    # ------------------------------------------------------------------ #

    def _merge_streams_scalar(
        self, layout: RowLayout, has_strings: bool
    ) -> Table:
        self.stats.scalar_kway_merges += 1
        heaps = (
            [run.read_heap(self.stats) for run in self._runs]
            if has_strings
            else [b""] * len(self._runs)
        )

        out_blocks: list[RowBlock] = []
        pending_rows: list[np.ndarray] = []
        pending_heap_parts: list[bytes] = []
        pending_heap_bytes = 0
        row_cache: dict[int, tuple[int, np.ndarray]] = {}

        def fetch_row(run_index: int, position: int) -> np.ndarray:
            """Payload row by position, reading block-sized slices."""
            cached = row_cache.get(run_index)
            if cached is None or not (
                cached[0] <= position < cached[0] + len(cached[1])
            ):
                start = (
                    position // self.merge_block_rows
                ) * self.merge_block_rows
                stop = min(
                    start + self.merge_block_rows,
                    self._runs[run_index].num_rows,
                )
                cached = (
                    start,
                    self._runs[run_index].read_row_block(
                        start, stop, self.stats
                    ),
                )
                row_cache[run_index] = cached
            return cached[1][position - cached[0]]

        def flush_pending() -> None:
            nonlocal pending_heap_bytes
            if not pending_rows:
                return
            rows = np.stack(pending_rows)
            block = RowBlock(layout, rows, b"".join(pending_heap_parts))
            out_blocks.append(block)
            pending_rows.clear()
            pending_heap_parts.clear()
            pending_heap_bytes = 0

        result: Table | None = None
        for run_index, position in self._heap_order():
            self._check_cancelled()
            if has_strings:
                row = fetch_row(run_index, position).copy()
                row, heap_part = _rebase_strings(
                    layout, row, heaps[run_index], pending_heap_bytes
                )
                pending_heap_parts.append(heap_part)
                pending_heap_bytes += len(heap_part)
            else:
                row = fetch_row(run_index, position)
            pending_rows.append(row)
            if len(pending_rows) >= self.merge_block_rows:
                flush_pending()
        flush_pending()
        for block in out_blocks:
            table = block.to_table()
            result = table if result is None else result.concat(table)
        return result if result is not None else Table.empty(self.schema)

    def _heap_order(self) -> Iterator[tuple[int, int]]:
        """Scalar merge order: a tournament heap over per-row key bytes.

        Keys stream block-by-block from the spill files (same bounded
        reads as the kernel path); each popped row costs one Python heap
        operation and one ``tobytes`` -- the per-tuple overhead the kernel
        path eliminates.  When the key layout truncates a VARCHAR
        prefix (and ``SortConfig.exact_varchar`` holds), the heap keys
        are augmented per row: each truncated segment's bytes are
        replaced by the full terminated string encoding
        (:func:`_augmented_key`), so the scalar merge is exact too.
        """
        final = self._final_layout
        key_layout = final or self._plain_layout
        augment = (
            key_layout is not None
            and self.config.exact_varchar
            and inexact_prefix_end(key_layout) is not None
        )
        row_layout = RowLayout.for_schema(self.schema) if augment else None

        def raw_rows(run: SpilledRun | InMemoryRun) -> Iterator[bytes]:
            # Full-width rows (row-id suffix included, globally ascending)
            # so heap ties never happen; compressed runs rebase onto the
            # final layout first so bytes compare across runs.
            heap = run.read_heap(self.stats) if augment else b""
            for start in range(0, run.num_rows, self.merge_block_rows):
                stop = min(start + self.merge_block_rows, run.num_rows)
                block = run.read_key_block(start, stop, self.stats)
                if final is not None and run.layout is not None:
                    block = rebase_matrix(block, run.layout, final)
                if not augment:
                    for i in range(len(block)):
                        yield block[i].tobytes()
                    continue
                rows = np.ascontiguousarray(
                    run.read_row_block(start, stop, self.stats)
                )
                decoded = RowBlock(row_layout, rows, heap).to_table()
                for i in range(len(block)):
                    yield _augmented_key(block[i], key_layout, decoded, i)

        streams = [raw_rows(run) for run in self._runs]
        heap: list[tuple[bytes, int, int]] = []
        for run_index, stream in enumerate(streams):
            first = next(stream, None)
            if first is not None:
                heap.append((first, run_index, 0))
        heapq.heapify(heap)
        while heap:
            _, run_index, position = heapq.heappop(heap)
            yield run_index, position
            following = next(streams[run_index], None)
            if following is not None:
                heapq.heappush(
                    heap, (following, run_index, position + 1)
                )


def external_sort_table(
    table: Table,
    spec: SortSpec | str,
    config: SortConfig | None = None,
    spill_directory: str | None = None,
) -> Table:
    """One-shot external sort of a table (spills runs to disk)."""
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    config = config or SortConfig()
    with ExternalSortOperator(
        table.schema, spec, config, spill_directory
    ) as operator:
        for chunk in chunk_table(table, config.vector_size):
            operator.sink(chunk)
        return operator.finalize()


def _concat_tables(parts: "list[Table]") -> Table:
    """Pairwise tree concatenation: O(n log k) rows copied, not O(n k)."""
    while len(parts) > 1:
        merged = [
            parts[i].concat(parts[i + 1])
            if i + 1 < len(parts)
            else parts[i]
            for i in range(0, len(parts), 2)
        ]
        parts = merged
    return parts[0]


def _words_to_bytes(words: np.ndarray, width: int) -> np.ndarray:
    """Merged uint64 key words back to their big-endian key byte rows."""
    count, word_count = words.shape
    return (
        words.astype(">u8")
        .view(np.uint8)
        .reshape(count, word_count * 8)[:, :width]
    )


def _trailing_tie_start(prefix: np.ndarray) -> int:
    """First row of the trailing maximal group of equal prefix rows.

    Returns 0 when every row of ``prefix`` belongs to one tied group
    (the whole batch must be carried into the next merge round).
    """
    if len(prefix) < 2:
        return 0
    distinct = np.flatnonzero(np.any(prefix[1:] != prefix[:-1], axis=1))
    return int(distinct[-1]) + 1 if len(distinct) else 0


def _augmented_key(
    key_row: np.ndarray, key_layout: KeyLayout, decoded: Table, i: int
) -> bytes:
    """Variable-length comparable key bytes with full strings inlined.

    Byte-wise identical semantics to the normalized key, except every
    truncated VARCHAR segment's value bytes are replaced by the full
    UTF-8 encoding plus a terminator: ``0x00`` ascending, ``0xFF`` after
    byte-wise inversion descending.  Neither terminator can occur inside
    the encoded value (UTF-8 of NUL-free text has no zero byte; inverted
    bytes are at most 0xFE), so a comparison either decides inside the
    string region or falls through to the next segment with alignment
    intact.  NULL rows keep only the segment's null-marker byte, which
    already separates them from every valid row.
    """
    parts: list[bytes] = []
    cursor = 0
    for segment in key_layout.segments:
        if segment.prefix_exact:
            continue
        start = segment.offset + segment.total_width - segment.value_width
        parts.append(key_row[cursor:start].tobytes())
        cursor = segment.offset + segment.total_width
        column = decoded.column(segment.key.column)
        if column.validity[i]:
            encoded = str(column.data[i]).encode("utf-8")
            if segment.key.descending:
                parts.append(bytes(255 - b for b in encoded) + b"\xff")
            else:
                parts.append(encoded + b"\x00")
    parts.append(key_row[cursor:].tobytes())
    return b"".join(parts)


def _rebase_strings(
    layout: RowLayout, row: np.ndarray, source_heap: bytes, heap_base: int
) -> tuple[np.ndarray, bytes]:
    """Copy a row's strings out of its run heap into the output heap.

    Scalar-path helper; returns the adjusted row and the bytes to append
    to the output heap.
    """
    parts: list[bytes] = []
    cursor = heap_base
    for col_index, slot in enumerate(layout.slots):
        if not slot.is_string:
            continue
        byte_off, bit = layout.validity_position(col_index)
        if not (int(row[byte_off]) >> bit) & 1:
            continue
        view = row[slot.offset : slot.offset + 8]
        offset = int(np.ascontiguousarray(view[:4]).view(np.uint32)[0])
        length = int(np.ascontiguousarray(view[4:]).view(np.uint32)[0])
        parts.append(source_heap[offset : offset + length])
        new_offset = np.array([cursor], dtype=np.uint32)
        row[slot.offset : slot.offset + 4] = new_offset.view(np.uint8)
        cursor += length
    return row, b"".join(parts)
