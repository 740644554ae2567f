"""External (out-of-core) sorting: graceful degradation beyond memory.

The paper's future-work section calls for blocking operators whose
"performance gracefully degrades as the data size exceeds the memory
limit", using the unified row format "to offload the data to secondary
storage".  This module implements that design for the sort operator:

* :class:`ExternalSortOperator` *extends* the resident
  :class:`repro.sort.operator.SortOperator` (same construction,
  validation, buffer, :class:`repro.sort.rungen.RunGenerator` and
  cancellation checkpoint): its ``sink`` also cuts a run where the
  buffer reaches the live run threshold, and **spills** it;
* input that never reaches the threshold is finished by the inherited
  ``finalize``: one resident run, no file written, no directory made;
* otherwise the rows still buffered at ``finalize`` become one more
  *resident* run beside the spilled ones, and all runs stream
  block-by-block through the shared :class:`repro.sort.merger.RunMerger`
  (:func:`repro.sort.kernels.kway_merge_blocks`), so the merge working
  set is O(num_runs * block_rows) key word rows instead of O(n).

What this module adds to the inherited stages is the spilling *run
store*: the spill-file reader (:class:`SpilledRun`, an extent of one file
per directory: the run's key words, then its payload or nothing when the
keys carry every column, :mod:`repro.sort.spillfile`), the temp-directory
lifecycle, CRC32 verification of every merge block and payload read,
the read-ahead hook (:mod:`repro.sort.prefetch`), fan-in-limited merge
pre-passes, and the write ladder every spill goes through
(:class:`repro.sort.faults.SpillIO`, also the fault-injection point):
**retry** twice per directory after 10 then 20 ms, **failover** to the
next ``SortConfig.spill_directories`` entry, and **memory fallback**, the
run kept resident and the threshold halved, when no target is writable.
The operator is a context manager; ``close()`` (idempotent, also run by
``finalize`` and by a cancelled spill) releases every run and closes its
files, recording a removal failure in ``SortStats.cleanup_errors``.  The
spill format, the ladder and the merge are set out in
``docs/sort-pipeline.md`` ("External sort").
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
    SortCancelledError,
    SortError,
    SpillCorruptionError,
    SpillIOError,
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
from repro.sort.rungen import InMemoryRun
from repro.sort.spillfile import (
    SECTION_NAMES,
    SpillExtent,
    build_extent,
    pack_payload,
    unpack_payload,
)
from repro.table.chunk import VECTOR_SIZE, DataChunk
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "SpilledRun",
    "InMemoryRun",
    "ExternalSortOperator",
]

_WRITE_RETRIES = 2
"""Write retries per spill directory before it is failed over."""

_BACKOFF_S = 0.01
"""The first sleep between write retries; it doubles per retry (10 ms,
then 20 ms)."""

_KEYS, _PAYLOAD = range(2)


class SpilledRun:
    """A sorted run on disk: its path, extent, layout and block readers.

    ``path`` names the run to its :class:`SpillIO`: an extent of its
    sort's spill file, laid out as :mod:`repro.sort.spillfile` says --
    two contiguous sections (sorted key words, payload), no per-row
    serialization -- so any key row range reads back as a single
    ``pread``, and the payload as one more.  The run's geometry, block
    CRC table (``extent``) and key ``layout`` live here, not on disk.
    With ``verify`` on (the default), every read checks the CRC32 of
    each block it covers (a merge read is one block, the payload is one)
    and raises :class:`SpillCorruptionError` on mismatch; a short read
    raises it whether or not ``verify`` is on, and OS-level read
    failures surface as :class:`SpillIOError`.  Both carry the
    offending ``path``, which names the file.
    """

    on_disk = True

    def __init__(
        self,
        path: str,
        extent: SpillExtent,
        layout: KeyLayout,
        io: SpillIO,
        verify: bool = True,
    ) -> None:
        self.path = path
        self.extent = extent
        #: the key layout the run was encoded under
        self.layout = layout
        self.io = io
        self.verify = verify

    @property
    def num_rows(self) -> int:
        return self.extent.num_rows

    @property
    def key_words(self) -> int:
        return self.extent.key_words

    @property
    def payload_bytes(self) -> int:
        return self.extent.payload_bytes

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

        Verification is block-granular: the read is widened to the blocks
        it covers (a merge read is one block already), each is checked
        against the extent's table, and the requested slice is returned.
        """
        extent = self.extent
        length = extent.section_length(section)
        name = SECTION_NAMES[section]
        if start < 0 or nbytes < 0 or start + nbytes > length:
            raise SpillCorruptionError(
                f"read of [{start}, {start + nbytes}) outside the "
                f"{name} section (length {length})",
                self.path,
            )
        if nbytes == 0:
            return b""
        # Unverified reads take just their bytes; verified ones whole blocks.
        unit = extent.block_bytes(section) if self.verify else 1
        lo = start - start % unit
        hi = min(start + nbytes + (-(start + nbytes) % unit), length)
        raw = self._raw_read(
            extent.section_offset(section) + lo, hi - lo, stats
        )
        if len(raw) != hi - lo:
            raise SpillCorruptionError(
                f"truncated {name} section (got {len(raw)} of "
                f"{hi - lo} bytes at offset {lo})",
                self.path,
            )
        if self.verify:
            crcs, view = extent.block_crcs[section], memoryview(raw)
            for index in range(lo // unit, -(-hi // unit)):
                if stats is not None:
                    stats.checksum_verifications += 1
                at = index * unit - lo
                if zlib.crc32(view[at : at + unit]) != crcs[index]:
                    if stats is not None:
                        stats.checksum_failures += 1
                    raise SpillCorruptionError(
                        f"CRC32 mismatch in {name} section block {index}",
                        self.path,
                    )
        return raw[start - lo : start - lo + nbytes]

    def read_key_block(
        self, start: int, stop: int, stats: SortStats | None = None
    ) -> np.ndarray:
        """Key rows ``[start, stop)`` as ``(m, key_words)`` uint64 words."""
        width = 8 * self.key_words
        raw = self._read_section(
            _KEYS, start * width, (stop - start) * width, stats
        )
        return np.frombuffer(raw, dtype=np.uint64).reshape(
            stop - start, self.key_words
        )

    def read_payload(
        self, schema: Schema, stats: SortStats | None = None
    ) -> InMemoryRun:
        """The run's payload, read and CRC-checked whole: the resident run
        it was, whose key words stay on disk (``words`` is ``None``)."""
        raw = self._read_section(_PAYLOAD, 0, self.payload_bytes, stats)
        table, positions = unpack_payload(raw, schema, self.num_rows, self.path)
        return InMemoryRun(None, self.layout, table, positions)


class ExternalSortOperator(SortOperator):
    """The sort that may spill: sorted runs go to disk, the merge streams.

    A :class:`~repro.sort.operator.SortOperator` whose run store spills
    (see the module docstring for ``sink`` and ``finalize``), with a
    fault-tolerant lifecycle: ``close()`` always removes its temp files
    (recording failures in ``SortStats.cleanup_errors``), and a set
    ``SortConfig.cancel_event`` aborts the sort at its next checkpoint
    with guaranteed cleanup.
    ``spill_directory`` defaults to a fresh temporary directory, made by
    the first spill; ``SortConfig.spill_directories`` names failover
    targets tried in order when writes to the primary keep failing,
    after which runs fall back to memory (``stats`` counts each rung).
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
        self._runs: list[SpilledRun | InMemoryRun] = []
        self._closed = False
        self._degraded = False
        self._run_seq = 0  # spill run counter (never reused)
        # Collision-proof spill names: concurrent sorts sharing a spill
        # directory (a service pool, user-provided failover targets)
        # must never write the same file, so every operator salts its
        # spill file's name with a per-instance random token.
        self._spill_token = secrets.token_hex(4)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Release all resources: buffered chunks, spill files, temp dir.

        Idempotent; also invoked by ``finalize`` (success, failure or
        cancellation), a cancelled spill, and context-manager exit.
        Removal failures are recorded in ``SortStats.cleanup_errors``
        and warned about -- never silently swallowed.
        """
        if self._closed:
            return
        self._closed = True
        self._buffer.clear()
        for run in self._runs:
            if run.on_disk:
                self._remove_file(run.path)
        self._io.close()
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
        """Runs written to disk: a run kept in memory is not one."""
        return sum(run.on_disk for run in self._runs)

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
        # base threshold is the live value, capped by the memory grant
        # (:func:`effective_run_threshold`).
        threshold = effective_run_threshold(self.config)
        return max(1, threshold // 2) if self._degraded else threshold

    def sink(self, chunk: DataChunk) -> None:
        """Accept a chunk of any length; cut and spill a run at the first
        vector boundary (every ``VECTOR_SIZE`` rows from the chunk's start)
        at or past the live threshold: a table sunk whole is cut into the
        zero-copy slices its vectors would make."""
        self._check_cancelled()
        if self._closed and not self._finalized:
            raise SortError("cannot sink into a closed sort")
        start, rows = 0, len(chunk)
        while True:
            need = self._run_threshold - self._buffered_rows
            vectors = max(1, -(-need // VECTOR_SIZE))
            stop = min(rows, start + vectors * VECTOR_SIZE)
            super().sink(chunk.slice(start, stop))
            self._buffered_rows += stop - start
            if self._buffered_rows < self._run_threshold:
                return
            if effective_run_threshold(self.config) < self.config.run_threshold:
                self.stats.governor_forced_spills += 1
            self._spill_run()
            if stop == rows:
                return
            start = stop

    def _spill_targets(self) -> Iterator[str]:
        """Candidate directories for the next run, in failover order."""
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
        """Append one run through the retry -> failover ladder.

        Per candidate directory, transient ``OSError`` failures are
        retried ``_WRITE_RETRIES`` times with exponential backoff; a
        directory that keeps failing is failed over.  Returns the written
        run's path, or ``None`` when every target was exhausted (the
        caller degrades to an in-memory run).
        A failed or interrupted attempt's run is released: a retry is
        written at the same offset, and no untracked extent is left.
        """
        for position, directory in enumerate(self._spill_targets()):
            if position > 0:
                self.stats.spill_failovers += 1
            path = os.path.join(directory, filename)
            for attempt in range(_WRITE_RETRIES + 1):
                try:
                    with self.stats.time_phase("spill_io"):
                        self._io.write_file(path, sections)
                    return path
                except BaseException as error:
                    self._remove_file(path)
                    if not isinstance(error, OSError):
                        raise
                    if attempt < _WRITE_RETRIES:
                        self.stats.spill_retries += 1
                        time.sleep(_BACKOFF_S * 2**attempt)
        return None

    def _spill_run(self) -> None:
        batch = self._generator.encode(self._buffer)
        self._buffer = []
        self._buffered_rows = 0
        self._store_run(self._generator.sort_run(*batch))

    # ------------------------------------------------------------------ #
    # The spilling run store
    # ------------------------------------------------------------------ #

    def _store_run(self, run: InMemoryRun) -> "SpilledRun | InMemoryRun":
        """Spill one sorted run, degrading to memory when disk is gone.

        The stored run is appended to ``self._runs`` (so cleanup always
        sees it) and returned -- the run itself when it stays resident;
        the fan-in-limited merge stores intermediate runs through the
        same ladder.  Run names come from a never-reused sequence
        counter, not the live run count, because multi-pass
        merging shrinks the list while old runs still exist; the
        per-operator random token names the sort's file in each
        directory, collision-proof across concurrent sorts sharing one.

        A cancellation (or a ``close()``) that raced the write (e.g. a
        fault hook firing mid-spill) is honored *after* the write: the
        fresh run -- which ``close()`` could not have seen -- is removed
        here and the sort raises :class:`SortCancelledError` instead of
        tracking a run past its own cleanup.
        """
        # A run of the sort's file in a directory: ``<file>#<run>``.
        filename = f"sort-{self._spill_token}.spill#run-{self._run_seq:05d}.bin"
        self._run_seq += 1
        path = None
        if not self._degraded:
            with self.stats.time_phase("run_gen"):
                # The run's key word rows, in key order, once.
                keys = np.stack(run.key_block(0, run.num_rows), axis=1)
            # Flat byte views of the run's arrays, no tobytes copy:
            # pwritev and crc32 take them as they are.
            payload = []
            if not self._generator.key_carried:
                payload = pack_payload(run.table, run.positions)
            extent = build_extent(keys, payload, self.merge_block_rows)
            sections = [keys.view(np.uint8).ravel(), *payload]
            path = self._write_run_file(filename, sections)
        event = self.config.cancel_event
        if self._closed or (event is not None and event.is_set()):
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
                extent,
                run.layout,
                self._io,
                verify=self.config.verify_spill_checksums,
            )
            self._runs.append(run)
            return run
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

        Nothing stored means the input never reached the threshold: the
        inherited finish sorts it as one resident run and no file is
        written.  Otherwise the buffered tail becomes one more resident
        run (it holds the latest rows, so it goes last) and every run
        streams through one merge.
        Cleanup is guaranteed: whether the merge succeeds, raises, or is
        cancelled, ``close()`` runs and removes every temp file.
        """
        if self._finalized:
            raise SortError("sort already finalized")
        try:
            self._check_cancelled()
            if self._closed:
                raise SortError("cannot finalize a closed sort")
            if not self._runs:
                return super().finalize()
            self._finalized = True
            if self._buffer:
                self._runs.append(self._sort_buffer())
            merger = RunMerger(
                self._generator, self.merge_block_rows, self._make_prefetcher
            )
            with self.stats.time_phase("merge"):
                self._collapse_runs(merger)
                return merger.merge(self._runs)
        finally:
            self.close()

    def _collapse_runs(self, merger: RunMerger) -> None:
        """Fan-in-limited pre-passes: merge run groups until k <= fan-in.

        With ``SortConfig.merge_fan_in`` unset the single-pass kernel
        merges any k directly and this is a no-op.  A bounded fan-in
        models a real memory budget (k frontier blocks must fit): each
        pass merges groups of ``fan_in`` runs into new spilled runs,
        re-reading and re-writing their bytes.
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
            survivors: list[SpilledRun | InMemoryRun] = []
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
        self, runs: "list[SpilledRun | InMemoryRun]", key_fetch
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
        # The budget derives from the live (grant-capped) threshold, so
        # a grant below the threshold also bounds the read-ahead window.
        budget = prefetch_budget_blocks(
            depth,
            sum(active),
            self.merge_block_rows,
            effective_run_threshold(self.config),
        )
        return BlockPrefetcher(
            [run.num_rows for run in runs],
            active,
            self.merge_block_rows,
            key_fetch,
            depth,
            budget,
            self.stats,
            cancel_event=self.config.cancel_event,
        )
