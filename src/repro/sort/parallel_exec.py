"""Real multi-core parallel sorting: morsel-driven runs + Merge Path.

The rest of the sort pipeline *models* parallelism (the virtual-time
scheduler in :mod:`repro.engine.parallel`); this module executes it.  A
:class:`ParallelSortExecutor` owns a process pool and runs the two
parallel phases of the paper's Section VII / Figure 11 pipeline on real
cores:

1. **Morsel-driven run generation** -- the normalized-key matrix is cut
   into fixed-size morsels; each worker sorts one morsel's key rows with
   the existing vector kernel (:func:`repro.sort.kernels.argsort_rows`)
   and writes the resulting index slice into a shared order buffer.
2. **Merge-Path-partitioned merge** -- sorted morsel runs are merged
   with a cascaded 2-way merge whose every pair is cut into independent
   equal-output sub-merges along Merge Path diagonals
   (:func:`repro.sort.merge_path.merge_path_partitions`); each sub-merge
   is one vectorized :func:`repro.sort.kernels.merge_indices` call in a
   worker, writing its slice of the output order directly.

Workers communicate exclusively through ``multiprocessing.shared_memory``
buffers: the key bytes are copied into one shared segment at setup and
the (ping-pong) order buffers are shared int64 arrays, so **no key or
row bytes are ever pickled** -- tasks are tuples of segment names and
integer ranges, results are timing scalars.  Payload rows never cross a
process boundary at all: the executor returns a gather permutation and
the caller reorders the payload in-process, which is why unpicklable
payload columns cannot break the parallel path (they never travel).

Determinism: every sub-sort is stable and every merge resolves ties to
the earlier (lower-row-id) side, exactly like the serial kernels, so the
permutation -- and therefore the sorted table -- is byte-identical to
the serial path for any worker count and morsel size.

Key compression (:mod:`repro.keys.compression`) composes transparently:
all shared-memory geometry (segment sizes, morsel offsets, sub-merge
bounds) derives from the ``key_width`` the caller passes alongside the
matrix, never from a schema-computed width, so compressed (narrower)
key matrices just make the shared segment smaller.

Fallback rules (the caller degrades to the serial kernels whenever
:meth:`ParallelSortExecutor.argsort` returns ``None``):

* ``num_workers <= 1`` or fewer than two morsels of input;
* the platform lacks POSIX shared memory or the ``fork`` start method
  (the executor never uses ``spawn``: it would re-import the world per
  worker and re-introduce pickling);
* shared-memory setup fails at runtime (e.g. ``/dev/shm`` is full) --
  the executor marks itself unavailable and all later calls fall back.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SortError
from repro.sort.kernels import argsort_rows, merge_indices
from repro.sort.merge_path import merge_path_partitions

__all__ = [
    "DEFAULT_MORSEL_ROWS",
    "SHM_PREFIX",
    "ParallelSortExecutor",
    "parallel_platform_supported",
]

DEFAULT_MORSEL_ROWS = 1 << 15
"""Rows per run-generation morsel when the config does not override it."""

SHM_PREFIX = "repro-sort-"
"""Name prefix of every shared-memory segment the executor creates."""


def parallel_platform_supported() -> bool:
    """True when this platform can run the shared-memory process pool."""
    try:
        from multiprocessing import shared_memory  # noqa: F401
    except ImportError:
        return False
    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------- #
# Worker side
# ---------------------------------------------------------------------- #

_ATTACH_CACHE: dict[str, object] = {}
"""Per-worker cache of attached segments, keyed by segment name."""

_ATTACH_CACHE_LIMIT = 32


def _attach(name: str):
    """Attach a shared-memory segment by name, caching the mapping.

    Segment names are unique per executor call (pid + random token), so a
    cache hit can never alias a different segment.  The cache is bounded;
    overflow closes the cached mappings and starts over (the parent holds
    the segments open, so closing here never destroys data; a mapping
    with a still-exported buffer is simply dropped).
    """
    from multiprocessing import shared_memory

    cached = _ATTACH_CACHE.get(name)
    if cached is not None:
        return cached
    if len(_ATTACH_CACHE) >= _ATTACH_CACHE_LIMIT:
        for shm in _ATTACH_CACHE.values():
            try:
                shm.close()
            except BufferError:
                pass
        _ATTACH_CACHE.clear()
    shm = shared_memory.SharedMemory(name=name)
    _ATTACH_CACHE[name] = shm
    return shm


def _worker_slot() -> int:
    """Stable 1-based index of this pool worker (0 in the parent)."""
    identity = multiprocessing.current_process()._identity
    return identity[0] if identity else 0


def _keys_view(name: str, n: int, width: int) -> np.ndarray:
    shm = _attach(name)
    return np.ndarray((n, width), dtype=np.uint8, buffer=shm.buf)


def _order_view(name: str, n: int) -> np.ndarray:
    shm = _attach(name)
    return np.ndarray((n,), dtype=np.int64, buffer=shm.buf)


def _sort_morsel_task(task) -> tuple[int, float, int]:
    """Sort one morsel's key rows; write global indices into the order buffer.

    ``task`` is ``(keys_name, n, width, order_name, start, stop)``.  The
    written slice is disjoint per task, so no synchronization is needed.
    Returns ``(worker_slot, seconds, rows)``.
    """
    keys_name, n, width, order_name, start, stop = task
    began = time.perf_counter()
    keys = _keys_view(keys_name, n, width)
    order = _order_view(order_name, n)
    order[start:stop] = start + argsort_rows(keys[start:stop])
    return _worker_slot(), time.perf_counter() - began, stop - start


def _merge_slice_task(task) -> tuple[int, float, int]:
    """Merge one Merge-Path partition of a 2-way merge into the output.

    ``task`` is ``(keys_name, n, width, src_name, dst_name, a_lo, a_hi,
    b_lo, b_hi, out_lo)``.  The half-open ranges index the *source order
    buffer* (run rows are ``keys[src[i]]``).  Ties take the ``a`` side
    first -- the same rule :func:`merge_path_partitions` cut the
    diagonals with, so concatenating every partition's output is the
    stable full merge.  Returns ``(worker_slot, seconds, rows)``.
    """
    keys_name, n, width, src_name, dst_name, a_lo, a_hi, b_lo, b_hi, out_lo = task
    began = time.perf_counter()
    keys = _keys_view(keys_name, n, width)
    dst = _order_view(dst_name, n)
    src = _order_view(src_name, n)
    idx_a = src[a_lo:a_hi]
    idx_b = src[b_lo:b_hi]
    keys_a = keys[idx_a]
    keys_b = keys[idx_b]
    total = len(idx_a) + len(idx_b)
    if len(idx_a) == 0:
        dst[out_lo : out_lo + total] = idx_b
    elif len(idx_b) == 0:
        dst[out_lo : out_lo + total] = idx_a
    else:
        perm = merge_indices(keys_a, keys_b)
        dst[out_lo : out_lo + total] = np.concatenate([idx_a, idx_b])[perm]
    return _worker_slot(), time.perf_counter() - began, total


# ---------------------------------------------------------------------- #
# Parent side
# ---------------------------------------------------------------------- #


class _KeyRows:
    """Sequence view of sorted key rows for Merge-Path binary searches.

    Each item is the row's key bytes (memcmp order under ``<``).  The
    view follows the indirection of a sorted run held as indices into
    ``order``; only O(log n) items are ever materialized per partition
    search, so the per-item ``tobytes`` cost is negligible.
    """

    __slots__ = ("_keys", "_order", "_lo", "_hi")

    def __init__(
        self, keys: np.ndarray, lo: int, hi: int, order: np.ndarray
    ) -> None:
        self._keys = keys
        self._order = order
        self._lo = lo
        self._hi = hi

    def __len__(self) -> int:
        return self._hi - self._lo

    def __getitem__(self, index: int) -> bytes:
        return self._keys[int(self._order[self._lo + index])].tobytes()


@dataclass
class ParallelPhase:
    """Measured schedule of one parallel phase (one barrier).

    ``task_rows`` / ``task_seconds`` are per submitted task, in
    submission order; ``worker_seconds`` accumulates busy time per pool
    worker slot; ``makespan_s`` is the parent-observed wall-clock of the
    phase (dispatch to barrier).
    """

    name: str
    task_rows: list[int] = field(default_factory=list)
    task_seconds: list[float] = field(default_factory=list)
    worker_seconds: dict[int, float] = field(default_factory=dict)
    makespan_s: float = 0.0


class ParallelSortExecutor:
    """Process-pool executor of the morsel + Merge-Path sort phases.

    One executor serves many calls (the pool is created lazily on first
    use and reused); ``close()`` -- or use as a context manager --
    releases the workers.  All entry points return ``None`` when the
    parallel path cannot run, in which case the caller must fall back to
    the serial kernels; any shared-memory setup failure marks the
    executor unavailable for the rest of its life.
    """

    def __init__(
        self,
        num_workers: int,
        morsel_rows: int = DEFAULT_MORSEL_ROWS,
        cancel_check=None,
    ) -> None:
        if num_workers < 1:
            raise SortError("num_workers must be at least 1")
        if morsel_rows < 1:
            raise SortError("morsel_rows must be at least 1")
        self.num_workers = num_workers
        self.morsel_rows = morsel_rows
        self.cancel_check = cancel_check
        self._pool = None
        self._unavailable = not parallel_platform_supported()
        self._segments: list = []
        self.phases: list[ParallelPhase] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "ParallelSortExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    @property
    def available(self) -> bool:
        return self.num_workers > 1 and not self._unavailable

    def close(self) -> None:
        """Release the worker pool and any leaked segments; idempotent."""
        self._release_segments()
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.num_workers)
        return self._pool

    # ------------------------------------------------------------------ #
    # Shared-memory plumbing
    # ------------------------------------------------------------------ #

    def _create_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        name = (
            f"{SHM_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}"
            f"-{len(self._segments)}"
        )
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, nbytes), name=name
        )
        self._segments.append(segment)
        return segment

    def _release_segments(self) -> None:
        """Close and unlink every live segment; never raises.

        Callers must drop their numpy views over the segment buffers
        first -- a still-exported buffer makes ``close()`` raise
        ``BufferError``, in which case the mapping is left to die with
        its last view but the name is still unlinked.
        """
        segments, self._segments = self._segments, []
        for segment in segments:
            try:
                segment.close()
            except (BufferError, OSError):
                pass
            try:
                segment.unlink()
            except (OSError, FileNotFoundError):
                pass

    def _shared_keys(self, matrix: np.ndarray, key_width: int):
        """Copy the merge-relevant key prefix into a shared segment."""
        n = len(matrix)
        segment = self._create_segment(n * key_width)
        view = np.ndarray((n, key_width), dtype=np.uint8, buffer=segment.buf)
        view[:] = matrix[:, :key_width]
        return segment, view

    def _shared_order(self, n: int):
        segment = self._create_segment(n * 8)
        view = np.ndarray((n,), dtype=np.int64, buffer=segment.buf)
        return segment, view

    # ------------------------------------------------------------------ #
    # Phase dispatch
    # ------------------------------------------------------------------ #

    def _run_phase(self, name: str, worker, tasks: list, rows: list[int]):
        """map() one batch of tasks over the pool, recording its schedule.

        ``cancel_check`` runs before every dispatch: a cancelled sort
        stops between phases (never mid-map), so the caller's ``finally``
        still releases the shared segments and the pool stays reusable.
        """
        if self.cancel_check is not None:
            self.cancel_check()
        phase = ParallelPhase(name)
        phase.task_rows = list(rows)
        began = time.perf_counter()
        results = self._ensure_pool().map(worker, tasks)
        phase.makespan_s = time.perf_counter() - began
        for slot, seconds, _ in results:
            phase.task_seconds.append(seconds)
            phase.worker_seconds[slot] = (
                phase.worker_seconds.get(slot, 0.0) + seconds
            )
        self.phases.append(phase)
        return phase

    def _record(self, stats, phases: Sequence[ParallelPhase]) -> None:
        if stats is None:
            return
        stats.parallel_workers = self.num_workers
        for phase in phases:
            stats.parallel_task_rows.setdefault(phase.name, []).extend(
                phase.task_rows
            )
            stats.parallel_task_seconds.setdefault(phase.name, []).extend(
                phase.task_seconds
            )
            for slot, seconds in phase.worker_seconds.items():
                stats.parallel_worker_seconds[slot] = (
                    stats.parallel_worker_seconds.get(slot, 0.0) + seconds
                )
            stats.parallel_makespan_s += phase.makespan_s

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def argsort(
        self,
        matrix: np.ndarray,
        key_width: int,
        stats=None,
    ) -> np.ndarray | None:
        """Parallel stable argsort of key rows; ``None`` means fall back.

        Byte-for-byte equivalent to ``argsort_rows(matrix[:, :key_width])``:
        morsels are sorted stably and every cascade merge resolves ties to
        the earlier morsel, so the permutation equals the serial stable
        sort's.  Only the leading ``key_width`` bytes of each row are
        shipped to (and compared by) the workers.
        """
        n = len(matrix)
        morsels = [
            (start, min(start + self.morsel_rows, n))
            for start in range(0, n, self.morsel_rows)
        ]
        if not self.available or len(morsels) < 2:
            return None
        try:
            keys_segment, keys = self._shared_keys(matrix, key_width)
            src_segment, src = self._shared_order(n)
            dst_segment, dst = self._shared_order(n)
        except (OSError, ValueError):
            self._release_segments()
            self._unavailable = True
            return None
        phases: list[ParallelPhase] = []
        try:
            tasks = [
                (keys_segment.name, n, key_width, src_segment.name, start, stop)
                for start, stop in morsels
            ]
            phases.append(
                self._run_phase(
                    "run_gen",
                    _sort_morsel_task,
                    tasks,
                    [stop - start for start, stop in morsels],
                )
            )
            runs = morsels
            round_index = 0
            while len(runs) > 1:
                runs = self._merge_round(
                    round_index,
                    runs,
                    keys_segment.name,
                    keys,
                    src_segment.name,
                    src,
                    dst_segment.name,
                    dst,
                    phases,
                )
                src_segment, dst_segment = dst_segment, src_segment
                src, dst = dst, src
                round_index += 1
            result = src.copy()
        finally:
            # Drop the views before releasing: a buffer with live numpy
            # exports cannot be closed.
            keys = src = dst = None
            self._release_segments()
        self._record(stats, phases)
        return result

    def _merge_round(
        self,
        round_index: int,
        runs: list[tuple[int, int]],
        keys_name: str,
        keys: np.ndarray,
        src_name: str,
        src: np.ndarray,
        dst_name: str,
        dst: np.ndarray,
        phases: list[ParallelPhase],
    ) -> list[tuple[int, int]]:
        """One cascade round: merge adjacent run pairs along Merge Path.

        Every pair is split into ``ceil(num_workers / num_pairs)``
        equal-output partitions so the round keeps all workers busy even
        when few pairs remain -- the repartitioning that stops the final
        merges from degrading to a single thread.
        """
        n = len(src)
        pairs = [
            (runs[i], runs[i + 1]) for i in range(0, len(runs) - 1, 2)
        ]
        parts = max(1, -(-self.num_workers // len(pairs)))
        tasks = []
        rows = []
        next_runs: list[tuple[int, int]] = []
        for (a_start, a_stop), (b_start, b_stop) in pairs:
            a_view = _KeyRows(keys, a_start, a_stop, src)
            b_view = _KeyRows(keys, b_start, b_stop, src)
            points = merge_path_partitions(a_view, b_view, parts)
            for (i0, j0), (i1, j1) in zip(points, points[1:]):
                size = (i1 - i0) + (j1 - j0)
                if size == 0:
                    continue
                tasks.append(
                    (
                        keys_name,
                        n,
                        keys.shape[1],
                        src_name,
                        dst_name,
                        a_start + i0,
                        a_start + i1,
                        b_start + j0,
                        b_start + j1,
                        a_start + i0 + j0,
                    )
                )
                rows.append(size)
            next_runs.append((a_start, b_stop))
        if len(runs) % 2 == 1:
            start, stop = runs[-1]
            dst[start:stop] = src[start:stop]
            next_runs.append((start, stop))
        phases.append(
            self._run_phase(
                f"merge_round_{round_index}", _merge_slice_task, tasks, rows
            )
        )
        return next_runs
