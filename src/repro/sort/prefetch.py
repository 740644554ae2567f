"""Overlapped, forecast-prioritized read-ahead for the external merge.

Where spill-block reads wait on storage (:meth:`BlockPrefetcher._fetch_now`
decides), this module moves the seek + read + CRC32 verification off the
k-way merge's critical path: a small thread pool fetches and verifies
blocks *ahead* of the merge -- file reads release the GIL, so the latency
overlaps merge compute -- and the merge consumes per-run queues, waiting
only when read-ahead could not keep up.

One block stream is prefetched per run: the key blocks
:func:`~repro.sort.kernels.kway_merge_blocks` refills its frontiers
from, consumed strictly in order through
:meth:`BlockPrefetcher.key_source`.  Refill slots go first to the run
whose last-delivered block tail is the smallest (it owns the kernel's
round cutoff, so it drains soonest); at most ``depth`` blocks per run
and a global budget charged against ``SortConfig.run_threshold`` are in
flight.  A fetch runs the synchronous verified-read path, so a
:class:`~repro.errors.SpillError` raised in a worker is re-raised where
the merge consumes the block; workers record into private
:class:`~repro.sort.operator.SortStats` merged at delivery, and
:meth:`BlockPrefetcher.close` (idempotent) cancels and joins the pool.
The budget, the forecast and the phase attribution are set out in
``docs/sort-pipeline.md`` ("Overlapped prefetching").
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.sort.operator import SortStats

__all__ = ["BlockPrefetcher", "prefetch_budget_blocks"]

_MAX_WORKERS = 4
"""Thread-pool ceiling; more workers than this saturate one spill disk."""

_SLOW_READ_S, _SLOW_STREAK = 1e-4, 3
"""The pool starts after this many reads in a row took this long (the page
cache answers in 30-50 us, and a read that was preempted comes alone)."""

_STATS_ATTR = "_prefetch_local_stats"
"""Attribute a failed fetch task hangs its local counters on, so checksum
failures observed inside a worker still reach the operator's stats."""


def prefetch_budget_blocks(
    depth: int, on_disk_runs: int, block_rows: int, run_threshold: int
) -> int:
    """Global read-ahead budget in blocks, charged against run memory.

    ``depth`` blocks per run, capped at one run's memory allowance
    (``run_threshold`` rows' worth of blocks) -- but never below one
    block per run, so that each has one in flight.  That floor is
    proportional to the merge kernel's own frontier working set
    (``k * (block_rows + block_rows // 4)`` rows), so the prefetch layer
    stays within a constant factor of memory the merge already commits;
    without it, a small ``run_threshold`` would starve read-ahead into
    all-miss synchronous fallbacks.  Zero depth disables.
    """
    if depth <= 0 or on_disk_runs <= 0:
        return 0
    want = depth * on_disk_runs
    cap = max(on_disk_runs, run_threshold // max(1, block_rows))
    return max(1, min(want, cap))


class _RunState:
    """Per-run read-ahead bookkeeping (consumer-thread only)."""

    __slots__ = (
        "active",
        "num_rows",
        "key_blocks",
        "key_queue",
        "key_submitted",
        "key_delivered",
        "tail",
    )

    def __init__(self, active: bool, num_rows: int, block_rows: int) -> None:
        self.active = active
        self.num_rows = num_rows
        self.key_blocks = -(-num_rows // block_rows) if num_rows else 0
        self.key_queue: deque[Future] = deque()
        self.key_submitted = 0  # next key block index to schedule
        self.key_delivered = 0  # key blocks handed to the merge kernel
        self.tail: tuple | None = None  # last delivered block's tail words


class BlockPrefetcher:
    """Double-buffered read-ahead over one merge's spilled runs.

    ``key_fetch(index, start, stop, stats)`` must return the key word
    columns of the run's rows ``[start, stop)`` -- rebased exactly as the
    merge wants them, every run's on one layout (the exhaustion forecast
    compares their tail rows).  It is called with the merge's stats on its
    own thread and with a private stats object on a worker; it times its
    raw read as ``spill_io`` (what starts the pool) and raises only typed
    spill errors.  Inactive (in-memory fallback) runs bypass all of it.
    """

    def __init__(
        self,
        num_rows: Sequence[int],
        active: Sequence[bool],
        block_rows: int,
        key_fetch: Callable[[int, int, int, SortStats], np.ndarray],
        depth: int,
        budget_blocks: int,
        stats: SortStats,
        cancel_event: object | None = None,
    ) -> None:
        self._block_rows = block_rows
        self._key_fetch = key_fetch
        self._depth = max(1, depth)
        self._budget = budget_blocks
        self._stats = stats
        self._cancel_event = cancel_event
        self._runs = [
            _RunState(active[i], num_rows[i], block_rows)
            for i in range(len(num_rows))
        ]
        self._outstanding = 0  # submitted-but-unconsumed futures
        self._closed = False
        self._pool: ThreadPoolExecutor | None = None  # see _fetch_now
        self._streak = 0  # critical-path reads in a row that were slow

    # ------------------------------------------------------------------ #
    # Consumer API
    # ------------------------------------------------------------------ #

    def key_source(self, index: int) -> Iterator[np.ndarray]:
        """The run's key blocks in order, served via read-ahead."""
        state = self._runs[index]
        while state.key_delivered < state.key_blocks:
            yield self._next_key_block(index)

    def close(self) -> None:
        """Cancel queued fetches and join the pool (idempotent).

        Called from the merge's ``finally`` so that no prefetch thread
        survives the sort -- success, typed failure, or cancellation.
        Completed-but-unconsumed fetches still contribute their
        verification counters before being dropped.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is None:
            return
        pending: list[Future] = []
        for state in self._runs:
            pending.extend(state.key_queue)
            state.key_queue.clear()
        for future in pending:
            future.cancel()
        self._pool.shutdown(wait=True, cancel_futures=True)
        for future in pending:
            if future.cancelled() or not future.done():
                continue
            error = future.exception()  # mark retrieved; never re-raised
            if error is None:
                self._merge_local(future.result()[-1])
            else:
                local = getattr(error, _STATS_ATTR, None)
                if local is not None:
                    self._merge_local(local)

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def _next_key_block(self, index: int) -> np.ndarray:
        state = self._runs[index]
        start = state.key_delivered * self._block_rows
        stop = min(start + self._block_rows, state.num_rows)
        if self._budget <= 0 or not state.active:
            block = self._key_fetch(index, start, stop, self._stats)
        elif not state.key_queue:
            # Not read ahead: fetch on the critical path.
            block = self._fetch_now(index, start, stop)
            state.key_submitted = max(
                state.key_submitted, state.key_delivered + 1
            )
        else:
            block = self._consume(state.key_queue.popleft())
        state.key_delivered += 1
        if len(block[0]):
            state.tail = tuple(int(word[-1]) for word in block)
        self._schedule()
        return block

    def _fetch_now(self, index: int, start: int, stop: int):
        """A miss: fetch on the consumer thread (timed as plain spill_io).

        Until reads prove slow no thread exists and every fetch comes
        through here: a block the page cache holds is a short read plus
        one CRC32, cheaper to take here than to hand to a thread.
        """
        stats = self._stats
        stats.prefetch_misses += 1
        before = stats.phase_seconds.get("spill_io", 0.0)
        result = self._key_fetch(index, start, stop, stats)
        read_s = stats.phase_seconds.get("spill_io", 0.0) - before
        self._streak = self._streak + 1 if read_s >= _SLOW_READ_S else 0
        if self._streak == _SLOW_STREAK and self._pool is None:
            workers = min(_MAX_WORKERS, sum(s.active for s in self._runs))
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="spill-prefetch"
            )
        return result

    def _consume(self, future: Future):
        """Resolve one fetch future, accounting hit/miss and wait time."""
        stats = self._stats
        if future.done():
            stats.prefetch_hits += 1
        else:
            stats.prefetch_misses += 1
            started = time.perf_counter()
            try:
                future.result()
            except BaseException:
                pass  # re-raised (with stats merged) below
            stats.add_phase_seconds(
                "io_wait", time.perf_counter() - started
            )
        self._outstanding -= 1
        try:
            result = future.result()
        except BaseException as error:
            local = getattr(error, _STATS_ATTR, None)
            if local is not None:
                self._merge_local(local)
            raise
        self._merge_local(result[-1])
        return result[0]

    def _merge_local(self, local: SortStats) -> None:
        stats = self._stats
        stats.checksum_verifications += local.checksum_verifications
        stats.checksum_failures += local.checksum_failures
        # A worker's read overlapped the merge: no open phase pays for it.
        phases, read_s = stats.phase_seconds, local.phase_seconds.get("spill_io")
        if read_s is not None:
            phases["spill_io_overlap"] = phases.get("spill_io_overlap", 0.0) + read_s

    # ------------------------------------------------------------------ #
    # Scheduling (consumer thread only)
    # ------------------------------------------------------------------ #

    def _schedule(self) -> None:
        if self._closed:
            return
        # A cancelled sort schedules nothing further: the merge raises
        # at its next checkpoint and the closing pool should not be
        # racing new reads against the spill files' removal.
        event = self._cancel_event
        if event is not None and event.is_set():
            return
        while self._pool and self._outstanding < self._budget:
            index = self._pick()
            if index is None:
                break
            state = self._runs[index]
            lo = state.key_submitted * self._block_rows
            hi = min(lo + self._block_rows, state.num_rows)
            future = self._pool.submit(self._task, index, lo, hi)
            state.key_queue.append(future)
            state.key_submitted += 1
            self._outstanding += 1
        if self._outstanding > self._stats.prefetch_peak_blocks:
            self._stats.prefetch_peak_blocks = self._outstanding

    def _pick(self) -> int | None:
        """The run whose next key block to schedule, by the exhaustion
        forecast: of the runs with blocks left and a free slot, the one
        whose last delivered tail key is smallest -- the run at the
        global minimum (the merge's cutoff owner) drains first."""
        wanted = [
            index
            for index, state in enumerate(self._runs)
            if state.active
            and state.key_submitted < state.key_blocks
            and len(state.key_queue) < self._depth
        ]
        if not wanted:
            return None
        # A run with no tail yet (None -> ()) first.
        return min(wanted, key=lambda i: self._runs[i].tail or ())

    def _task(self, index: int, start: int, stop: int):
        local = SortStats()  # a worker's counters stay thread-private
        try:
            return self._key_fetch(index, start, stop, local), local
        except BaseException as error:
            setattr(error, _STATS_ATTR, local)
            raise
