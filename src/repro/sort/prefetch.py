"""Overlapped, forecast-prioritized read-ahead for the external merge.

Where spill-block reads wait on storage (:meth:`BlockPrefetcher._fetch_now`
decides), this module moves the seek + read + CRC32 verification off the
k-way merge's critical path: a small thread pool fetches and verifies
blocks *ahead* of the merge -- file reads release the GIL, so the latency
overlaps merge compute -- and the merge consumes per-run queues, waiting
only when read-ahead could not keep up.

Up to two block streams are prefetched per run, mirroring how the merge
consumes a spilled run:

* **key blocks** -- the key word rows :func:`~repro.sort.kernels.
  kway_merge_blocks` refills its frontiers from, consumed strictly in
  order through :meth:`BlockPrefetcher.key_source`;
* **payload rows** -- each emitted round gathers one contiguous prefix
  of every contributing run's rows, so payload consumption trails key
  consumption run-by-run.  :meth:`BlockPrefetcher.read_rows` serves
  those gathers from a buffered window of payload blocks scheduled in
  lockstep with the delivered key blocks.  Key-carried runs hold no
  payload: their merge opens the key stream alone (``row_fetch=None``).

**Forecasting.**  Read-ahead slots are a scarce resource (see budget
below), so they go to the runs that will exhaust their buffered data
first.  The merge kernel's round cutoff is the minimum over the runs'
frontier-tail keys; the prefetcher applies the same rule to its own
buffers: each run's last-delivered block tail, kept as a tuple of its
key words, is compared against the others (``min`` over tuples, the
order the kernel compares its tails in), and runs are refilled in
ascending tail order -- the run owning the cutoff drains its frontier
every round, so its next block is needed soonest.  A frontier the kernel
tops up before it runs dry takes its run's next block all the same: blocks
are consumed in one order per run, only sooner.

**Memory budget.**  At most ``depth`` blocks per run per open stream are in
flight, and the *total* of in-flight fetches plus buffered-but-unread
payload blocks never exceeds a global block budget the caller charges
against ``SortConfig.run_threshold`` -- prefetch memory comes out of
the same budget that sizes runs, it is not an unaccounted side buffer.
``SortStats.prefetch_peak_blocks`` records the observed peak.

**Faults.**  Fetch tasks run the exact same verified-read path as
synchronous reads, so injected faults (:mod:`repro.sort.faults`) fire
inside prefetch threads; the raised typed :class:`~repro.errors.
SpillError` is captured by the future and re-raised on the consumer
thread at the point the merge consumes the block -- callers observe the
same error surface as the synchronous path, and :meth:`BlockPrefetcher.
close` (idempotent, called from the merge's ``finally``) cancels queued
fetches and joins the pool so no thread outlives the sort.

Counter attribution: background read+verify seconds land in
``phase_seconds["spill_io_overlap"]`` (overlapped, off the critical
path), consumer waits for not-yet-finished fetches in
``phase_seconds["io_wait"]``, and synchronous fallback reads stay in
``phase_seconds["spill_io"]`` as before.  All shared-stats mutation
happens on the consumer thread: worker tasks record into a private
:class:`~repro.sort.operator.SortStats` that is merged at delivery.
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
    depth: int,
    on_disk_runs: int,
    block_rows: int,
    run_threshold: int,
    streams: int = 2,
) -> int:
    """Global read-ahead budget in blocks, charged against run memory.

    ``depth`` blocks per run per stream the merge opens (``streams``:
    keys and payload, or keys alone for key-carried runs), capped at one
    run's memory allowance (``run_threshold`` rows' worth of blocks) --
    but never below one block per run per stream, so that each has one
    in flight.  That floor is proportional to the merge kernel's own
    frontier working set (``k * (block_rows + block_rows // 4)`` rows),
    so the prefetch layer stays within a constant factor of memory the
    merge already commits; without it, a small ``run_threshold`` would
    starve read-ahead into all-miss synchronous fallbacks.  Zero depth
    disables.
    """
    if depth <= 0 or on_disk_runs <= 0:
        return 0
    want = depth * streams * on_disk_runs
    cap = max(streams * on_disk_runs, run_threshold // max(1, block_rows))
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
        "row_queue",
        "row_submitted",
        "row_delivered",
        "row_buffer",
        "tail",
    )

    def __init__(self, active: bool, num_rows: int, block_rows: int) -> None:
        self.active = active
        self.num_rows = num_rows
        self.key_blocks = -(-num_rows // block_rows) if num_rows else 0
        self.key_queue: deque[Future] = deque()
        self.key_submitted = 0  # next key block index to schedule
        self.key_delivered = 0  # key blocks handed to the merge kernel
        self.row_queue: deque[tuple[int, int, Future]] = deque()
        self.row_submitted = 0  # payload rows scheduled so far
        self.row_delivered = 0  # payload rows materialized into the buffer
        self.row_buffer: deque[tuple[int, np.ndarray]] = deque()
        self.tail: tuple | None = None  # last delivered block's tail words


class BlockPrefetcher:
    """Double-buffered read-ahead over one merge's spilled runs.

    ``key_fetch(index, start, stop, stats)`` must return the key word
    columns of the run's rows ``[start, stop)`` -- rebased exactly as the
    merge wants them, every run's on one layout (the exhaustion forecast
    compares their tail rows) -- and ``row_fetch(index, start, stop,
    stats)`` the payload rows backing the same range, or ``None`` when the
    runs hold none.  Both are called with the merge's stats on its own
    thread and with a private stats object on a worker; they time their
    raw read as ``spill_io`` (what starts the pool) and raise only typed
    spill errors.  Inactive (in-memory fallback) runs bypass all of it.
    """

    def __init__(
        self,
        num_rows: Sequence[int],
        active: Sequence[bool],
        block_rows: int,
        key_fetch: Callable[[int, int, int, SortStats], np.ndarray],
        row_fetch: Callable[[int, int, int, SortStats], np.ndarray] | None,
        depth: int,
        budget_blocks: int,
        stats: SortStats,
        cancel_event: object | None = None,
    ) -> None:
        self._block_rows = block_rows
        self._key_fetch = key_fetch
        self._row_fetch = row_fetch
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

    def read_rows(self, index: int, start: int, stop: int) -> np.ndarray:
        """Payload rows ``[start, stop)``, served from the buffered window.

        The merge consumes each run's payload as ascending contiguous
        ranges, so the window only ever grows forward; ranges the
        scheduler has not reached yet are read synchronously (a miss), in
        whole blocks, the unit the spill file verifies.
        """
        state = self._runs[index]
        if self._budget <= 0 or not state.active:
            return self._row_fetch(index, start, stop, self._stats)
        buffer = state.row_buffer
        while buffer and buffer[0][0] + len(buffer[0][1]) <= start:
            buffer.popleft()
        while state.row_delivered < stop and state.row_queue:
            lo, hi, future = state.row_queue.popleft()
            block = self._consume(future)
            buffer.append((lo, block))
            state.row_delivered = hi
        if state.row_delivered < stop:
            # Not read ahead: fetch the blocks the remainder lies in on
            # the critical path (rows below row_delivered are in the
            # window already, and reading them again would buffer them
            # twice).
            rows = self._block_rows
            lo = max(start - start % rows, state.row_delivered)
            hi = min(stop + (-stop % rows), state.num_rows)
            block = self._fetch_now(self._row_fetch, index, lo, hi)
            buffer.append((lo, block))
            state.row_delivered = hi
            state.row_submitted = max(state.row_submitted, hi)
        parts: list[np.ndarray] = []
        for lo, block in buffer:
            if lo >= stop:
                break
            a, b = max(start, lo), min(stop, lo + len(block))
            if b > a:
                parts.append(block[a - lo : b - lo])
        self._schedule()
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

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
            pending.extend(future for _, _, future in state.row_queue)
            state.key_queue.clear()
            state.row_queue.clear()
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
            block = self._fetch_now(self._key_fetch, index, start, stop)
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

    def _fetch_now(self, fetch, index: int, start: int, stop: int):
        """A miss: fetch on the consumer thread (timed as plain spill_io).

        Until reads prove slow no thread exists and every fetch comes
        through here: a block the page cache holds is a short read plus
        one CRC32, cheaper to take here than to hand to a thread.
        """
        stats = self._stats
        stats.prefetch_misses += 1
        before = stats.phase_seconds.get("spill_io", 0.0)
        result = fetch(index, start, stop, stats)
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
            payload = future.result()
        except BaseException as error:
            local = getattr(error, _STATS_ATTR, None)
            if local is not None:
                self._merge_local(local)
            raise
        self._merge_local(payload[-1])
        return payload[0]

    def _merge_local(self, local: SortStats) -> None:
        stats = self._stats
        stats.checksum_verifications += local.checksum_verifications
        stats.checksum_failures += local.checksum_failures
        for phase, seconds in local.phase_seconds.items():
            if phase == "spill_io":
                phase = "spill_io_overlap"
            stats.add_phase_seconds(phase, seconds)

    # ------------------------------------------------------------------ #
    # Scheduling (consumer thread only)
    # ------------------------------------------------------------------ #

    def _buffered_blocks(self) -> int:
        return self._outstanding + sum(
            len(state.row_buffer) for state in self._runs
        )

    def _schedule(self) -> None:
        if self._closed:
            return
        # A cancelled sort schedules nothing further: the merge raises
        # at its next checkpoint and the closing pool should not be
        # racing new reads against the spill files' removal.
        event = self._cancel_event
        if event is not None and event.is_set():
            return
        while self._pool and self._buffered_blocks() < self._budget:
            choice = self._pick()
            if choice is None:
                break
            index, kind = choice
            state = self._runs[index]
            if kind == "rows":
                lo = state.row_submitted
                hi = min(lo + self._block_rows, state.num_rows)
                future = self._pool.submit(
                    self._task, self._row_fetch, index, lo, hi
                )
                state.row_queue.append((lo, hi, future))
                state.row_submitted = hi
                self._outstanding += 1
            else:
                block = state.key_submitted
                lo = block * self._block_rows
                hi = min(lo + self._block_rows, state.num_rows)
                future = self._pool.submit(
                    self._task, self._key_fetch, index, lo, hi
                )
                state.key_queue.append(future)
                state.key_submitted = block + 1
                self._outstanding += 1
        peak = self._buffered_blocks()
        if peak > self._stats.prefetch_peak_blocks:
            self._stats.prefetch_peak_blocks = peak

    def _pick(self) -> tuple[int, str] | None:
        """The most urgent fetch to schedule, by the exhaustion forecast.

        Payload lagging behind delivered keys outranks key read-ahead
        (those rows are gathered *this* round, the next key block only
        at the next refill); within each class, runs are ordered by
        their last delivered tail key ascending -- the run at the global
        minimum (the merge's cutoff owner) drains first.
        """
        rows_lagging: list[int] = []
        keys_wanted: list[int] = []
        for index, state in enumerate(self._runs):
            if not state.active:
                continue
            if self._row_fetch is not None:
                delivered_rows = min(
                    state.key_delivered * self._block_rows, state.num_rows
                )
                queued = len(state.row_queue)
                if (
                    state.row_submitted < delivered_rows
                    and queued < self._depth
                ):
                    rows_lagging.append(index)
            if (
                state.key_submitted < state.key_blocks
                and len(state.key_queue) < self._depth
            ):
                keys_wanted.append(index)
        for candidates, kind in ((rows_lagging, "rows"), (keys_wanted, "keys")):
            if candidates:  # a run with no tail yet (None -> ()) first
                urgent = min(candidates, key=lambda i: self._runs[i].tail or ())
                return urgent, kind
        return None

    def _task(self, fetch, index: int, start: int, stop: int):
        local = SortStats()  # a worker's counters stay thread-private
        try:
            return fetch(index, start, stop, local), local
        except BaseException as error:
            setattr(error, _STATS_ATTR, local)
            raise
