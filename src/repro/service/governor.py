"""The global memory governor: byte grants arbitrating concurrent sorts.

Each external sort has a private degradation ladder, but without an
arbiter eight concurrent ORDER BYs would each buffer a full
``run_threshold`` of rows.  Polyntsov et al. (arXiv 2207.12713) frame
external-sort behavior as governed by the memory *grant*; this module is
that grant layer for the query service.

One :class:`MemoryGovernor` owns a fixed byte budget.  Each admitted
query acquires a :class:`MemoryGrant` before it executes; the governor
splits the budget fairly across the live grants, so admitting a new
query **revokes** part of every running query's grant -- the grant's
``granted_bytes`` simply shrinks, and because the external sort re-reads
``SortConfig.memory_grant.effective_run_threshold(...)`` at every sink
checkpoint, the revocation takes effect at the next buffered chunk: runs
are cut and spilled earlier.  (The in-memory operator has nothing to
give back -- cutting a resident run frees no memory -- and ignores the
grant.)  No operator blocks on the governor.

Admission blocks (bounded by a timeout) only when the budget cannot fit
another *minimum* grant; a timed-out acquire raises
:class:`repro.errors.ServiceOverloadError` with a retry-after estimate,
a cancelled one :class:`repro.errors.SortCancelledError`, and the first
moment an acquire starts waiting the ``on_starved`` hook fires so the
service can shed queued low-priority work.

Spill accounting rides the same object: operators report each written
run (its own bytes) via ``record_spill`` and the governor tracks the byte
high-watermark of concurrently live spill data
(``peak_concurrent_spill_bytes``), released when the grant is.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import ServiceError, ServiceOverloadError, SortCancelledError

__all__ = [
    "DEFAULT_MIN_GRANT_BYTES",
    "GovernorStats",
    "MemoryGrant",
    "MemoryGovernor",
]

DEFAULT_MIN_GRANT_BYTES = 64 << 10
"""Smallest useful grant: below this a sort would cut degenerate runs."""

_ROW_BYTES = 64
"""Assumed buffered bytes per row when translating a grant to rows."""

_STARVED_POLL_S = 0.05
"""How long one acquire wait slice lasts before re-checking the clock."""


@dataclass
class GovernorStats:
    """Counters the governor accumulates across its lifetime.

    ``grant_waits`` counts acquires that had to block at least once;
    ``grant_wait_s`` is their total blocked wall-clock.
    ``peak_concurrent_spill_bytes`` is the high-watermark of live spill
    file bytes across all concurrent grants (a grant's contribution is
    removed when it is released).  ``revocations`` counts share
    recomputations that shrank at least one live grant.
    """

    grants_issued: int = 0
    grant_waits: int = 0
    grant_wait_s: float = 0.0
    grant_timeouts: int = 0
    revocations: int = 0
    peak_active_grants: int = 0
    peak_concurrent_spill_bytes: int = 0


class MemoryGrant:
    """One query's slice of the governor's budget.

    The sort layer duck-types this object (``SortConfig.memory_grant``):
    it only calls :meth:`effective_run_threshold` and
    :meth:`record_spill`, so the sort package never imports the service
    package.  ``granted_bytes`` is read without the governor lock --
    it is a single int updated atomically under the lock; a sink
    checkpoint observing a stale value for one chunk is harmless, the
    next checkpoint sees the shrunk grant.
    """

    def __init__(self, governor: "MemoryGovernor", query_id: str) -> None:
        self.governor = governor
        self.query_id = query_id
        self.granted_bytes = 0
        self.spilled_bytes = 0
        self.released = False

    def effective_run_threshold(self, base_rows: int) -> int:
        """The grant translated to buffered rows, capped at ``base_rows``."""
        rows = self.granted_bytes // _ROW_BYTES
        return max(1, min(base_rows, rows))

    def record_spill(self, nbytes: int) -> None:
        self.governor._record_spill(self, nbytes)

    def release(self) -> None:
        self.governor.release(self)

    def __enter__(self) -> "MemoryGrant":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class MemoryGovernor:
    """Fair-share arbiter of one process-wide sort memory budget.

    ``budget_bytes / min_grant_bytes`` bounds how many grants can be
    live at once (every query must hold at least a minimum grant to make
    progress); within that bound the budget is split evenly, so every
    admission shrinks -- revokes -- the shares of the queries already
    running, and every release grows them back.  Thread-safe; all state
    is guarded by one condition variable.
    """

    def __init__(
        self,
        budget_bytes: int,
        min_grant_bytes: int = DEFAULT_MIN_GRANT_BYTES,
    ) -> None:
        if budget_bytes <= 0:
            raise ServiceError("memory budget must be positive")
        min_grant_bytes = max(1, min(min_grant_bytes, budget_bytes))
        self.budget_bytes = budget_bytes
        self.min_grant_bytes = min_grant_bytes
        self.max_active = max(1, budget_bytes // min_grant_bytes)
        self.stats = GovernorStats()
        self._cond = threading.Condition()
        self._active: list[MemoryGrant] = []
        self._spill_bytes = 0

    # ------------------------------------------------------------------ #
    # Acquire / release
    # ------------------------------------------------------------------ #

    @property
    def active_grants(self) -> int:
        with self._cond:
            return len(self._active)

    def acquire(
        self,
        query_id: str,
        timeout_s: float = 30.0,
        on_starved=None,
        cancel=None,
    ) -> MemoryGrant:
        """Block until a minimum grant fits, then return the new grant.

        Admission immediately recomputes fair shares, shrinking every
        already-live grant.  ``on_starved`` fires on every wait slice
        while this acquire is starved (the service sheds queued
        low-priority work on that signal -- shedding is idempotent, and
        re-firing catches low work queued *after* the starvation
        began); it runs under the governor lock and must not re-enter
        the governor.  A wait exceeding ``timeout_s`` raises
        :class:`ServiceOverloadError` whose ``retry_after_s`` estimates
        one grant-hold time; ``cancel`` (an object with ``is_set()``, the
        query's ticket) is read every wait slice, and once set the wait
        raises :class:`SortCancelledError`.
        """
        grant = MemoryGrant(self, query_id)
        deadline = time.monotonic() + max(0.0, timeout_s)
        waited = False
        started = time.monotonic()
        with self._cond:
            while len(self._active) >= self.max_active:
                if not waited:
                    waited = True
                    self.stats.grant_waits += 1
                if on_starved is not None:
                    on_starved()
                remaining = deadline - time.monotonic()
                stopped = cancel is not None and cancel.is_set()
                if remaining <= 0 or stopped:
                    self.stats.grant_wait_s += time.monotonic() - started
                    if stopped:
                        raise SortCancelledError(f"{query_id} cancelled")
                    self.stats.grant_timeouts += 1
                    raise ServiceOverloadError(
                        f"memory governor starved: {len(self._active)} "
                        f"grants hold the {self.budget_bytes}-byte budget "
                        f"(waited {timeout_s:.1f}s)",
                        retry_after_s=max(timeout_s, _STARVED_POLL_S),
                    )
                self._cond.wait(min(remaining, _STARVED_POLL_S))
            if waited:
                self.stats.grant_wait_s += time.monotonic() - started
            self._active.append(grant)
            self.stats.grants_issued += 1
            self.stats.peak_active_grants = max(
                self.stats.peak_active_grants, len(self._active)
            )
            self._rebalance()
        return grant

    def release(self, grant: MemoryGrant) -> None:
        """Return a grant's bytes to the pool; idempotent."""
        with self._cond:
            if grant.released:
                return
            grant.released = True
            grant.granted_bytes = 0
            self._spill_bytes -= grant.spilled_bytes
            grant.spilled_bytes = 0
            try:
                self._active.remove(grant)
            except ValueError:
                pass
            self._rebalance()
            self._cond.notify_all()

    def _rebalance(self) -> None:
        """Split the budget evenly over the live grants (lock held)."""
        if not self._active:
            return
        share = max(self.min_grant_bytes, self.budget_bytes // len(self._active))
        shrank = False
        for grant in self._active:
            if grant.granted_bytes > share:
                shrank = True
            grant.granted_bytes = share
        if shrank:
            self.stats.revocations += 1

    # ------------------------------------------------------------------ #
    # Spill accounting
    # ------------------------------------------------------------------ #

    def _record_spill(self, grant: MemoryGrant, nbytes: int) -> None:
        if nbytes <= 0:
            return
        with self._cond:
            if grant.released:
                return
            grant.spilled_bytes += nbytes
            self._spill_bytes += nbytes
            if self._spill_bytes > self.stats.peak_concurrent_spill_bytes:
                self.stats.peak_concurrent_spill_bytes = self._spill_bytes

    @property
    def concurrent_spill_bytes(self) -> int:
        with self._cond:
            return self._spill_bytes
