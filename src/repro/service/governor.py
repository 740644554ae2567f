"""The global memory governor: the sort budget, lent to one query at a time.

Each external sort has a private degradation ladder, but without an
arbiter eight concurrent ORDER BYs would each buffer a full
``run_threshold`` of rows.  Polyntsov et al. (arXiv 2207.12713) frame
external-sort behavior as governed by the memory *grant*; this module is
that grant layer for the query service.

One :class:`MemoryGovernor` owns a fixed byte budget and lends all of it
to one :class:`MemoryGrant` at a time: a query acquires the grant before
it executes and holds ``budget_bytes`` until it releases it.  The grant
never changes during its life, so the external sort's live run threshold
(``SortConfig.memory_grant.effective_run_threshold(...)``) -- and with it
every run cut and forced spill -- is a function of the budget alone, not
of which queries happened to overlap.  (The in-memory operator has
nothing to give back -- cutting a resident run frees no memory -- and
ignores the grant.)  No operator blocks on the governor.

Admission blocks (bounded by a timeout) while another query holds the
grant; a timed-out acquire raises
:class:`repro.errors.ServiceOverloadError` with a retry-after estimate,
a cancelled one :class:`repro.errors.SortCancelledError`.

Spill accounting rides the same object: operators report each written
run (its own bytes) via ``record_spill`` and the governor tracks the byte
high-watermark of one grant's live spill data
(``peak_concurrent_spill_bytes``), released when the grant is.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.errors import ServiceError, ServiceOverloadError, SortCancelledError

__all__ = [
    "GovernorStats",
    "MemoryGrant",
    "MemoryGovernor",
]

_ROW_BYTES = 64
"""Assumed buffered bytes per row when translating a grant to rows."""

_WAIT_SLICE_S = 0.05
"""How long one acquire wait slice lasts before re-checking the clock."""


@dataclass
class GovernorStats:
    """Counters the governor accumulates across its lifetime.

    ``grant_waits`` counts acquires that had to block at least once;
    ``grant_wait_s`` is their total blocked wall-clock.
    ``peak_concurrent_spill_bytes`` is the high-watermark of the live
    spill file bytes of the grant held at the time.
    """

    grants_issued: int = 0
    grant_waits: int = 0
    grant_wait_s: float = 0.0
    grant_timeouts: int = 0
    peak_concurrent_spill_bytes: int = 0


class MemoryGrant:
    """One query's hold on the governor's whole budget.

    The sort layer duck-types this object (``SortConfig.memory_grant``):
    it only calls :meth:`effective_run_threshold` and
    :meth:`record_spill`, so the sort package never imports the service
    package.
    """

    def __init__(self, governor: "MemoryGovernor", query_id: str) -> None:
        self.governor = governor
        self.query_id = query_id
        self.granted_bytes = governor.budget_bytes
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
    """Lender of one process-wide sort memory budget, one grant at a time.

    Thread-safe; all state is guarded by one condition variable.
    """

    def __init__(self, budget_bytes: int) -> None:
        if budget_bytes <= 0:
            raise ServiceError("memory budget must be positive")
        self.budget_bytes = budget_bytes
        self.stats = GovernorStats()
        self._cond = threading.Condition()
        self._holder: MemoryGrant | None = None

    # ------------------------------------------------------------------ #
    # Acquire / release
    # ------------------------------------------------------------------ #

    @property
    def active_grants(self) -> int:
        with self._cond:
            return int(self._holder is not None)

    def acquire(
        self,
        query_id: str,
        timeout_s: float = 30.0,
        cancel=None,
    ) -> MemoryGrant:
        """Block until no other grant is held, then return the new grant.

        A wait exceeding ``timeout_s`` raises
        :class:`ServiceOverloadError` whose ``retry_after_s`` estimates
        one grant-hold time; ``cancel`` (an object with ``is_set()``, the
        query's ticket) is read every wait slice, and once set the wait
        raises :class:`SortCancelledError`.
        """
        deadline = time.monotonic() + max(0.0, timeout_s)
        waited = False
        started = time.monotonic()
        with self._cond:
            while self._holder is not None:
                if not waited:
                    waited = True
                    self.stats.grant_waits += 1
                remaining = deadline - time.monotonic()
                stopped = cancel is not None and cancel.is_set()
                if remaining <= 0 or stopped:
                    self.stats.grant_wait_s += time.monotonic() - started
                    if stopped:
                        raise SortCancelledError(f"{query_id} cancelled")
                    self.stats.grant_timeouts += 1
                    raise ServiceOverloadError(
                        f"memory governor busy: {self._holder.query_id} "
                        f"holds the {self.budget_bytes}-byte budget "
                        f"(waited {timeout_s:.1f}s)",
                        retry_after_s=max(timeout_s, _WAIT_SLICE_S),
                    )
                self._cond.wait(min(remaining, _WAIT_SLICE_S))
            if waited:
                self.stats.grant_wait_s += time.monotonic() - started
            self._holder = MemoryGrant(self, query_id)
            self.stats.grants_issued += 1
            return self._holder

    def release(self, grant: MemoryGrant) -> None:
        """Return the budget to the pool; idempotent."""
        with self._cond:
            if grant.released:
                return
            grant.released = True
            grant.granted_bytes = 0
            if self._holder is grant:
                self._holder = None
            self._cond.notify_all()

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
            self.stats.peak_concurrent_spill_bytes = max(
                self.stats.peak_concurrent_spill_bytes, grant.spilled_bytes
            )

    @property
    def concurrent_spill_bytes(self) -> int:
        """The live spill bytes of the grant held now (0 when none is)."""
        with self._cond:
            return 0 if self._holder is None else self._holder.spilled_bytes
