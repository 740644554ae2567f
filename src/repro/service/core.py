"""The concurrent sort service: thread pool, admission control, deadlines.

A :class:`SortService` wraps one :class:`repro.engine.Database` behind a
pool of worker threads that parse, plan and answer cached ORDER BY /
Top-N / window queries side by side, while a
:class:`repro.service.governor.MemoryGovernor` lends the whole
process-wide sort memory budget to one executing query at a time.

The request lifecycle::

    submit() -> [bounded queue, priority-ordered] -> worker picks ticket
        -> parse the SQL once; Database.plan binds and optimizes the
           statement
        -> result cache probe on (statement, table versions) (hit: done)
        -> governor grant acquire if the database's sorts may spill (may
           wait until the deadline)
        -> Database.execute_bound(plan) under a per-query SortConfig
           whose cancel_event is the ticket itself, plus the memory grant
        -> result cached, complete (result / typed error), grant
           released

Admission control is explicit and typed: a full queue either sheds the
lowest-priority queued ticket (when the newcomer outranks it) or rejects
the newcomer with :class:`repro.errors.ServiceOverloadError` carrying a
retry-after estimate.  Nothing waits unbounded and nothing OOMs
silently: under overload queries wait their turn for the budget, then
fail typed, the robustness posture of Do & Graefe (arXiv 2209.08420).

Cancellation and deadlines use cooperative checkpoints: the ticket is
the per-query ``SortConfig.cancel_event``, and its ``is_set()`` is true
once it is cancelled or past its deadline.  The grant wait reads it
every wait slice, the sort at sink, run generation, merge rounds and
prefetch scheduling; the operator's ``finally`` paths remove every spill
file and join every helper thread, and the worker releases the grant.
No thread times a deadline: an uncancelled ticket past its deadline
whose grant wait or sort stops fails with
:class:`repro.errors.QueryTimeoutError`.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass
from enum import IntEnum

from repro.engine.database import Database
from repro.engine.parser import parse
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadError,
    ServiceShutdownError,
    SortCancelledError,
)
from repro.service.cache import ResultCache
from repro.service.governor import MemoryGovernor
from repro.sort.incremental import DEFAULT_COMPACT_THRESHOLD, IncrementalSorter
from repro.sort.operator import PhaseClock, SortConfig
from repro.table.table import Table

__all__ = [
    "Priority",
    "QueryTicket",
    "ServiceStats",
    "SortService",
]

_THREAD_PREFIX = "repro-service"
"""Name prefix of every thread the service creates (its workers) -- the
test suite's leak guard asserts none survive shutdown."""


class Priority(IntEnum):
    """Admission priority class; higher values outrank lower ones."""

    LOW = 0
    NORMAL = 1
    HIGH = 2


@dataclass
class ServiceStats:
    """Service-level counters (one snapshot; see ``SortService.stats``).

    ``admitted`` counts tickets accepted into the queue; ``rejected``
    tickets refused at the door (queue full, no shed candidate);
    ``shed`` queued tickets evicted to make room for higher-priority
    work; ``cancelled`` tickets aborted by the caller;
    ``timed_out`` tickets whose deadline passed during the grant wait
    or the sort.
    ``governor_forced_spills`` sums the per-query
    ``SortStats.governor_forced_spills`` of completed queries, and
    ``sorts_elided`` / ``sorts_subsumed`` likewise sum the planner's
    order-propagation savings (sorts skipped because their order was
    already provided).  Grant and spill watermarks come from the
    governor, cache hit counters from the result cache --
    ``cache_prefix_hits`` counts exact misses answered by slicing the
    same statement's cached result without its LIMIT/OFFSET (each also
    counts under ``cache_misses``).  ``view_deltas`` /
    ``view_snapshots`` count completed maintenance operations on
    incremental sorted views (:meth:`SortService.append_delta` /
    :meth:`~SortService.view_snapshot`); both also count under
    ``completed``.
    """

    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    cancelled: int = 0
    timed_out: int = 0
    completed: int = 0
    failed: int = 0
    view_deltas: int = 0
    view_snapshots: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_prefix_hits: int = 0
    sorts_elided: int = 0
    sorts_subsumed: int = 0
    grant_waits: int = 0
    grant_wait_s: float = 0.0
    peak_concurrent_spill_bytes: int = 0
    governor_forced_spills: int = 0
    queue_peak: int = 0


class QueryTicket(PhaseClock):
    """One submitted query: a future plus its cancellation checkpoint.

    ``result(timeout=None)`` blocks for the outcome and re-raises the
    query's typed error (``ServiceOverloadError`` when shed,
    ``QueryTimeoutError`` on deadline expiry, ``SortCancelledError``
    after ``cancel()``, or whatever the engine raised).  ``cancel()``
    is safe from any thread at any time: a queued ticket completes
    cancelled without running; a running ticket aborts at the sort's
    next cooperative checkpoint, where the sort asks :meth:`is_set`.
    ``seq`` is the ticket's admission number: FIFO order within a
    priority class.

    A maintenance ticket (an incremental-view append or snapshot)
    carries its ``work`` as a callable of the per-query ``SortConfig``;
    its ``sql`` is only a label.  Once done, its ``phase_seconds`` hold
    its ``queue`` and ``grant`` waits and the rest, ``execute``.
    """

    def __init__(
        self,
        seq: int,
        sql: str,
        priority: Priority,
        deadline_s: float | None,
        work=None,
    ) -> None:
        self.seq = seq
        self.query_id = f"q{seq:06d}"
        self.sql = sql
        self.priority = Priority(priority)
        self.deadline_s = deadline_s
        self.submitted_at = time.monotonic()
        self.sort_stats: list = []
        self.from_cache = False
        self._work = work
        self._cancelled = False
        self._done = threading.Event()
        self._result: Table | None = None
        self._error: BaseException | None = None
        self.phase_seconds: dict[str, float] = {}
        PhaseClock.__post_init__(self)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def expired(self) -> bool:
        """Past its deadline (a ticket without one never expires)."""
        return self.deadline_s is not None and (
            time.monotonic() - self.submitted_at >= self.deadline_s
        )

    def is_set(self) -> bool:
        """The sort's checkpoint: cancelled, or past the deadline."""
        return self._cancelled or self.expired

    def result(self, timeout: float | None = None) -> Table:
        error = self.exception(timeout)
        if error is not None:
            raise error
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._done.wait(timeout):
            raise ServiceError(
                f"query {self.query_id} still running after {timeout}s"
            )
        return self._error

    def _complete(self, result: Table) -> None:
        self._result = result
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._done.set()


class _MaintainedView:
    """One incremental sorted view: its sorter plus a maintenance lock.

    The lock serializes appends, compactions, and snapshots -- the
    service may run maintenance tickets for the same view on different
    workers, and :class:`IncrementalSorter` is not thread-safe.
    """

    __slots__ = ("name", "sorter", "lock")

    def __init__(self, name: str, sorter: IncrementalSorter) -> None:
        self.name = name
        self.sorter = sorter
        self.lock = threading.Lock()


class SortService:
    """Thread-pool query service over one :class:`Database`.

    ``memory_budget`` bytes are lent whole to one query's sort at a time
    (see :class:`MemoryGovernor`) when the database's sorts may spill;
    ``queue_limit`` bounds queued-but-not-running tickets; ``workers``
    threads parse, plan and serve cache hits side by side and take turns
    on the grant, if there is one, to execute.
    ``min_grant_bytes`` is accepted only because the end-to-end
    benchmark's settings pass it, and has no effect (ROADMAP item A's
    benchmark change removes it).  Use as a context manager, or call
    :meth:`shutdown` -- every worker thread is joined on the way out.
    """

    def __init__(
        self,
        database: Database,
        memory_budget: int,
        workers: int = 4,
        queue_limit: int = 32,
        cache_capacity: int = 32,
        admission_timeout_s: float = 30.0,
        min_grant_bytes: int | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError("workers must be at least 1")
        if queue_limit < 1:
            raise ServiceError("queue_limit must be at least 1")
        self.database = database
        self.governor = MemoryGovernor(memory_budget)
        self.cache = ResultCache(cache_capacity)
        self.queue_limit = queue_limit
        self.admission_timeout_s = admission_timeout_s
        self._stats = ServiceStats()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._queue: list[QueryTicket] = []
        self._views: dict[str, _MaintainedView] = {}
        self._seq = itertools.count()  # admission order, under the lock
        self._shutdown = False
        self._latency_ewma = 0.1  # retry-after seed, updated per query
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"{_THREAD_PREFIX}-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def shutdown(self) -> None:
        """Stop admitting, fail queued tickets, join every worker."""
        with self._work:
            if self._shutdown:
                pending: list[QueryTicket] = []
            else:
                self._shutdown = True
                pending = list(self._queue)
                self._queue.clear()
            self._work.notify_all()
        for ticket in pending:
            ticket._fail(
                ServiceShutdownError(
                    f"service shut down before query {ticket.query_id} ran"
                )
            )
        for thread in self._workers:
            thread.join()

    # ------------------------------------------------------------------ #
    # Submission / admission control
    # ------------------------------------------------------------------ #

    def submit(
        self,
        sql: str,
        priority: Priority = Priority.NORMAL,
        deadline_s: float | None = None,
    ) -> QueryTicket:
        """Admit a query (or raise :class:`ServiceOverloadError`).

        A full queue is resolved by rank: if some queued ticket has a
        strictly lower priority than the newcomer, the *lowest* such
        ticket is shed (completed with a ``shed=True`` overload error)
        and the newcomer takes its place; otherwise the newcomer is
        rejected with a retry-after estimated from recent query latency.
        """
        return self._admit(sql, priority, deadline_s, None)

    def _admit(
        self,
        sql: str,
        priority: Priority,
        deadline_s: float | None,
        work,
    ) -> QueryTicket:
        """Build a ticket whole, then enqueue it under the queue rules.

        A maintenance ticket carries its ``work`` from construction, so
        no worker can dequeue it as SQL.
        """
        shed_ticket: QueryTicket | None = None
        with self._work:
            if self._shutdown:
                raise ServiceShutdownError("service is shut down")
            ticket = QueryTicket(
                next(self._seq), sql, priority, deadline_s, work
            )
            if len(self._queue) >= self.queue_limit:
                # The shed candidate: lowest priority, then newest.
                victim = min(self._queue, key=lambda t: (t.priority, -t.seq))
                if victim.priority >= ticket.priority:
                    self._stats.rejected += 1
                    raise ServiceOverloadError(
                        f"admission queue full ({self.queue_limit} queued)",
                        retry_after_s=self._retry_after(),
                    )
                self._queue.remove(victim)
                self._stats.shed += 1
                shed_ticket = victim
            self._queue.append(ticket)
            self._stats.admitted += 1
            self._stats.queue_peak = max(
                self._stats.queue_peak, len(self._queue)
            )
            self._work.notify()
        if shed_ticket is not None:
            shed_ticket._fail(
                ServiceOverloadError(
                    f"query {shed_ticket.query_id} shed for higher "
                    "priority work",
                    retry_after_s=self._retry_after(),
                    shed=True,
                )
            )
        return ticket

    def execute(
        self,
        sql: str,
        priority: Priority = Priority.NORMAL,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> Table:
        """Submit and wait: the one-call blocking entry point."""
        return self.submit(sql, priority, deadline_s).result(timeout)

    # ------------------------------------------------------------------ #
    # Incremental sorted views (the continuously-serving workload)
    # ------------------------------------------------------------------ #

    def maintain_view(
        self,
        name: str,
        table: str,
        order_by: str,
        compact_threshold: int = DEFAULT_COMPACT_THRESHOLD,
    ) -> None:
        """Start maintaining a sorted view over deltas for ``table``.

        The view begins empty and is fed by :meth:`append_delta`; its
        schema comes from the registered ``table``.  Maintenance runs as
        ordinary tickets on the worker pool: appends and snapshots queue
        behind queries, acquire a governor grant while they merge if the
        database's sorts may spill, honor deadlines/cancellation through
        the sorter's cooperative checkpoints, and are serialized per view.
        """
        schema = self.database.table(table).schema
        sorter = IncrementalSorter(
            schema,
            order_by,
            config=self.database.sort_config,
            compact_threshold=compact_threshold,
        )
        with self._lock:
            if name in self._views:
                raise ServiceError(f"view {name!r} is already maintained")
            self._views[name] = _MaintainedView(name, sorter)

    def _view(self, name: str) -> "_MaintainedView":
        with self._lock:
            try:
                return self._views[name]
            except KeyError:
                raise ServiceError(f"no maintained view {name!r}") from None

    def append_delta(
        self,
        name: str,
        delta: Table,
        priority: Priority = Priority.NORMAL,
        deadline_s: float | None = None,
    ) -> QueryTicket:
        """Queue one arriving batch for a maintained view.

        The returned ticket completes with the delta once it is merged
        into the view (so ``result()`` doubles as a write barrier);
        admission control, shedding, deadlines, and cancellation apply
        exactly as for queries.  Workers dequeue appends FIFO within a
        priority class, but with several workers two appends to one
        view can race to the view lock -- equal-key tie order then
        depends on application order.  When arrival order must be
        deterministic (e.g. byte identity with a one-shot sort), wait
        on each append's ``result()`` before submitting the next, or
        run a single-worker service.
        """
        view = self._view(name)

        def work(config: SortConfig) -> Table:
            with view.lock:
                previous = view.sorter.config
                view.sorter.config = config
                try:
                    view.sorter.insert(delta)
                finally:
                    view.sorter.config = previous
            with self._lock:
                self._stats.view_deltas += 1
            return delta

        return self._admit(f"@view-append {name}", priority, deadline_s, work)

    def view_snapshot(
        self,
        name: str,
        priority: Priority = Priority.NORMAL,
        deadline_s: float | None = None,
    ) -> QueryTicket:
        """Queue a read of a maintained view's current sorted state.

        The ticket completes with the sorted :class:`Table` covering
        every delta whose append ticket ran before this one (compaction
        and, for long strings, exact-order refinement happen here if
        pending -- repeat snapshots of an unchanged view are served from
        the sorter's cache).
        """
        view = self._view(name)

        def work(config: SortConfig) -> Table:
            with view.lock:
                previous = view.sorter.config
                view.sorter.config = config
                try:
                    result = view.sorter.view()
                finally:
                    view.sorter.config = previous
            with self._lock:
                self._stats.view_snapshots += 1
            return result

        return self._admit(
            f"@view-snapshot {name}", priority, deadline_s, work
        )

    def publish_view(
        self,
        name: str,
        priority: Priority = Priority.NORMAL,
        deadline_s: float | None = None,
        timeout: float | None = None,
    ) -> Table:
        """Snapshot a maintained view into the database catalog.

        Takes a :meth:`view_snapshot` (exact sorted order), registers
        the result as table ``name``, and declares its ordering via
        :meth:`repro.engine.database.Database.declare_ordering` -- so
        subsequent queries over the published view get planner-level
        sort elision and subsumption.  Blocks for the snapshot; returns
        the published table.
        """
        view = self._view(name)
        table = self.view_snapshot(name, priority, deadline_s).result(timeout)
        self.database.register(name, table)
        self.database.declare_ordering(name, view.sorter.spec)
        return table

    def view_stats(self, name: str):
        """The view's :class:`repro.sort.incremental.IncrementalStats`."""
        return self._view(name).sorter.stats

    def _retry_after(self) -> float:
        return max(0.05, 2.0 * self._latency_ewma)

    # ------------------------------------------------------------------ #
    # Worker loop
    # ------------------------------------------------------------------ #

    def _next_ticket(self) -> QueryTicket | None:
        with self._work:
            while not self._queue and not self._shutdown:
                self._work.wait()
            if not self._queue:
                return None
            ticket = max(self._queue, key=lambda t: (t.priority, -t.seq))
            self._queue.remove(ticket)
            return ticket

    def _worker_loop(self) -> None:
        while True:
            ticket = self._next_ticket()
            if ticket is None:
                return
            try:
                self._run_ticket(ticket)
            except BaseException as error:  # never kill the worker
                if not ticket.done:
                    ticket._fail(error)

    def _run_ticket(self, ticket: QueryTicket) -> None:
        ticket.add_phase_seconds("queue", time.monotonic() - ticket.submitted_at)
        try:
            with ticket.time_phase("execute"):
                result = self._answer(ticket)
        except BaseException as error:
            self._finish_error(ticket, error)
            return
        if not ticket.from_cache:
            self._observe_latency(ticket)
        with self._lock:
            self._stats.completed += 1
            for stats in ticket.sort_stats:
                self._stats.governor_forced_spills += (
                    stats.governor_forced_spills
                )
                self._stats.sorts_elided += stats.sorts_elided
                self._stats.sorts_subsumed += stats.sorts_subsumed
        ticket._complete(result)

    def _answer(self, ticket: QueryTicket) -> Table:
        if ticket.cancelled:
            raise SortCancelledError(
                f"query {ticket.query_id} cancelled before it ran"
            )
        if ticket._work is not None:
            # Maintenance work (incremental-view appends/snapshots) has
            # no SQL plan and never touches the result cache -- a view is
            # its own versioned state.
            return self._run_query(ticket, None)
        statement = parse(ticket.sql)
        plan = self.database.plan(statement)
        versions = tuple(
            (name, self.database.table_version(name))
            for name in self.database.referenced_tables(plan)
        )
        result = self.cache.get(statement, versions)
        ticket.from_cache = result is not None
        if result is None:
            result = self._run_query(ticket, plan)
            self.cache.put(statement, versions, result)
        return result

    def _run_query(self, ticket: QueryTicket, plan) -> Table:
        """Grant (only a sort that may spill reads one) -> execute with the
        ticket as the sort's checkpoint; always releases the grant."""
        grant = None
        if self.database.sort_config.external:
            timeout = self.admission_timeout_s
            if ticket.deadline_s is not None:
                elapsed = time.monotonic() - ticket.submitted_at
                timeout = min(timeout, max(0.0, ticket.deadline_s - elapsed))
            with ticket.time_phase("grant"):
                grant = self.governor.acquire(
                    ticket.query_id, timeout_s=timeout, cancel=ticket
                )
        try:
            if ticket.is_set():
                raise SortCancelledError(
                    f"query {ticket.query_id} stopped before it ran"
                )
            config = dataclasses.replace(
                self.database.sort_config,
                cancel_event=ticket,
                memory_grant=grant,
            )
            if ticket._work is not None:
                return ticket._work(config)
            result, ticket.sort_stats = self.database.execute_bound(
                plan, config
            )
            return result
        finally:
            if grant is not None:
                grant.release()

    def _finish_error(self, ticket: QueryTicket, error: BaseException) -> None:
        """Count and deliver a failure.  A grant wait or sort checkpoint
        that an uncancelled ticket's deadline stopped is a timeout."""
        stopped = isinstance(error, (SortCancelledError, ServiceOverloadError))
        if stopped and not ticket.cancelled and ticket.expired:
            error = QueryTimeoutError(
                f"query {ticket.query_id} exceeded its "
                f"{ticket.deadline_s}s deadline"
            )
        with self._lock:
            if isinstance(error, QueryTimeoutError):
                self._stats.timed_out += 1
            elif isinstance(error, SortCancelledError):
                self._stats.cancelled += 1
            else:
                self._stats.failed += 1
        ticket._fail(error)

    def _observe_latency(self, ticket: QueryTicket) -> None:
        phases = ticket.phase_seconds
        seconds = phases.get("grant", 0.0) + phases["execute"]
        with self._lock:
            self._latency_ewma = 0.8 * self._latency_ewma + 0.2 * seconds

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def stats(self) -> ServiceStats:
        """A merged snapshot of service, governor, and cache counters."""
        with self._lock:
            snapshot = dataclasses.replace(self._stats)
        gov = self.governor.stats
        snapshot.grant_waits = gov.grant_waits
        snapshot.grant_wait_s = gov.grant_wait_s
        snapshot.peak_concurrent_spill_bytes = (
            gov.peak_concurrent_spill_bytes
        )
        snapshot.cache_hits = self.cache.hits
        snapshot.cache_misses = self.cache.misses
        snapshot.cache_prefix_hits = self.cache.prefix_hits
        return snapshot
