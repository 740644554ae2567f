"""The concurrent query service: governor, admission, cancellation, cache.

The acceptance bar mirrors the robustness posture of the service layer:
under a memory budget lent to one query at a time, eight external
sorts submitted at once must all complete byte-identical to their
serial runs with the governor's forced spills visible in stats; a deliberately overloaded
service must reject or shed with typed errors instead of OOMing or
deadlocking; and no outcome -- completion, cancellation, timeout,
shedding -- may leak a grant, a spill file, or a thread.
"""

from __future__ import annotations

import glob
import os
import random
import tempfile
import threading
import time

import numpy as np
import pytest

from test_external_kway import assert_byte_identical, mixed_table
from repro.engine import Database
from repro.engine.parser import parse, tokenize
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
    ServiceOverloadError,
    ServiceShutdownError,
    SortCancelledError,
)
from repro.service import (
    MemoryGovernor,
    Priority,
    ResultCache,
    SortService,
)
from repro.sort.faults import SpillIO
from repro.sort.operator import SortConfig
from repro.table.table import Table
from repro.workloads.scenarios import SCENARIOS


def spill_dirs() -> set:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*")))


def service_threads() -> list:
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-service", "spill-prefetch"))
    ]


def int_table(rng, n: int) -> Table:
    return Table.from_pydict(
        {
            "a": [int(v) for v in rng.integers(0, 10_000, n)],
            "b": [int(v) for v in rng.integers(0, 50, n)],
            "seq": list(range(n)),
        }
    )


class GatedDatabase(Database):
    """A database whose query execution blocks until a gate opens.

    Lets admission tests fill the queue deterministically: the single
    worker parks inside ``execute_bound`` while the test submits, then
    the gate opens and everything drains.
    """

    def __init__(self, sort_config=None):
        super().__init__(sort_config)
        self.gate = threading.Event()
        self.entered = threading.Event()  # set once a worker reaches the gate

    def execute_bound(self, logical, sort_config=None):
        self.entered.set()
        self.gate.wait(timeout=30)
        return super().execute_bound(logical, sort_config)


# --------------------------------------------------------------------- #
# Governor unit tests
# --------------------------------------------------------------------- #


class TestMemoryGovernor:
    def test_single_grant_gets_full_budget(self):
        governor = MemoryGovernor(1 << 20)
        with governor.acquire("q1") as grant:
            assert grant.granted_bytes == 1 << 20
        assert governor.active_grants == 0

    def test_grant_to_rows_translation(self):
        governor = MemoryGovernor(1 << 20)
        with governor.acquire("q1") as grant:
            assert grant.effective_run_threshold(10 ** 9) == (1 << 20) // 64
            # Capped at the configured base, floored at one row.
            assert grant.effective_run_threshold(100) == 100
            grant.granted_bytes = 0
            assert grant.effective_run_threshold(100) == 1

    def test_acquire_blocks_then_times_out_typed(self):
        governor = MemoryGovernor(128 << 10)
        holder = governor.acquire("q1")
        with pytest.raises(ServiceOverloadError) as info:
            governor.acquire("q2", timeout_s=0.15)
        assert info.value.retry_after_s > 0
        # The holder's grant never shrinks while another query waits.
        assert holder.granted_bytes == 128 << 10
        assert governor.stats.grant_timeouts == 1
        assert governor.stats.grant_waits == 1  # one acquire, counted once
        holder.release()
        # The budget is free again: acquire succeeds immediately.
        governor.acquire("q3", timeout_s=0.1).release()

    def test_release_unblocks_waiter(self):
        governor = MemoryGovernor(128 << 10)
        holder = governor.acquire("q1")
        got = []

        def waiter():
            grant = governor.acquire("q2", timeout_s=5.0)
            got.append(grant)
            grant.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        holder.release()
        thread.join(timeout=5)
        assert len(got) == 1
        assert governor.stats.grant_wait_s > 0

    def test_spill_accounting_high_watermark(self):
        governor = MemoryGovernor(1 << 20)
        first = governor.acquire("q1")
        first.record_spill(1000)
        first.record_spill(500)
        assert governor.concurrent_spill_bytes == 1500
        first.release()
        assert governor.concurrent_spill_bytes == 0
        first.record_spill(300)  # a released grant records nothing
        second = governor.acquire("q2")
        second.record_spill(200)
        assert governor.concurrent_spill_bytes == 200
        second.release()
        assert governor.concurrent_spill_bytes == 0
        assert governor.stats.peak_concurrent_spill_bytes == 1500

    def test_release_is_idempotent(self):
        governor = MemoryGovernor(1 << 20)
        grant = governor.acquire("q1")
        grant.release()
        grant.release()
        assert governor.active_grants == 0
        assert governor.stats.grants_issued == 1

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ServiceError):
            MemoryGovernor(0)


# --------------------------------------------------------------------- #
# Result cache unit tests
# --------------------------------------------------------------------- #


class TestResultCache:
    def test_key_normalizes_whitespace(self, rng):
        """Whitespace and keyword case are gone once the SQL is parsed."""
        cache = ResultCache()
        table = int_table(rng, 4)
        versions = (("t", 1),)
        cache.put(parse("SELECT  *\nFROM t   ORDER BY a"), versions, table)
        assert cache.get(parse("select * from t order by a"), versions) is (
            table
        )
        assert len(cache) == 1

    def test_version_bump_changes_key(self, rng):
        cache = ResultCache()
        statement = parse("SELECT * FROM t ORDER BY a")
        cache.put(statement, (("t", 1),), int_table(rng, 4))
        assert cache.get(statement, (("t", 2),)) is None
        assert cache.hits == 0 and cache.misses == 1

    def test_lru_eviction(self, rng):
        cache = ResultCache(capacity=2)
        tables = [int_table(rng, 4) for _ in range(3)]
        statements = [parse(f"SELECT * FROM t{i}") for i in range(3)]
        cache.put(statements[0], (), tables[0])
        cache.put(statements[1], (), tables[1])
        assert cache.get(statements[0], ()) is tables[0]  # refresh 0
        cache.put(statements[2], (), tables[2])  # evicts 1, the LRU
        assert cache.get(statements[1], ()) is None
        assert cache.get(statements[0], ()) is tables[0]
        assert cache.get(statements[2], ()) is tables[2]
        assert cache.hits == 3 and cache.misses == 1

    def test_zero_capacity_disables(self, rng):
        cache = ResultCache(capacity=0)
        statement = parse("SELECT * FROM t")
        cache.put(statement, (), int_table(rng, 2))
        assert cache.get(statement, ()) is None
        assert len(cache) == 0


# --------------------------------------------------------------------- #
# Service basics: results, cache wiring, lifecycle
# --------------------------------------------------------------------- #


class TestServiceBasics:
    def test_matches_serial_execution(self, rng):
        db = Database()
        db.register("t", int_table(rng, 3000))
        expected = db.execute("SELECT * FROM t ORDER BY a, seq")
        with SortService(db, memory_budget=4 << 20, workers=2) as service:
            result = service.execute("SELECT * FROM t ORDER BY a, seq")
        assert_byte_identical(result, expected)

    def test_topn_and_group_by_run_through_service(self, rng):
        db = Database()
        db.register("t", int_table(rng, 3000))
        with SortService(db, memory_budget=4 << 20, workers=2) as service:
            topn = service.execute(
                "SELECT a, seq FROM t ORDER BY a DESC LIMIT 7"
            )
            grouped = service.execute(
                "SELECT b, count(*) FROM t GROUP BY b"
            )
        assert topn.num_rows == 7
        assert grouped.num_rows == 50

    def test_cache_hit_and_invalidation_on_register(self, rng):
        db = Database()
        db.register("t", int_table(rng, 2000))
        sql = "SELECT * FROM t ORDER BY a, seq"
        with SortService(db, memory_budget=4 << 20, workers=2) as service:
            first = service.submit(sql)
            first.result(timeout=30)
            assert not first.from_cache
            again = service.submit("SELECT  *  FROM t ORDER BY a, seq")
            again.result(timeout=30)
            assert again.from_cache  # whitespace-normalized key matched
            assert again.result(timeout=1) is first.result(timeout=1)

            # A write bumps the table version: the cached entry's key is
            # never asked for again.
            replacement = int_table(rng, 500)
            db.register("t", replacement)
            fresh = service.submit(sql)
            result = fresh.result(timeout=30)
            assert not fresh.from_cache
            assert result.num_rows == 500
            stats = service.stats
            assert stats.cache_hits == 1
            assert stats.cache_misses == 2

    def test_shutdown_fails_queued_and_refuses_new(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        service = SortService(
            db, memory_budget=4 << 20, workers=1, queue_limit=8
        )
        running = service.submit("SELECT * FROM t ORDER BY a")
        assert db.entered.wait(5)  # the worker holds it at the gate
        queued = [
            service.submit("SELECT * FROM t ORDER BY seq") for _ in range(3)
        ]
        db.gate.set()
        service.shutdown()
        running.result(timeout=30)  # the in-flight query still finishes
        for ticket in queued[-2:]:  # the tail of the queue never ran
            if ticket.exception() is not None:
                assert isinstance(ticket.exception(), ServiceShutdownError)
        with pytest.raises(ServiceShutdownError):
            service.submit("SELECT * FROM t ORDER BY a")
        assert not service_threads()

    def test_result_timeout_is_typed(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(db, memory_budget=4 << 20, workers=1) as service:
            ticket = service.submit("SELECT * FROM t ORDER BY a")
            with pytest.raises(ServiceError):
                ticket.result(timeout=0.05)
            db.gate.set()
            ticket.result(timeout=30)

    def test_maintenance_ticket_never_runs_as_sql(self, rng):
        """A view append is whole when a worker can first dequeue it."""

        class SlowSubmitService(SortService):
            def submit(self, *args, **kwargs):
                ticket = super().submit(*args, **kwargs)
                time.sleep(0.05)  # a worker dequeues the ticket meanwhile
                return ticket

        db = Database()
        delta = int_table(rng, 200)
        db.register("t", delta)
        with SlowSubmitService(
            db, memory_budget=4 << 20, workers=1
        ) as service:
            service.maintain_view("v", "t", "a, seq")
            assert service.append_delta("v", delta).result(timeout=30) is (
                delta
            )
            snapshot = service.view_snapshot("v").result(timeout=30)
            stats = service.stats
        assert snapshot.equals(db.execute("SELECT * FROM t ORDER BY a, seq"))
        assert stats.view_deltas == 1 and stats.failed == 0


# --------------------------------------------------------------------- #
# One answer: every cached answer is Database.execute's answer
# --------------------------------------------------------------------- #


class TestCachedAnswers:
    def test_literal_type_is_part_of_the_key(self):
        """``a > 2**60`` and ``a > 2**60.0`` are two queries: a float
        literal compares the int64 column in float64."""
        db = Database()
        db.register("t", Table.from_pydict({"a": [2**60, 2**60 + 1]}))
        queries = [
            f"SELECT * FROM t WHERE a > {2**60} ORDER BY a",
            f"SELECT * FROM t WHERE a > {2**60}.0 ORDER BY a",
        ]
        with SortService(db, memory_budget=4 << 20, workers=1) as service:
            served = [service.execute(sql, timeout=30) for sql in queries]
            stats = service.stats
        for sql, result in zip(queries, served):
            assert result.equals(db.execute(sql)), sql
        assert [result.num_rows for result in served] == [1, 0]
        assert stats.cache_hits == 0 and stats.cache_prefix_hits == 0

    def test_each_query_tokenizes_once(self, rng, monkeypatch):
        """An uncached query, a sliced LIMIT and an exact hit each run
        the tokenizer once: the service parses and hands the statement
        to ``Database.plan``."""
        calls = []

        def counting(sql):
            calls.append(sql)
            return tokenize(sql)

        monkeypatch.setattr("repro.engine.parser.tokenize", counting)
        db = Database()
        db.register("t", int_table(rng, 500))
        full = "SELECT * FROM t ORDER BY a, seq"
        counts = []
        with SortService(db, memory_budget=4 << 20, workers=1) as service:
            for sql in (full, f"{full} LIMIT 5 OFFSET 2", full):
                calls.clear()
                service.execute(sql, timeout=30)
                counts.append(len(calls))
            stats = service.stats
        assert counts == [1, 1, 1]
        assert stats.cache_misses == 2
        assert stats.cache_prefix_hits == 1 and stats.cache_hits == 1

    @pytest.mark.parametrize("seed", [3, 17])
    def test_cached_answers_match_database_execute(self, seed):
        """A seeded mix of full sorts, LIMIT/OFFSET forms, proper-prefix
        ORDER BYs, repeats and case/whitespace variants, with every
        table re-registered halfway: each answer equals
        ``Database.execute``'s."""
        names = ("uniform", "dup_heavy", "mixed_null", "long_string")
        shuffle = random.Random(seed).shuffle
        db = Database()
        queries = []
        for name in names:
            db.register(name, SCENARIOS[name].table(600, seed=seed))
            keys = SCENARIOS[name].order_by
            full = f"SELECT * FROM {name} ORDER BY {keys}"
            prefix = f"SELECT * FROM {name} ORDER BY {keys.split(',')[0]}"
            queries += [
                full,
                prefix,
                f"{full} LIMIT 17",
                f"{full} LIMIT 25 OFFSET 40",
                f"{full} OFFSET 590",
                f"{full} LIMIT 1000",
                f"{prefix} LIMIT 30",
                f"SELECT p FROM {name} WHERE p > 100 ORDER BY {keys} LIMIT 9",
                f"SELECT count(*) FROM (SELECT * FROM {name} "
                f"ORDER BY {keys} LIMIT 5) q",
            ]
        queries += [sql.lower() for sql in queries[::2]]
        queries += ["\n  ".join(sql.split(" ")) for sql in queries[1::3]]
        with SortService(
            db, memory_budget=16 << 20, workers=1, cache_capacity=64
        ) as service:
            for half in range(2):
                if half:
                    for name in names:
                        db.register(
                            name, SCENARIOS[name].table(600, seed=seed + 1)
                        )
                sequence = queries * 2
                shuffle(sequence)
                for sql in sequence:
                    served = service.execute(sql, timeout=60)
                    assert served.equals(db.execute(sql)), sql
            stats = service.stats
        assert stats.cache_hits > 0 and stats.cache_prefix_hits > 0


# --------------------------------------------------------------------- #
# Admission control, shedding, deadlines, cancellation
# --------------------------------------------------------------------- #


class TestAdmissionAndCancellation:
    def test_full_queue_rejects_with_retry_after(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(
            db, memory_budget=4 << 20, workers=1, queue_limit=2
        ) as service:
            tickets = [service.submit("SELECT * FROM t ORDER BY a")]
            assert db.entered.wait(5)  # worker parked; queue is empty
            # Worker holds ticket 0 at the gate; two more fill the queue.
            tickets += [
                service.submit("SELECT * FROM t ORDER BY seq"),
                service.submit("SELECT * FROM t ORDER BY a DESC"),
            ]
            with pytest.raises(ServiceOverloadError) as info:
                service.submit("SELECT * FROM t ORDER BY b")
            assert info.value.retry_after_s > 0
            assert not info.value.shed
            db.gate.set()
            for ticket in tickets:
                ticket.result(timeout=30)
            stats = service.stats
        assert stats.rejected == 1
        assert stats.admitted == 3
        assert stats.queue_peak == 2

    def test_high_priority_sheds_queued_low(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(
            db, memory_budget=4 << 20, workers=1, queue_limit=2
        ) as service:
            service.submit("SELECT * FROM t ORDER BY a")  # parks at gate
            assert db.entered.wait(5)
            low = [
                service.submit(
                    "SELECT * FROM t ORDER BY seq", Priority.LOW
                ),
                service.submit(
                    "SELECT * FROM t ORDER BY a DESC", Priority.LOW
                ),
            ]
            high = service.submit(
                "SELECT * FROM t ORDER BY b", Priority.HIGH
            )
            # The *newest* LOW ticket was evicted, completed shed.
            error = low[1].exception(timeout=5)
            assert isinstance(error, ServiceOverloadError)
            assert error.shed
            # A second HIGH evicts the remaining LOW the same way...
            high2 = service.submit(
                "SELECT * FROM t ORDER BY b DESC", Priority.HIGH
            )
            assert low[0].exception(timeout=5).shed
            # ...but with only HIGH work queued, an equal-priority
            # newcomer is rejected, not shed.
            with pytest.raises(ServiceOverloadError) as info:
                service.submit("SELECT * FROM t ORDER BY b", Priority.HIGH)
            assert not info.value.shed
            db.gate.set()
            high.result(timeout=30)
            high2.result(timeout=30)
            assert service.stats.shed == 2

    def test_worker_prefers_high_priority(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(
            db, memory_budget=4 << 20, workers=1, queue_limit=8
        ) as service:
            service.submit("SELECT * FROM t ORDER BY a")  # parks at gate
            assert db.entered.wait(5)
            low = service.submit("SELECT * FROM t ORDER BY seq", Priority.LOW)
            high = service.submit("SELECT * FROM t ORDER BY b", Priority.HIGH)
            order = []
            for name, ticket in (("low", low), ("high", high)):
                original = ticket._complete
                ticket._complete = (
                    lambda result, _name=name, _orig=original: (
                        order.append(_name),
                        _orig(result),
                    )[1]
                )
            db.gate.set()
            low.result(timeout=30)
            high.result(timeout=30)
            # The single worker drained HIGH first despite LOW being
            # submitted earlier.
            assert order == ["high", "low"]

    def test_cancel_queued_ticket_never_runs(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(
            db, memory_budget=4 << 20, workers=1, queue_limit=8
        ) as service:
            service.submit("SELECT * FROM t ORDER BY a")  # parks at gate
            assert db.entered.wait(5)
            victim = service.submit("SELECT * FROM t ORDER BY seq")
            victim.cancel()
            db.gate.set()
            with pytest.raises(SortCancelledError):
                victim.result(timeout=30)
            assert service.stats.cancelled == 1

    def test_cancel_mid_external_sort_leaves_no_spill_files(
        self, rng, monkeypatch
    ):
        # The cancel fires from inside the sort, on its first spill
        # write, so it always lands while a spill file exists.
        before = spill_dirs()
        submitted = threading.Event()
        tickets = []
        write_file = SpillIO.write_file

        def cancel_then_write(io, path, sections):
            if submitted.wait(30) and tickets:
                tickets.pop().cancel()
            write_file(io, path, sections)

        monkeypatch.setattr(SpillIO, "write_file", cancel_then_write)
        db = Database(
            sort_config=SortConfig(external=True, run_threshold=1000)
        )
        db.register("t", mixed_table(rng, 60_000))
        with SortService(
            db, memory_budget=64 << 20, workers=1, cache_capacity=0
        ) as service:
            ticket = service.submit("SELECT * FROM t ORDER BY a, s, seq")
            tickets.append(ticket)
            submitted.set()
            with pytest.raises(SortCancelledError):
                ticket.result(timeout=30)
            assert service.stats.cancelled == 1
        assert service.governor.active_grants == 0
        assert spill_dirs() == before

    def test_deadline_expiry_is_a_timeout_error(self, rng):
        db = GatedDatabase(
            sort_config=SortConfig(external=True, run_threshold=1000)
        )
        db.register("t", int_table(rng, 100))
        with SortService(db, memory_budget=4 << 20, workers=1) as service:
            blocker = service.submit("SELECT * FROM t ORDER BY a")
            assert db.entered.wait(5)
            doomed = service.submit(
                "SELECT * FROM t ORDER BY seq", deadline_s=0.01
            )
            time.sleep(0.05)  # the deadline passes while doomed is queued
            db.gate.set()
            blocker.result(timeout=30)
            with pytest.raises(QueryTimeoutError):
                doomed.result(timeout=30)
            assert service.stats.timed_out == 1
        assert not service_threads()

    def test_deadline_during_grant_wait_is_a_timeout_error(self, rng):
        # The budget fits one grant and its holder parks at the gate, so
        # the second query's deadline runs out while it waits for one.
        db = GatedDatabase(sort_config=SortConfig(external=True))
        db.register("t", int_table(rng, 100))
        with SortService(
            db,
            memory_budget=128 << 10,
            workers=2,
        ) as service:
            holder = service.submit("SELECT * FROM t ORDER BY a")
            assert db.entered.wait(5)
            doomed = service.submit(
                "SELECT * FROM t ORDER BY seq", deadline_s=0.1
            )
            with pytest.raises(QueryTimeoutError):
                doomed.result(timeout=10)
            db.gate.set()
            holder.result(timeout=30)
            assert service.stats.timed_out == 1
            assert service.stats.failed == 0

    def test_cancel_during_grant_wait_is_a_cancellation(self, rng):
        # The budget fits one grant and its holder parks at the gate; the
        # second query is cancelled 0.1 s into its wait for one.  The wait
        # reads the ticket every slice: it ends within two, counted as a
        # cancellation, long before the admission timeout.
        from repro.service.governor import _WAIT_SLICE_S

        db = GatedDatabase(sort_config=SortConfig(external=True))
        db.register("t", int_table(rng, 100))
        with SortService(
            db,
            memory_budget=128 << 10,
            workers=2,
            admission_timeout_s=2.0,
        ) as service:
            holder = service.submit("SELECT * FROM t ORDER BY a")
            assert db.entered.wait(5)
            waiting = service.submit("SELECT * FROM t ORDER BY seq")
            deadline = time.monotonic() + 5
            while not service.governor.stats.grant_waits:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            time.sleep(0.1)
            cancelled = time.monotonic()
            waiting.cancel()
            error = waiting.exception(timeout=5)
            assert time.monotonic() - cancelled < 2 * _WAIT_SLICE_S
            assert isinstance(error, SortCancelledError)
            db.gate.set()
            holder.result(timeout=30)
            assert service.stats.cancelled == 1
            assert service.stats.failed == 0

    def test_a_deadline_starts_no_thread(self, rng):
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(db, memory_budget=4 << 20, workers=2) as service:
            ticket = service.submit(
                "SELECT * FROM t ORDER BY a", deadline_s=30.0
            )
            assert db.entered.wait(5)  # parked with its deadline running
            names = service_threads()
            assert not [n for n in names if "deadline" in n]
            assert len(names) == 2  # the workers, and nothing else
            db.gate.set()
            ticket.result(timeout=30)
        assert not service_threads()


class TestOneGrantAtATime:
    def test_a_schedule_repeats_its_runs_and_forced_spills(self, rng):
        # The grant is the whole budget for its whole life, so which
        # queries overlap on the two workers cannot change a run cut.
        db = Database(
            sort_config=SortConfig(external=True, run_threshold=8192)
        )
        for i, rows in enumerate((9_000, 12_000, 15_000)):
            db.register(f"t{i}", mixed_table(rng, rows))
        queries = [
            f"SELECT * FROM t{i % 3} ORDER BY a, s DESC, seq OFFSET {i}"
            for i in range(6)
        ]

        def play() -> tuple[list, int]:
            with SortService(
                db, memory_budget=256 << 10, workers=2, cache_capacity=0
            ) as service:
                tickets = [service.submit(sql) for sql in queries]
                for ticket in tickets:
                    ticket.result(timeout=60)
                runs = [
                    [stats.runs_generated for stats in ticket.sort_stats]
                    for ticket in tickets
                ]
                return runs, service.stats.governor_forced_spills

        first, second = play(), play()
        assert first == second
        assert first[1] > 0

    def test_a_group_by_sort_counts_its_forced_spills(self, rng):
        # The GROUP BY's input sort is a Sort node: the runs its grant
        # cut reach the ticket's stats and the service's counter.
        db = Database(sort_config=SortConfig(external=True))
        db.register("t", int_table(rng, 20_000))
        sql = "SELECT b, count(*) FROM t GROUP BY b"
        with SortService(db, memory_budget=64 << 10, workers=1) as service:
            ticket = service.submit(sql)
            result = ticket.result(timeout=60)
            stats = service.stats
        assert result.equals(db.execute(sql, sort_config=SortConfig()))
        (sort,) = ticket.sort_stats
        assert sort.rows_sorted == 20_000
        assert sort.governor_forced_spills > 0
        assert stats.governor_forced_spills == sort.governor_forced_spills

    def test_a_cache_hit_is_served_while_a_sort_holds_the_grant(self, rng):
        db = GatedDatabase(sort_config=SortConfig(external=True))
        db.register("t", int_table(rng, 100))
        cached_sql = "SELECT * FROM t ORDER BY a, seq"
        with SortService(db, memory_budget=128 << 10, workers=2) as service:
            db.gate.set()
            expected = service.execute(cached_sql, timeout=30)
            db.gate.clear()
            db.entered.clear()
            holder = service.submit("SELECT * FROM t ORDER BY seq")
            assert db.entered.wait(5)  # parked at the gate with the grant
            assert service.governor.active_grants == 1
            hit = service.submit(cached_sql)
            assert hit.result(timeout=5) is expected
            assert hit.from_cache
            assert not holder.done
            db.gate.set()
            holder.result(timeout=30)
            assert service.stats.grant_waits == 0

    def test_a_sort_that_cannot_spill_takes_no_grant(self, rng):
        # Only a sort that may spill reads the grant, so while one query
        # of a database without ``external`` parks at the gate, a second
        # one runs on the other worker and neither takes a grant.
        db = GatedDatabase()
        db.register("t", int_table(rng, 100))
        with SortService(db, memory_budget=128 << 10, workers=2) as service:
            holder = service.submit("SELECT * FROM t ORDER BY a")
            assert db.entered.wait(5)
            parked, db.gate = db.gate, threading.Event()
            db.gate.set()  # the holder still waits on ``parked``
            try:
                second = service.submit("SELECT * FROM t ORDER BY seq")
                assert second.result(timeout=5).num_rows == 100
                assert not holder.done
                assert service.governor.stats.grants_issued == 0
            finally:
                parked.set()
            holder.result(timeout=30)
            stats = service.stats
        assert service.governor.stats.grants_issued == 0
        assert stats.grant_waits == 0 and stats.completed == 2


class TestTicketPhases:
    """A ticket's queue wait, grant wait and execution land in its
    ``phase_seconds``, on the sort's phase clock, before it completes."""

    HOLD_S = 0.05

    def test_a_grant_wait_is_the_grant_phase(self, rng):
        db = GatedDatabase(SortConfig(external=True))
        db.register("t", int_table(rng, 100))
        with SortService(db, memory_budget=128 << 10, workers=2) as service:
            holder = service.submit("SELECT * FROM t ORDER BY a")
            assert db.entered.wait(5)  # the holder has the grant
            parked, db.gate = db.gate, threading.Event()
            db.gate.set()
            try:
                second = service.submit("SELECT * FROM t ORDER BY seq")
                deadline = time.monotonic() + 5
                while service.governor.stats.grant_waits == 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
                time.sleep(self.HOLD_S)  # the second waits on the grant
            finally:
                parked.set()
            assert second.result(timeout=30).num_rows == 100
            holder.result(timeout=30)
        assert set(second.phase_seconds) == {"queue", "grant", "execute"}
        assert second.phase_seconds["grant"] >= self.HOLD_S
        assert all(seconds >= 0 for seconds in second.phase_seconds.values())

    def test_a_queued_ticket_times_its_queue_wait(self, rng):
        db = GatedDatabase(SortConfig(external=True))
        db.register("t", int_table(rng, 100))
        with SortService(db, memory_budget=128 << 10, workers=1) as service:
            holder = service.submit("SELECT * FROM t ORDER BY a")
            assert db.entered.wait(5)  # the one worker is busy
            try:
                second = service.submit("SELECT * FROM t ORDER BY seq")
                time.sleep(self.HOLD_S)
            finally:
                db.gate.set()
            assert second.result(timeout=30).num_rows == 100
            holder.result(timeout=30)
        assert second.phase_seconds["queue"] >= self.HOLD_S
        assert holder.phase_seconds["execute"] >= self.HOLD_S


# --------------------------------------------------------------------- #
# Acceptance scenarios
# --------------------------------------------------------------------- #


class TestAcceptanceScenarios:
    def test_eight_sorts_under_budget_for_two(self, rng):
        """The ISSUE's headline scenario, executed literally.

        The budget holds 4,096 rows of a grant against an 8,192-row
        threshold; eight external sorts submitted at once must all
        finish byte-identical to their serial runs, taking turns on the
        grant, with the governor's forced early spills visible in stats,
        every grant returned, and zero spill files left behind.
        """
        before = spill_dirs()
        config = SortConfig(external=True, run_threshold=8192)
        db = Database(sort_config=config)
        queries = []
        for i in range(8):
            db.register(f"t{i}", mixed_table(rng, 12_000))
            queries.append(f"SELECT * FROM t{i} ORDER BY a, s DESC, seq")
        expected = {sql: db.execute(sql) for sql in queries}

        budget = 256 << 10
        with SortService(
            db,
            memory_budget=budget,
            workers=8,
            cache_capacity=0,
            admission_timeout_s=60.0,
        ) as service:
            tickets = [service.submit(sql) for sql in queries]
            for sql, ticket in zip(queries, tickets):
                assert_byte_identical(ticket.result(timeout=120), expected[sql])
                # Each query really sorted (no cache) and really spilled.
                assert not ticket.from_cache
                assert sum(
                    stats.runs_generated for stats in ticket.sort_stats
                ) > 2
            stats = service.stats

        assert stats.completed == 8
        assert stats.failed == 0
        # One grant at a time, so queries waited their turn...
        assert stats.grant_waits >= 1
        # ...and the grant covers 4,096 rows against the 8,192-row
        # threshold, so the governor forced runs to cut (and spill) early.
        assert stats.governor_forced_spills > 0
        assert stats.peak_concurrent_spill_bytes > 0
        assert service.governor.active_grants == 0
        assert service.governor.concurrent_spill_bytes == 0
        assert spill_dirs() == before
        assert not service_threads()

    def test_overload_degrades_typed_not_oom(self, rng):
        """Deliberate overload: every outcome is a typed error or a result."""
        db = Database(
            sort_config=SortConfig(external=True, run_threshold=2000)
        )
        db.register("t", mixed_table(rng, 30_000))
        outcomes = {"ok": 0, "rejected": 0, "shed": 0}
        with SortService(
            db,
            memory_budget=256 << 10,
            workers=2,
            queue_limit=2,
            cache_capacity=0,
        ) as service:
            tickets = []
            for i in range(12):
                priority = [Priority.LOW, Priority.NORMAL, Priority.HIGH][
                    i % 3
                ]
                try:
                    tickets.append(
                        (
                            service.submit(
                                f"SELECT * FROM t ORDER BY a, seq OFFSET {i}",
                                priority,
                            )
                        )
                    )
                except ServiceOverloadError as error:
                    assert error.retry_after_s > 0
                    outcomes["rejected"] += 1
            for ticket in tickets:
                try:
                    ticket.result(timeout=120)
                    outcomes["ok"] += 1
                except ServiceOverloadError as error:
                    assert error.shed
                    outcomes["shed"] += 1
            stats = service.stats
        # Overload produced typed pushback, and whatever was admitted ran
        # to completion -- nothing hung, nothing died untyped.
        assert outcomes["rejected"] + outcomes["shed"] > 0
        assert outcomes["ok"] == stats.completed > 0
        assert stats.rejected == outcomes["rejected"]
        assert stats.shed == outcomes["shed"]
        assert service.governor.active_grants == 0


# --------------------------------------------------------------------- #
# Randomized concurrent stress
# --------------------------------------------------------------------- #


class TestConcurrentStress:
    def test_randomized_mixed_workload(self, rng):
        """N submitter threads, mixed queries, cancels, tight budget.

        Every ticket must land in exactly one bucket -- byte-identical
        result, typed overload/timeout, or cancellation -- and the
        session-level invariants (grants returned, no spill files, no
        threads) must hold afterwards.
        """
        before = spill_dirs()
        config = SortConfig(external=True, run_threshold=1500)
        db = Database(sort_config=config)
        db.register("u", mixed_table(rng, 6000))
        db.register("v", int_table(rng, 6000))
        queries = [
            "SELECT * FROM u ORDER BY a, s, seq",
            "SELECT * FROM u ORDER BY s DESC NULLS FIRST, seq",
            "SELECT * FROM u ORDER BY f DESC, a, seq",
            "SELECT a, seq FROM u ORDER BY a DESC LIMIT 25",
            "SELECT * FROM v ORDER BY a, seq",
            "SELECT * FROM v ORDER BY b DESC, seq",
            "SELECT seq FROM v ORDER BY a LIMIT 10 OFFSET 5",
            "SELECT b, count(*) FROM v GROUP BY b",
        ]
        expected = {sql: db.execute(sql) for sql in queries}

        service = SortService(
            db,
            memory_budget=192 << 10,
            workers=6,
            queue_limit=6,
            cache_capacity=4,
            admission_timeout_s=60.0,
        )
        results: list[tuple[str, object]] = []
        results_lock = threading.Lock()

        def submitter(worker_id: int) -> None:
            local = np.random.default_rng(1000 + worker_id)
            for _ in range(12):
                sql = queries[int(local.integers(len(queries)))]
                priority = Priority(int(local.integers(3)))
                try:
                    ticket = service.submit(sql, priority)
                except ServiceOverloadError as error:
                    assert error.retry_after_s > 0
                    continue
                if local.random() < 0.2:
                    time.sleep(float(local.random()) * 0.01)
                    ticket.cancel()
                with results_lock:
                    results.append((sql, ticket))

        threads = [
            threading.Thread(target=submitter, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()

        outcomes = {"ok": 0, "cached": 0, "cancelled": 0, "shed": 0}
        for sql, ticket in results:
            try:
                result = ticket.result(timeout=120)
            except SortCancelledError:
                outcomes["cancelled"] += 1
            except ServiceOverloadError as error:
                assert error.shed
                outcomes["shed"] += 1
            else:
                assert_byte_identical(result, expected[sql])
                outcomes["ok"] += 1
                if ticket.from_cache:
                    outcomes["cached"] += 1
        service.shutdown()

        assert outcomes["ok"] > 0
        stats = service.stats
        assert stats.completed == outcomes["ok"]
        assert stats.cancelled == outcomes["cancelled"]
        assert stats.failed == 0
        assert service.governor.active_grants == 0
        assert service.governor.concurrent_spill_bytes == 0
        assert spill_dirs() == before
        assert not service_threads()
