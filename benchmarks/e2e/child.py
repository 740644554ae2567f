"""One child process of the benchmark: ``prepare``, ``measure`` or ``trace``.

``run.py`` starts these one at a time (see its docstring for why).  A
child regenerates the workload's inputs from the seed, points
``tempfile.tempdir`` at a directory it owns inside the run's work
directory (so spill files are counted and leak-checked there), does its
phase, and writes ``<dir>/<phase>.json``.

* ``prepare`` computes every expected row order with the benchmark's own
  oracle, cross-checks it against the ``np.lexsort`` floor, times both
  (the anchors) and saves the orders to ``expected.npz``.
* ``measure`` does set-up ``SETUP_REPS`` times, then the timed queries
  with no probe installed (this phase never imports ``probes.py``), and
  verifies every result outside the timed region.
* ``trace`` alternates bare and traced queries (probes taken out and put
  back in between) and derives the per-layer ledger from the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

OP_TIMEOUT_S = 600.0
SETUP_REPS = 5
SINGLE = wl.ServiceQuery("t", None, False)
"""Key of the one query of a single-table workload."""


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.ops = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        self.ops += 1
        if problem is not None:
            self.failed += 1
            self.reasons.append(problem)

    def merge(self, other: "Ledger") -> None:
        self.ops += other.ops
        self.failed += other.failed
        self.reasons.extend(other.reasons)


def vm_hwm_mib() -> float:
    """Peak resident set of this process so far (``VmHWM``), in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ---------------------------------------------------------------------- #
# Inputs and expected results
# ---------------------------------------------------------------------- #


class Inputs:
    """The workload's tables, regenerated from the seed, plus query text."""

    def __init__(self, args) -> None:
        from repro.workloads.scenarios import SCENARIOS

        self.workload = wl.WORKLOADS[args.workload]
        self.divisor = args.divisor
        self.seed = args.seed
        self.tables = wl.build_tables(self.workload, args.seed, args.divisor)
        self.digest = wl.input_digest(self.tables)
        self.order_keys = {
            spec.name: oracle.parse_order_by(SCENARIOS[spec.scenario].order_by)
            for spec in self.workload.tables
        }
        pinned = (
            args.seed == wl.PINNED_SEED
            and args.divisor == wl.DEFAULT_DIVISOR
        )
        if pinned and self.digest != self.workload.input_digest:
            raise SystemExit(
                f"{self.workload.name}: input digest {self.digest} differs "
                f"from the pinned {self.workload.input_digest}; the scenario "
                "catalog changed, so timings are not comparable"
            )

    def sql(self, query: wl.ServiceQuery) -> str:
        if self.workload.service:
            return wl.service_sql(self.workload, query)
        return wl.single_sql(self.workload)

    def row_data_bytes(self) -> dict:
        """Bytes of column data per row of each table (UTF-8 for strings)."""
        out = {}
        for name, table in self.tables.items():
            total = 0
            for column in table.columns:
                if column.data.dtype == object:
                    total += sum(len(v.encode()) for v in column.data.tolist())
                else:
                    total += column.data.nbytes
            out[name] = total / max(1, table.num_rows)
        return out


class Expectations:
    """Expected result of any query the child sends, from the oracle's orders.

    ``expected.npz`` holds one oracle order per table for its unfiltered
    query.  A stable sort commutes with a filter, so the expected order
    of ``WHERE col > k`` is that order restricted to the rows that pass:
    every distinct ``k`` costs one mask, not one more ``sorted()``.
    """

    def __init__(self, inputs: Inputs, directory: str) -> None:
        self.inputs = inputs
        with np.load(os.path.join(directory, "expected.npz")) as orders:
            self.orders = {name: orders[name] for name in inputs.tables}
        self.filters = {s.name: s.filter_column for s in inputs.workload.tables}
        workload = inputs.workload
        self.single = None
        if not workload.service:
            order = self.orders["t"]
            if workload.limit is not None:
                order = order[workload.offset : workload.offset + workload.limit]
            self.single = oracle.expected_result(inputs.tables["t"], order)

    def get(self, query: wl.ServiceQuery) -> oracle.Expected:
        if self.single is not None:
            return self.single
        table, order = self.inputs.tables[query.table], self.orders[query.table]
        if query.cut is not None:
            passes = oracle.filter_mask(table, self.filters[query.table], query.cut)
            order = order[passes[order]]
        if query.limited:
            order = order[:100]
        return oracle.expected_result(table, order)


# ---------------------------------------------------------------------- #
# The program under test, set up for one workload
# ---------------------------------------------------------------------- #


class Session:
    """``Database`` (+ ``SortService`` for service_mix) with inputs registered."""

    def __init__(self, inputs: Inputs) -> None:
        from repro.engine.database import Database

        self.inputs = inputs
        self.db = Database(wl.sort_config(inputs.workload, inputs.divisor))
        for name, table in inputs.tables.items():
            self.db.register(name, table)
        self.service = None
        if inputs.workload.service:
            from repro.service.core import SortService

            self.service = SortService(
                self.db, **wl.service_settings(inputs.workload, inputs.divisor)
            )

    def warm_up(self) -> list:
        """One query per table through the public surface."""
        if self.service is None:
            return [(SINGLE, self.db.execute(self.inputs.sql(SINGLE)))]
        queries = [
            wl.ServiceQuery(spec.name, None, False)
            for spec in self.inputs.workload.tables
        ]
        return [
            (q, self.service.execute(self.inputs.sql(q), timeout=OP_TIMEOUT_S))
            for q in queries
        ]

    def close(self) -> int:
        """Shut the service down; returns grants still held before that."""
        if self.service is None:
            return 0
        held = self.service.governor.active_grants
        self.service.shutdown()
        return held


def set_up(inputs: Inputs, expected: dict, ledger: Ledger):
    """``Database()``, ``register``, service start, warm-up: timed as one."""
    started = time.perf_counter()
    session = Session(inputs)
    warm = session.warm_up()
    elapsed = time.perf_counter() - started
    for query, result in warm:
        ledger.record(oracle.mismatch(result, expected.get(query)))
    return session, elapsed


def leak_checks(session: Session, own_tmp: str, ledger: Ledger) -> None:
    """Four checks after the workload, each an op that can fail."""
    held = session.close()
    ledger.record(f"{held} governor grants not released" if held else None)
    threads = [
        t.name for t in threading.enumerate() if t.name.startswith("repro-service")
    ]
    ledger.record(f"service threads still alive: {threads}" if threads else None)
    spill = [n for n in os.listdir(own_tmp) if n.startswith("repro-spill-")]
    ledger.record(f"spill directories left behind: {spill}" if spill else None)
    shm = []
    if os.path.isdir("/dev/shm"):
        shm = [n for n in os.listdir("/dev/shm") if n.startswith("repro-sort-")]
    ledger.record(f"shared-memory segments left behind: {shm}" if shm else None)


# ---------------------------------------------------------------------- #
# Timed sections (closed loops)
# ---------------------------------------------------------------------- #


class QueryRecord:
    """One completed query: when, what it read, what the sort reported."""

    __slots__ = (
        "start", "end", "window", "round", "sql", "table", "stats",
        "result_bytes",
    )

    def __init__(self, start, end, window, round_, sql, table, stats, result):
        self.start, self.end = start, end
        # A window is the unit throughput is taken over: one query, or on
        # service_mix one cycle; a round is one query, or there the
        # clients' concurrent pair.
        self.window, self.round = window, round_
        self.sql, self.table = sql, table
        self.stats = list(stats)
        self.result_bytes = oracle.table_bytes(result)

    @property
    def latency(self) -> float:
        return self.end - self.start


def run_single(
    session, expected, seconds, min_reps, ledger, tracer=None, calibration=None
):
    """One client, one query text, until ``seconds`` and ``min_reps`` pass.

    Returns the query records and the last ``(query, result)`` pair.
    """
    sql = session.inputs.sql(SINGLE)
    want = expected.get(SINGLE)
    records, attempts, last = [], 0, None
    deadline = time.perf_counter() + seconds
    while attempts < min_reps or time.perf_counter() < deadline:
        attempts += 1
        if calibration is not None:
            calibration.sample()
        span = tracer.begin_query() if tracer else None
        start = time.perf_counter()
        try:
            if tracer is None:
                result, stats = session.db.execute(sql), ()
            else:
                # Same plan/execute path, plus the sorts' public counters.
                result, stats = session.db.execute_detailed(sql)
        except Exception:
            ledger.record("query raised: " + traceback.format_exc(limit=4))
            continue
        finally:
            end = time.perf_counter()
            if span is not None:
                tracer.end(span)
        ledger.record(oracle.mismatch(result, want))
        records.append(
            QueryRecord(start, end, attempts, attempts, sql, "t", stats, result)
        )
        last = (SINGLE, result)
        del result
        # One query's garbage is not the next one's peak memory or pause.
        gc.collect()
    return records, last


class Lockstep:
    """Starts every round, and every cycle, of the clients together.

    A round is: both clients submit their next query at the same moment,
    wait for their own result, then wait for each other before either
    verifies.  Which two queries contend is then fixed by the schedule,
    not by thread timing (free-running clients moved throughput by +-4%
    between identical runs, lockstep rounds by +-1%), and verification
    never overlaps a timed query.  Still a closed loop: a client sends
    its next query only after its previous one has completed.
    """

    def __init__(self, seconds: float, min_cycles: int) -> None:
        self.seconds, self.min_cycles = seconds, min_cycles
        self.deadline: float | None = None
        self.cycles = 0
        self.go = True
        clients = wl.SERVICE_CLIENTS
        self.cycle_gate = threading.Barrier(clients, action=self._decide)
        self.round_gate = threading.Barrier(clients)

    def _decide(self) -> None:
        """Runs once per cycle start: another whole cycle, or stop."""
        now = time.perf_counter()
        if self.deadline is None:
            self.deadline = now + self.seconds
        self.go = self.cycles < self.min_cycles or now < self.deadline
        self.cycles += 1

    def abort(self) -> None:
        self.cycle_gate.abort()
        self.round_gate.abort()


def _client_loop(
    session, client, expected, pace, ledger, records, sample, tracer,
    calibration,
):
    inputs, service = session.inputs, session.service
    try:
        cycle = rounds = 0
        while True:
            pace.cycle_gate.wait(timeout=OP_TIMEOUT_S)
            if not pace.go:
                return
            for query in wl.service_cycle(
                inputs.workload, client, cycle, inputs.divisor
            ):
                sql = inputs.sql(query)
                rounds += 1
                if calibration is not None and client == 0 and rounds % 4 == 1:
                    # The other client waits at the gate: nothing is running.
                    calibration.sample()
                pace.round_gate.wait(timeout=OP_TIMEOUT_S)
                span = tracer.begin_query() if tracer else None
                start = time.perf_counter()
                result = problem = None
                try:
                    ticket = service.submit(sql)
                    if span is not None:
                        tracer.tag(span, ticket.query_id)
                    result = ticket.result(timeout=OP_TIMEOUT_S)
                except Exception:
                    problem = "query raised: " + traceback.format_exc(limit=4)
                end = time.perf_counter()
                if span is not None:
                    tracer.end(span)
                pace.round_gate.wait(timeout=2 * OP_TIMEOUT_S)
                if result is None:
                    ledger.record(problem)
                    continue
                ledger.record(oracle.mismatch(result, expected.get(query)))
                records.append(
                    QueryRecord(
                        start, end, cycle, rounds, sql, query.table,
                        ticket.sort_stats, result,
                    )
                )
                if result.num_rows > 1:
                    sample[:] = [(query, result)]
                del result
                if client == 0:
                    # As in run_single: garbage is collected between rounds.
                    gc.collect()
            cycle += 1
    except Exception:
        pace.abort()
        ledger.record("client thread died: " + traceback.format_exc(limit=4))


def run_clients(
    session, expected, seconds, min_cycles, ledger, tracer=None, calibration=None
):
    """Two closed-loop clients in lockstep, each playing its own cycles."""
    pace = Lockstep(seconds, min_cycles)
    ledgers = [Ledger() for _ in range(wl.SERVICE_CLIENTS)]
    logs: list[list] = [[] for _ in range(wl.SERVICE_CLIENTS)]
    sample: list = []
    threads = [
        threading.Thread(
            target=_client_loop,
            name=f"bench-client-{i}",
            args=(
                session, i, expected, pace, ledgers[i], logs[i], sample, tracer,
                calibration,
            ),
        )
        for i in range(wl.SERVICE_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread, client_ledger in zip(threads, ledgers):
        thread.join()
        ledger.merge(client_ledger)
    records = sorted((r for log in logs for r in log), key=lambda r: r.start)
    return records, (sample[0] if sample else None)


def run_timed(
    session, expected, seconds, min_reps, ledger, tracer=None, calibration=None
):
    runner = run_clients if session.service is not None else run_single
    return runner(session, expected, seconds, min_reps, ledger, tracer, calibration)


def quiet_decile(values: list[float], lower_is_quiet: bool) -> float:
    """The decile of ``values`` on the undisturbed side.

    On a shared box whole seconds run 10-30% slow while a neighbour is
    busy, and such slow-downs only ever add time.  Over windows of equal
    work, the first decile of a time (ninth of a rate) is therefore a
    steadier estimate of the program's own speed than the median: ten
    runs of int_inmem spread 8-9% by the median and 6% by this.
    """
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[0] if lower_is_quiet else deciles[-1]


class Calibration:
    """A fixed mix of numpy and interpreter work, timed between queries.

    Between two sets of passes a quarter of an hour apart the same commit
    read 20-40% slower or faster on this box, on every workload: the
    machine, not the program.  This kernel never changes, so how long it
    takes says how fast the machine is *now*; ``machine_speed`` is the
    reference time over the quiet-side decile of the pass's samples
    (1.0 = the reference box undisturbed, 0.8 = 20% slower), and the
    time metrics are reported at reference speed (time x speed, rate /
    speed) with the raw readings beside them.  In a trial of 24 passes
    over 2.5 minutes this cut int_inmem's spread from 15% to 6%.
    """

    REFERENCE_S = 0.0108
    """Geometric mean of the two parts on the reference box when quiet."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.integers(0, 1 << 62, 60_000)
        self.b = rng.integers(0, 1 << 62, 60_000)
        self.rows = list(zip(self.a[:20_000].tolist(), self.b[:20_000].tolist()))
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        order = np.lexsort((self.b, self.a))
        self.a[order], self.b[order]
        middle = time.perf_counter()
        sorted([(y & 1023, x) for x, y in self.rows])
        end = time.perf_counter()
        self.samples.append(((middle - start) * (end - middle)) ** 0.5)

    def machine_speed(self) -> float:
        return self.REFERENCE_S / quiet_decile(self.samples, True)


def midmean(values: list[float]) -> float:
    """Mean of the middle half: the typical value of a multimodal mix.

    A service_mix cycle is a third cache hits (~1 ms) and two thirds
    sorts of three table sizes.  Its median is one order statistic in a
    sparse stretch between two modes and moved 14% over ten seeds; the
    midmean ignores the same extremes but averages 24 queries, and moved
    6%.  For a window of one query it is that query's latency.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut : len(ordered) - cut])


def end_to_end(inputs: Inputs, blocks: list[list]) -> dict:
    """Throughput and typical latency of the timed blocks of records.

    A window is a unit of equal work -- one query, or on service_mix one
    cycle.  Per window: rows read / wall (verification runs between
    rounds and is in no round's wall) and the :func:`midmean` latency of
    its queries, the typical query of the mix.  Over windows:
    :func:`quiet_decile` of each.
    """
    windows: dict[tuple, dict] = {}
    rounds: dict[tuple, list] = {}
    for block, records in enumerate(blocks):
        for r in records:
            window = windows.setdefault(
                (block, r.window), {"rows": 0, "wall": 0.0, "latencies": []}
            )
            window["rows"] += inputs.tables[r.table].num_rows
            window["latencies"].append(r.latency)
            span = rounds.setdefault((block, r.round), [window, r.start, r.end])
            span[1], span[2] = min(span[1], r.start), max(span[2], r.end)
    for window, first, last in rounds.values():
        window["wall"] += last - first
    latencies = [x for w in windows.values() for x in w["latencies"]]
    return {
        "rows_per_s": quiet_decile(
            [w["rows"] / w["wall"] for w in windows.values()], False
        ),
        "query_mid_ms": 1e3 * quiet_decile(
            [midmean(w["latencies"]) for w in windows.values()], True
        ),
        "query_p25_ms": percentile(latencies, 0.25) * 1e3,
        "query_p75_ms": percentile(latencies, 0.75) * 1e3,
        "queries": len(latencies),
        "latencies_ms": [round(x * 1e3, 4) for x in latencies],
        "windows": len(windows),
        "wall_s": sum(w["wall"] for w in windows.values()),
    }


# ---------------------------------------------------------------------- #
# Phases
# ---------------------------------------------------------------------- #


def prepare(args, own_tmp: str) -> dict:
    started = time.perf_counter()
    inputs = Inputs(args)
    orders = {}
    oracle_s = floor_s = 0.0
    for name, table in inputs.tables.items():
        keys = inputs.order_keys[name]
        tick = time.perf_counter()
        orders[name] = oracle.oracle_order(table, keys)
        oracle_s += time.perf_counter() - tick
        columns = oracle.floor_columns(table, keys)
        tick = time.perf_counter()
        floor = np.lexsort(columns)
        oracle.floor_gather(table, floor)
        floor_s += time.perf_counter() - tick
        if not np.array_equal(orders[name], floor):
            raise SystemExit(f"{args.workload}: oracle and floor disagree on {name}")
    np.savez(os.path.join(args.dir, "expected.npz"), **orders)
    return {
        "input_digest": inputs.digest,
        # Mean over the tables' unfiltered queries (one, except service_mix).
        "anchor.oracle_s": oracle_s / len(orders),
        "anchor.floor_s": floor_s / len(orders),
        "anchor.prepare_s": time.perf_counter() - started,
    }


def measure(args, own_tmp: str) -> dict:
    inputs = Inputs(args)
    expected = Expectations(inputs, args.dir)
    ledger = Ledger()
    calibration = Calibration()
    setup_s, session = [], None
    for _ in range(SETUP_REPS):
        if session is not None:
            session.close()
        calibration.sample()
        session, elapsed = set_up(inputs, expected, ledger)
        setup_s.append(elapsed)
    min_reps = args.min_reps or inputs.workload.min_reps
    records, last = run_timed(
        session, expected, args.seconds, min_reps, ledger, calibration=calibration
    )
    if not records or last is None:
        raise SystemExit("no timed query completed: " + "; ".join(ledger.reasons))
    # Negative self-test: verification must reject two swapped rows.
    query, result = last
    swapped = oracle.mismatch(oracle.swap_two_rows(result), expected.get(query))
    self_test_ok = swapped is not None
    if "swap" in args.inject:
        ledger.record(swapped)
    if "leak" in args.inject:
        tempfile.mkdtemp(prefix="repro-spill-")
    del last, result
    leak_checks(session, own_tmp, ledger)
    raw = end_to_end(inputs, [records])
    raw["setup_s"] = quiet_decile(setup_s, True)
    speed = calibration.machine_speed()
    out = dict(
        raw,
        rows_per_s=raw["rows_per_s"] / speed,
        query_mid_ms=raw["query_mid_ms"] * speed,
        setup_s=raw["setup_s"] * speed,
        raw_rows_per_s=raw["rows_per_s"],
        raw_query_mid_ms=raw["query_mid_ms"],
        raw_setup_s=raw["setup_s"],
        machine_speed=speed,
        calibration_samples=len(calibration.samples),
    )
    out.update(
        setup_samples=setup_s,
        peak_rss_mb=vm_hwm_mib(),
        ops=ledger.ops,
        failed_ops=ledger.failed,
        reasons=ledger.reasons[:20],
        self_test_ok=self_test_ok,
        input_digest=inputs.digest,
    )
    return out


def trace(args, own_tmp: str) -> dict:
    inputs = Inputs(args)
    workload = inputs.workload
    expected = Expectations(inputs, args.dir)
    ledger = Ledger()
    min_pairs = args.min_reps or 1
    session, _ = set_up(inputs, expected, ledger)

    from probes import Tracer

    # Bare and traced blocks alternate -- a block is one query, or on
    # service_mix one cycle against a fresh service -- so a machine that
    # speeds up or slows down during the pass does not read as tracing
    # overhead.
    tracer = Tracer()
    blocks: dict[bool, list[list]] = {False: [], True: []}
    service_stats = None
    deadline = time.perf_counter() + args.seconds
    count = 0
    while count < 2 * min_pairs or time.perf_counter() < deadline:
        traced_block = count % 2 == 1
        count += 1
        if workload.service:
            # Every block plays cycle 0 against an empty cache.
            session.close()
            session, _ = set_up(inputs, expected, ledger)
        if traced_block:
            tracer.install()
        records, _ = run_timed(
            session, expected, 0.0, 1, ledger, tracer if traced_block else None
        )
        if traced_block:
            tracer.uninstall()
            service_stats = session.service.stats if session.service else None
        blocks[traced_block].append(records)
    untraced = [r for records in blocks[False] for r in records]
    traced = [r for records in blocks[True] for r in records]
    if not untraced or not traced:
        raise SystemExit("no traced query completed: " + "; ".join(ledger.reasons))
    serial_s = 0.0
    if workload.service:
        # One bare block's queries one after another: no service, no cache.
        tick = time.perf_counter()
        for record in blocks[False][0]:
            session.db.execute(record.sql)
        serial_s = time.perf_counter() - tick
    leak_checks(session, own_tmp, ledger)
    if args.trace_out:
        tracer.write(args.trace_out)

    with open(os.path.join(args.dir, "prepare.json")) as handle:
        anchors = json.load(handle)
    before = end_to_end(inputs, blocks[False])
    after = end_to_end(inputs, blocks[True])
    metrics = layer_metrics(inputs, tracer, traced, service_stats)
    metrics.update({k: v for k, v in anchors.items() if k.startswith("anchor.")})
    metrics["anchor.floor_ratio"] = (
        before["query_mid_ms"] / 1e3 / anchors["anchor.floor_s"]
    )
    metrics["trace.overhead_ratio"] = after["query_mid_ms"] / before["query_mid_ms"]
    metrics["service.latency_p90_ms"] = (
        percentile([r.latency for r in untraced], 0.9) * 1e3
        if workload.service else 0.0
    )
    metrics["service.speedup_vs_serial"] = (
        serial_s / end_to_end(inputs, blocks[False][:1])["wall_s"]
        if workload.service else 0.0
    )
    return {
        "per_layer": metrics,
        "probe_missing": tracer.missing,
        "untraced": before,
        "traced": after,
        "ops": ledger.ops,
        "failed_ops": ledger.failed,
        "reasons": ledger.reasons[:20],
        "input_digest": inputs.digest,
    }


TIME_METRICS = (
    "engine.plan_s", "engine.scan_s", "engine.collect_s", "table.concat_s",
    "keys.encode_s", "sort.sink_s", "sort.finalize_s", "sort.rungen_s",
    "sort.merge_s", "sort.refine_s", "rows.encode_s", "rows.gather_s",
    "rows.decode_s", "spill.write_s", "spill.read_s", "topn.sink_s",
    "topn.finalize_s",
)


def layer_metrics(inputs: Inputs, tracer, traced: list, service_stats) -> dict:
    """The per-layer ledger; times and counts are means per traced query."""
    summary = tracer.summary()
    queries = len(traced)
    counts = summary["counts"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict = {}
    for name in TIME_METRICS:
        # No probe in place for this metric: null, not a silent zero.
        metrics[name] = (
            summary["self_s"].get(name, 0.0) / queries
            if name in tracer.installed else None
        )
    stats = [(r.table, s) for r in traced for s in r.stats]
    rows_sorted = sum(s.rows_sorted for _, s in stats)
    row_bytes = inputs.row_data_bytes()
    input_bytes = sum(s.rows_sorted * row_bytes[table] for table, s in stats)
    hits = sum(s.prefetch_hits for _, s in stats)
    misses = sum(s.prefetch_misses for _, s in stats)
    write_bytes = counts.get("spill.write_bytes", 0)
    metrics.update({
        "engine.result_chunks": summary["result_chunks"] / queries,
        "table.concat_copy_ratio": ratio(
            counts.get("table.concat_bytes", 0),
            sum(r.result_bytes for r in traced),
        ),
        "keys.encode_bytes": counts.get("keys.encode_bytes", 0) / queries,
        "keys.key_width_bytes": max((s.key_width_used for _, s in stats), default=0),
        "sort.runs": sum(s.runs_generated for _, s in stats) / queries,
        "sort.merge_rows_moved_per_row": ratio(
            counts.get("sort.merge_rows", 0), rows_sorted
        ),
        "sort.refine_rows": sum(s.reencoded_rows for _, s in stats) / queries,
        "spill.write_bytes": write_bytes / queries,
        "spill.read_bytes": counts.get("spill.read_bytes", 0) / queries,
        "spill.write_amp": ratio(write_bytes, input_bytes),
        "spill.files": summary["calls"].get("spill.write_s", 0) / queries,
        "spill.prefetch_hit_ratio": ratio(hits, hits + misses),
        "spill.io_wait_s": sum(
            s.phase_seconds.get("io_wait", 0.0) for _, s in stats
        ) / queries,
        "topn.rows_in": counts.get("topn.rows_in", 0) / queries,
        "trace.coverage": ratio(summary["covered_s"], summary["root_s"]),
        "trace.probe_missing": len(tracer.missing),
    })
    s = service_stats
    metrics.update({
        "service.cache_hit_ratio": ratio(
            s.cache_hits + s.cache_prefix_hits, s.cache_hits + s.cache_misses
        ) if s else 0.0,
        "service.forced_spills": s.governor_forced_spills if s else 0,
        "service.grant_wait_s": s.grant_wait_s if s else 0.0,
        "service.queue_peak": s.queue_peak if s else 0,
        "service.shed_or_rejected": s.shed + s.rejected if s else 0,
    })
    return metrics


PHASES = {"prepare": prepare, "measure": measure, "trace": trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=sorted(PHASES))
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--divisor", type=int, default=wl.DEFAULT_DIVISOR)
    parser.add_argument("--min-reps", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--inject", default="")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    own_tmp = os.path.join(args.dir, f"tmp-{args.phase}")
    os.makedirs(own_tmp)
    tempfile.tempdir = own_tmp
    result = PHASES[args.phase](args, own_tmp)
    with open(os.path.join(args.dir, f"{args.phase}.json"), "w") as handle:
        json.dump(result, handle, default=float)
    return 0


if __name__ == "__main__":
    sys.exit(main())
