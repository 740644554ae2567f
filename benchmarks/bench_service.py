"""Query service at one and two workers; writes BENCH_service.json.

The memory governor lends its whole budget to one sort at a time
(:mod:`repro.service.governor`), so a second worker overlaps only what
takes no grant: parsing, planning and cache hits.  This script records
what that second worker buys, on two client mixes:

* ``service_mix`` -- the end-to-end benchmark's query mix, read from
  ``benchmarks/e2e/workloads.py`` (imported, not changed): two clients
  play cycles of 24 filtered sorts, LIMIT 100 queries and repeats over
  three tables under one memory budget;
* ``string_inmem`` -- two clients both sending the end-to-end
  benchmark's ``long_string`` sort, with the result cache off.

Each mix runs ``PAIRS`` pairs of blocks, one block at ``workers=1`` and
one at ``workers=2``; which of the two goes first alternates from pair to
pair.  A block is a fresh service (an empty cache) over one shared
``Database``.  The two clients go in lockstep: in each round both submit
one query and wait for its result; results are checked between rounds,
outside the round's wall time.  Per workers count the JSON records the
median and quartiles of rows/s (the input rows of the queries answered,
over the summed round walls) and of the per-query latency, and the
governor counters; per pair, the 2-worker / 1-worker rows/s ratio.

Asserted in every run: every result equals ``Database.execute`` of the
same SQL; every block of a mix reports the same per-query
``runs_generated`` and the same ``governor_forced_spills`` (a grant is
the whole budget for its whole life, so thread timing cannot move a run
cut); and no grant, spill directory or service thread survives.  The
tables are the end-to-end benchmark's at its default scale; below it,
cut points of the two clients coincide, and a cross-client cache hit
would depend on timing.

The JSON's ``decision_input`` is what chose the one-grant governor: the
same two mixes measured at commit aef2a70, where the governor still split
the budget into fair shares (``min_grant_bytes`` a quarter of it) and
revoked them on each admit.  This tree cannot re-measure it, so a rewrite
of the output file keeps the recorded entry as it is.

Runs standalone (``python benchmarks/bench_service.py [--pairs N]
[--out PATH]``, about 30 s at the default 10 pairs on a 2-core VM) or
under pytest (a 2-pair smoke that writes under ``tmp_path``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
import tempfile
import threading
import time

_BENCH = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")
for _path in (_SRC, os.path.join(_BENCH, "e2e")):
    if os.path.isdir(_path) and _path not in sys.path:
        sys.path.insert(0, _path)

import workloads as wl  # noqa: E402
from bench_key_compression import commit_id  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.service import SortService  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_service.json")

PAIRS = 10
WORKERS = (1, 2)
SEED = wl.PINNED_SEED
DIVISOR = wl.DEFAULT_DIVISOR
CLIENTS = wl.SERVICE_CLIENTS
MIX_CYCLES = 3
"""``service_mix`` cycles per client per block (24 queries each)."""
STRING_ROUNDS = 8
"""``string_inmem`` queries per client per block."""
TIMEOUT_S = 120.0


class Mix:
    """One client mix: a ``Database``, each client's queries, settings.

    ``schedules[c]`` is client ``c``'s list of ``(sql, table)``; both
    lists have one entry per lockstep round.
    """

    def __init__(self, name, db, schedules, settings) -> None:
        self.name = name
        self.db = db
        self.schedules = schedules
        self.settings = settings
        self.expected = {
            sql: db.execute(sql) for schedule in schedules for sql, _ in schedule
        }


def _database(workload: wl.Workload) -> Database:
    db = Database(wl.sort_config(workload, DIVISOR))
    for name, table in wl.build_tables(workload, SEED, DIVISOR).items():
        db.register(name, table)
    return db


def service_mix() -> Mix:
    workload = wl.WORKLOADS["service_mix"]
    schedules = [
        [
            (wl.service_sql(workload, query), query.table)
            for cycle in range(MIX_CYCLES)
            for query in wl.service_cycle(workload, client, cycle, DIVISOR)
        ]
        for client in range(CLIENTS)
    ]
    settings = wl.service_settings(workload, DIVISOR)
    settings.pop("min_grant_bytes")  # inert: the grant is the whole budget
    settings.pop("workers")
    return Mix(workload.name, _database(workload), schedules, settings)


def string_inmem() -> Mix:
    workload = wl.WORKLOADS["string_inmem"]
    sql = wl.single_sql(workload)
    schedules = [[(sql, "t")] * STRING_ROUNDS for _ in range(CLIENTS)]
    settings = wl.service_settings(wl.WORKLOADS["service_mix"], DIVISOR)
    settings = {
        "memory_budget": settings["memory_budget"],
        "queue_limit": settings["queue_limit"],
        "cache_capacity": 0,  # every query sorts
    }
    return Mix(workload.name, _database(workload), schedules, settings)


def _spill_dirs() -> set:
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "repro-spill-*")))


def run_block(mix: Mix, workers: int) -> dict:
    """One block: both clients play their schedules through a fresh service."""
    rounds = len(mix.schedules[0])
    spans = [[None] * rounds for _ in range(CLIENTS)]
    runs = [[None] * rounds for _ in range(CLIENTS)]
    problems: list[str] = []
    barrier = threading.Barrier(CLIENTS)
    before = _spill_dirs()

    def client(index: int, service: SortService) -> None:
        try:
            for position, (sql, _) in enumerate(mix.schedules[index]):
                barrier.wait(timeout=TIMEOUT_S)
                start = time.perf_counter()
                ticket = service.submit(sql)
                result = ticket.result(timeout=TIMEOUT_S)
                spans[index][position] = (start, time.perf_counter())
                barrier.wait(timeout=TIMEOUT_S)
                if not result.equals(mix.expected[sql]):
                    problems.append(f"{mix.name}: wrong result for {sql!r}")
                runs[index][position] = sum(
                    stats.runs_generated for stats in ticket.sort_stats
                )
        except Exception as error:  # reported below, never swallowed
            barrier.abort()
            problems.append(f"{mix.name} client {index}: {error!r}")

    with SortService(mix.db, workers=workers, **mix.settings) as service:
        threads = [
            threading.Thread(target=client, args=(i, service))
            for i in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats
        held = service.governor.active_grants
    assert not problems, problems
    assert held == 0, "grant leaked"
    assert _spill_dirs() == before, "spill directory leaked"
    assert not [
        t.name for t in threading.enumerate() if t.name.startswith("repro-service")
    ], "service thread leaked"

    wall = sum(
        max(spans[c][r][1] for c in range(CLIENTS))
        - min(spans[c][r][0] for c in range(CLIENTS))
        for r in range(rounds)
    )
    rows = sum(
        mix.db.table(table).num_rows
        for schedule in mix.schedules
        for _, table in schedule
    )
    latencies = sorted(end - start for log in spans for start, end in log)
    return {
        "rows_per_s": rows / wall,
        "wall_s": wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * latencies[int(0.9 * (len(latencies) - 1))],
        "grant_waits": stats.grant_waits,
        "grant_wait_s": stats.grant_wait_s,
        "cache_hits": stats.cache_hits,
        "governor_forced_spills": stats.governor_forced_spills,
        "peak_concurrent_spill_bytes": stats.peak_concurrent_spill_bytes,
        "runs_generated": runs,
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "p25": q1, "p75": q3}


def bench_mix(mix: Mix, pairs: int) -> dict:
    blocks: dict[int, list[dict]] = {workers: [] for workers in WORKERS}
    for pair in range(pairs):
        order = WORKERS if pair % 2 == 0 else WORKERS[::-1]
        for workers in order:
            blocks[workers].append(run_block(mix, workers))
    every = [block for per in blocks.values() for block in per]
    # A schedule repeats exactly: the same runs per query, the same
    # forced spills, at either worker count.
    assert all(b["runs_generated"] == every[0]["runs_generated"] for b in every)
    forced = {b["governor_forced_spills"] for b in every}
    assert len(forced) == 1, f"forced spills moved between blocks: {forced}"
    ratios = [
        two["rows_per_s"] / one["rows_per_s"]
        for one, two in zip(blocks[1], blocks[2])
    ]
    per_workers = {}
    for workers, runs in blocks.items():
        per_workers[str(workers)] = {
            "rows_per_s": _spread([b["rows_per_s"] for b in runs]),
            "latency_p50_ms": _spread([b["latency_p50_ms"] for b in runs]),
            "latency_p90_ms": _spread([b["latency_p90_ms"] for b in runs]),
            "grant_waits": _spread([b["grant_waits"] for b in runs]),
            "grant_wait_s": _spread([b["grant_wait_s"] for b in runs]),
            "cache_hits": runs[0]["cache_hits"],
            "peak_concurrent_spill_bytes": runs[0][
                "peak_concurrent_spill_bytes"
            ],
            "rows_per_s_by_pair": [b["rows_per_s"] for b in runs],
        }
    return {
        "clients": CLIENTS,
        "queries_per_block": sum(len(s) for s in mix.schedules),
        "settings": mix.settings,
        "governor_forced_spills": forced.pop(),
        "runs_generated_per_block": sum(
            sum(log) for log in every[0]["runs_generated"]
        ),
        "workers": per_workers,
        "ratio_2_over_1": _spread(ratios),
        "pairs_2_beat_1_by_1_15x": sum(r >= 1.15 for r in ratios),
    }


def _recorded_decision_input(out: str) -> dict | None:
    try:
        with open(out) as fh:
            return json.load(fh).get("decision_input")
    except (OSError, ValueError):
        return None


def main(pairs: int = PAIRS, out: str = OUTPUT) -> dict:
    results = {
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "seed": SEED,
        "divisor": DIVISOR,
        "pairs": pairs,
        "workers": list(WORKERS),
        "workloads": {},
    }
    decision_input = _recorded_decision_input(out)
    if decision_input is not None:
        results["decision_input"] = decision_input
    for build in (service_mix, string_inmem):
        mix = build()
        numbers = bench_mix(mix, pairs)
        results["workloads"][mix.name] = numbers
        one, two = (numbers["workers"][str(w)]["rows_per_s"] for w in WORKERS)
        print(
            f"{mix.name}: rows/s median 1 worker {one['median']:,.0f} "
            f"[{one['p25']:,.0f}, {one['p75']:,.0f}], 2 workers "
            f"{two['median']:,.0f} [{two['p25']:,.0f}, {two['p75']:,.0f}]; "
            f"2/1 median {numbers['ratio_2_over_1']['median']:.3f}, "
            f">= 1.15x in {numbers['pairs_2_beat_1_by_1_15x']} of {pairs} "
            f"pairs; forced_spills={numbers['governor_forced_spills']} "
            "in every block"
        )
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out} (cpu_count={results['cpu_count']})")
    return results


def test_service_bench_smoke(tmp_path, capsys):
    with capsys.disabled():
        print()
        results = main(pairs=2, out=str(tmp_path / "out.json"))
    # Byte identity, repeatability and leaks are asserted inside main();
    # here only the recorded shape.
    assert set(results["workloads"]) == {"service_mix", "string_inmem"}
    for numbers in results["workloads"].values():
        assert set(numbers["workers"]) == {"1", "2"}
        assert len(numbers["workers"]["1"]["rows_per_s_by_pair"]) == 2


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", type=int, default=PAIRS)
    parser.add_argument("--out", type=str, default=OUTPUT)
    arguments = parser.parse_args()
    main(pairs=arguments.pairs, out=arguments.out)
