"""Planner order-propagation benchmark; writes BENCH_planner.json.

Measures what the planner's order-property framework buys when the
data's physical order is already known (declared via
``Database.declare_ordering``, e.g. by an incremental sorted view):

* **ordered_view** -- ``SELECT * FROM v ORDER BY s, p`` over a view
  already sorted on exactly that spec: the sort is *elided* and the
  query degenerates to a scan.
* **groupby_sorted** -- ``GROUP BY s`` over input sorted on ``s``: the
  group-by's internal sort is skipped and groups are found by
  ``group_changed`` on the key column alone.
* **merge_join** -- an equality join whose *both* inputs are pre-sorted
  on the join key: the merge join elides both of its per-side sorts and
  goes straight to group alignment.
* **prefix_provided** -- the full ``ORDER BY`` of ``tpcds_catalog`` over
  a view declared by its first key only: no rewrite applies, so the
  planned query must run as fast as the forced full sort.
* **topn_cached_prefix** -- a ``LIMIT`` query answered by slicing the
  cached result of the same query without its ``LIMIT``
  (:meth:`ResultCache.get`): zero sort work, proven by the service's
  ``cache_prefix_hits`` counter (sliced tickets never reach execution).

Every *forced* baseline is the same query under
``propagate_order=False`` -- the differential oracle that re-sorts in
full -- and every elided result is asserted **value-identical** to it
(stable sorts of already-sorted input are identities, so the fast paths
must not change a single row).  The sort-savings counters
(``sorts_elided`` per cell) are asserted, recorded, and gated by
``benchmarks/regress.py --planner-candidate`` against the committed
``BENCH_planner.json``: each cell carries its own ``min_speedup`` floor
(3x for the elided ORDER BY, 1.5x for the elided GROUP BY, parity for
the join, 0.8x for the provided prefix) so a future planner change that
silently stops eliding, or slows a sort down, fails the build.

String-heavy scenarios are used deliberately: exact VARCHAR sorting is
the most expensive thing the pipeline does, so it is where order reuse
pays the most (and where a byte-identity bug would surface first).

Runs standalone (``python benchmarks/bench_order_propagation.py
[--rows N]``) or under pytest (small-scale smoke; speedup floors are
only enforced at gate scale, identity and counters always).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from bench_key_compression import commit_id  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.service import SortService  # noqa: E402
from repro.sort.operator import sort_table  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402
from repro.workloads.scenarios import SCENARIOS  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_planner.json")

DEFAULT_ROWS = 40_000
SEED = 17
REPS = 3
# Speedup floors are only meaningful once the forced sort costs real
# time; below this scale the smoke test checks identity and counters.
GATE_ROWS = 20_000
TOPN_LIMIT = 100


def _best(fn, reps: int = REPS):
    """(best wall-clock of ``reps`` runs, last result)."""
    best = None
    result = None
    for _ in range(reps):
        started = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _assert_identical(cell: str, elided: Table, forced: Table) -> None:
    if not elided.equals(forced):
        raise AssertionError(
            f"{cell}: elided result diverged from the forced-resort "
            f"oracle ({elided.num_rows} vs {forced.num_rows} rows)"
        )


def _elision_counters(stats_list) -> tuple[int, int]:
    elided = sum(s.sorts_elided for s in stats_list)
    subsumed = sum(s.sorts_subsumed for s in stats_list)
    return elided, subsumed


def cell_ordered_view(rows: int) -> dict:
    """ORDER BY over an incremental-view-style pre-sorted table."""
    sc = SCENARIOS["long_string"]
    spec = SortSpec.of(*(part.strip() for part in sc.order_by.split(",")))
    db = Database()
    db.register("v", sort_table(sc.table(rows, seed=SEED), spec))
    db.declare_ordering("v", sc.order_by)
    sql = f"SELECT * FROM v ORDER BY {sc.order_by}"

    forced_s, forced = _best(lambda: db.execute(sql, propagate_order=False))
    elided_s, (elided, stats) = _best(lambda: db.execute_detailed(sql))
    _assert_identical("ordered_view", elided, forced)
    sorts_elided, sorts_subsumed = _elision_counters(stats)
    assert sorts_elided == 1, f"expected 1 elided sort, saw {sorts_elided}"
    assert "elided" in db.explain(sql), "plan does not show the elision"
    return {
        "scenario": "long_string",
        "rows": rows,
        "sql": sql,
        "forced_s": forced_s,
        "elided_s": elided_s,
        "speedup": forced_s / elided_s,
        "min_speedup": 3.0,
        "identical": True,
        "sorts_elided": sorts_elided,
        "sorts_subsumed": sorts_subsumed,
    }


def cell_groupby_sorted(rows: int) -> dict:
    """GROUP BY whose keys match the input's declared ordering.

    The floor is 1.5x, not the ORDER BY cell's 3x: the forced sort of
    these strings is now about 3x cheaper than when the floor was set, so
    most of either plan is work both share -- the group boundaries
    re-encoded from the sorted keys and the aggregation.  A planner that
    stops eliding still reads about 1.0x and fails.
    """
    db = Database()
    table = SCENARIOS["long_string"].table(rows, seed=SEED)
    db.register("v", sort_table(table, SortSpec.of("s")))
    db.declare_ordering("v", "s")
    sql = "SELECT s, count(*), sum(p) FROM v GROUP BY s"

    forced_s, forced = _best(lambda: db.execute(sql, propagate_order=False))
    elided_s, (elided, stats) = _best(lambda: db.execute_detailed(sql))
    _assert_identical("groupby_sorted", elided, forced)
    sorts_elided, sorts_subsumed = _elision_counters(stats)
    assert sorts_elided == 1, f"expected 1 elided sort, saw {sorts_elided}"
    return {
        "scenario": "long_string",
        "rows": rows,
        "sql": sql,
        "forced_s": forced_s,
        "elided_s": elided_s,
        "speedup": forced_s / elided_s,
        "min_speedup": 1.5,
        "identical": True,
        "sorts_elided": sorts_elided,
        "sorts_subsumed": sorts_subsumed,
    }


def cell_merge_join(rows: int) -> dict:
    """Merge join with both inputs pre-sorted on the join key.

    The forced baseline sorts both sides before aligning; the elided
    plan goes straight to group alignment.  The floor is parity
    (``min_speedup`` 1.0): alignment, NULL filtering, and output
    materialization are shared by both paths, so the saving is the two
    sorts -- real but bounded.
    """
    sc = SCENARIOS["tpcds_catalog"]
    big = sc.table(rows * 5, seed=SEED)
    small = sc.table(max(rows // 2, 200), seed=SEED + 1)
    key = SortSpec.of("cs_item_sk")
    db = Database()
    db.register("big", sort_table(big, key))
    db.declare_ordering("big", "cs_item_sk")
    db.register("small", sort_table(small, key))
    db.declare_ordering("small", "cs_item_sk")
    sql = "SELECT * FROM big JOIN small ON cs_item_sk = cs_item_sk"

    forced_s, forced = _best(lambda: db.execute(sql, propagate_order=False))
    elided_s, (elided, stats) = _best(lambda: db.execute_detailed(sql))
    _assert_identical("merge_join", elided, forced)
    sorts_elided, sorts_subsumed = _elision_counters(stats)
    assert sorts_elided == 2, (
        f"expected both join-side sorts elided, saw {sorts_elided}"
    )
    return {
        "scenario": "tpcds_catalog",
        "rows_big": big.num_rows,
        "rows_small": small.num_rows,
        "rows_joined": elided.num_rows,
        "sql": sql,
        "forced_s": forced_s,
        "elided_s": elided_s,
        "speedup": forced_s / elided_s,
        "min_speedup": 1.0,
        "identical": True,
        "sorts_elided": sorts_elided,
        "sorts_subsumed": sorts_subsumed,
    }


def cell_prefix_provided(rows: int) -> dict:
    """The full ORDER BY over a view declared by its first key only.

    A provided leading prefix earns no rewrite: the planned query is the
    forced full sort, so the floor (``min_speedup`` 0.8) only allows
    noise.  A planner that swaps in a slower special path for this shape
    fails it.  The two sides run alternately, best of five each, so a
    drift in machine speed cannot favour one of them.
    """
    sc = SCENARIOS["tpcds_catalog"]
    declared = sc.order_by.split(",")[0].strip()
    db = Database()
    table = sc.table(rows, seed=SEED)
    db.register("v", sort_table(table, SortSpec.of(declared)))
    db.declare_ordering("v", declared)
    sql = f"SELECT * FROM v ORDER BY {sc.order_by}"

    forced_s = planned_s = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        forced = db.execute(sql, propagate_order=False)
        middle = time.perf_counter()
        planned, stats = db.execute_detailed(sql)
        forced_s = min(forced_s, middle - started)
        planned_s = min(planned_s, time.perf_counter() - middle)
    _assert_identical("prefix_provided", planned, forced)
    sorts_elided, sorts_subsumed = _elision_counters(stats)
    assert (sorts_elided, sorts_subsumed) == (0, 0), (
        f"expected a full sort, saw {sorts_elided} elided and "
        f"{sorts_subsumed} subsumed"
    )
    assert db.explain(sql).startswith("Sort("), "plan is not a full sort"
    return {
        "scenario": "tpcds_catalog",
        "rows": rows,
        "declared": declared,
        "sql": sql,
        "forced_s": forced_s,
        "elided_s": planned_s,
        "speedup": forced_s / planned_s,
        "min_speedup": 0.8,
        "identical": True,
        "sorts_elided": sorts_elided,
        "sorts_subsumed": sorts_subsumed,
    }


def cell_topn_cached_prefix(rows: int) -> dict:
    """Top-N served by slicing a cached full ORDER BY result."""
    sc = SCENARIOS["uniform"]
    db = Database()
    db.register("t", sc.table(rows * 5, seed=SEED))
    full_sql = f"SELECT * FROM t ORDER BY {sc.order_by}"
    topn_sql = f"{full_sql} LIMIT {TOPN_LIMIT}"

    forced_s, forced = _best(
        lambda: db.execute(topn_sql, propagate_order=False)
    )
    with SortService(
        db, memory_budget=64 << 20, workers=1, cache_capacity=8
    ) as service:
        service.submit(full_sql).result(timeout=600)  # populate the cache
        served_s, served = _best(
            lambda: service.submit(topn_sql).result(timeout=600)
        )
        stats = service.stats
    _assert_identical("topn_cached_prefix", served, forced)
    # Sliced tickets are answered before execution: each serve
    # MUST be a prefix hit, which is the proof of zero sort work.
    assert stats.cache_prefix_hits == REPS, (
        f"expected {REPS} prefix hits, saw {stats.cache_prefix_hits}"
    )
    return {
        "scenario": "uniform",
        "rows": rows * 5,
        "sql": topn_sql,
        "forced_s": forced_s,
        "elided_s": served_s,
        "speedup": forced_s / served_s,
        "min_speedup": None,  # serve latency is thread-handoff bound
        "identical": True,
        "cache_prefix_hits": stats.cache_prefix_hits,
        "sorts_elided": 0,
        "sorts_subsumed": 0,
    }


CELLS = {
    "ordered_view": cell_ordered_view,
    "groupby_sorted": cell_groupby_sorted,
    "merge_join": cell_merge_join,
    "prefix_provided": cell_prefix_provided,
    "topn_cached_prefix": cell_topn_cached_prefix,
}


def main(rows: int = DEFAULT_ROWS, out: str = OUTPUT) -> dict:
    gated = rows >= GATE_ROWS
    results = {
        "rows": rows,
        "seed": SEED,
        "reps": REPS,
        "gated": gated,
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "cells": {},
    }
    for name, fn in CELLS.items():
        cell = fn(rows)
        results["cells"][name] = cell
        floor = cell.get("min_speedup")
        if gated and floor is not None and cell["speedup"] < floor:
            raise AssertionError(
                f"{name}: speedup {cell['speedup']:.2f}x below the "
                f"{floor:.1f}x floor (forced {cell['forced_s']:.4f}s, "
                f"elided {cell['elided_s']:.4f}s)"
            )
        print(
            f"{name}: forced {cell['forced_s']:.4f}s -> elided "
            f"{cell['elided_s']:.4f}s ({cell['speedup']:.2f}x, "
            f"floor {floor if floor is not None else 'none'})"
        )
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {out} (gated={gated})")
    return results


def test_order_propagation_bench_smoke(tmp_path, capsys):
    with capsys.disabled():
        print()
        results = main(rows=4_000, out=str(tmp_path / "planner.json"))
    # Identity and the elision/prefix-hit counters are asserted inside
    # each cell; speedup floors only apply at gate scale.
    assert set(results["cells"]) == set(CELLS)
    for cell in results["cells"].values():
        assert cell["identical"] is True


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--out", default=OUTPUT)
    arguments = parser.parse_args()
    main(rows=arguments.rows, out=arguments.out)
