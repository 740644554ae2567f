"""Scenario x sort-path benchmark matrix; writes BENCH_matrix.json.

Sweeps every scenario in the catalog (:mod:`repro.workloads.scenarios`)
across every sort path the repo grew -- in-memory multi-run, external
spilling, streaming Top-N, the concurrent query service, and the
incremental (maintained-view) sorter -- and records one cell per
(scenario, path):

* wall-clock seconds and rows/s (best of ``REPS`` measured runs, so a
  single scheduler hiccup does not poison the recorded artifact; the
  reps of a scenario's paths alternate, so the same-run relations
  ``regress.py`` checks, such as Top-N against the in-memory sort,
  compare cells measured side by side under the same conditions);
* the minor page faults of that best run (``minor_faults``, the
  process's ``ru_minflt`` delta: memory the allocator handed back to the
  OS and faulted in again shows here), recorded and not gated;
* what the run sort did (``sort_passes`` / ``sort_tied_rows`` summed
  over the generated runs) -- these are **deterministic**
  for a given (rows, seed), which is what lets
  ``benchmarks/regress.py`` gate on them;
* the run-length histogram summary, merge passes, k-way rounds, and the
  degradation/spill counters.

Every cell's output is asserted **byte-identical** to the scalar oracle
(:func:`repro.scalar.reference.reference_sort` -- the row-at-a-time
reference sort) before its timing is recorded; the Top-N cell compares against the
oracle's ``[offset, offset+limit)`` slice.  A cell that diverges raises
with the scenario name, path, rows, and seed in the message.

The recorded ``BENCH_matrix.json`` at the repository root is the
committed trajectory baseline: CI re-runs this script at the same
(rows, seed) and ``regress.py`` fails the build on a >15% normalized
hot-path slowdown or a drift in those counts that arrives without an
accompanying baseline update (see ``docs/sort-pipeline.md``).

Runs standalone (``python benchmarks/bench_matrix.py [--rows N]
[--out PATH]``) or under pytest (slow-marked smoke).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bench_key_compression import commit_id  # noqa: E402
from repro.engine import Database  # noqa: E402
from repro.service import SortService  # noqa: E402
from repro.scalar.reference import reference_sort  # noqa: E402
from repro.sort.incremental import IncrementalSorter  # noqa: E402
from repro.sort.operator import SortConfig, make_sort_operator  # noqa: E402
from repro.sort.topn import TopNOperator  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec  # noqa: E402
from repro.workloads.scenarios import SCENARIOS  # noqa: E402

OUTPUT = os.path.join(os.path.dirname(_SRC), "BENCH_matrix.json")

# The committed baseline and the CI gate run at exactly this scale and
# seed: the recorded counts (run-sort passes and tied rows, replacement
# selection vs argsort) depend on row count, so regress.py refuses to
# compare runs recorded at different scales.
DEFAULT_ROWS = 24_000
SEED = 17
REPS = 5

# A rep of a scenario runs every path once, in this order: Top-N right
# after the in-memory sort it must beat.
PATHS = ("in_memory", "topn", "external", "service", "incremental")
REFERENCE_CELL = ("uniform", "in_memory")

TOPN_LIMIT = 100
TOPN_OFFSET = 7
SERVICE_QUERIES = 3
SERVICE_WORKERS = 2
INCREMENTAL_DELTAS = 8


def _spec(scenario) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in scenario.order_by.split(",")])


def assert_identical(actual: Table, expected: Table, context: str) -> None:
    """Byte-identity between a path's output and the scalar oracle."""
    assert actual.num_rows == expected.num_rows, (
        f"{context}: {actual.num_rows} rows != {expected.num_rows}"
    )
    assert actual.schema.names == expected.schema.names, context
    for name in expected.schema.names:
        left, right = actual.column(name), expected.column(name)
        assert np.array_equal(left.validity, right.validity), (
            f"{context}: column {name!r} validity diverged"
        )
        assert np.array_equal(left.data, right.data), (
            f"{context}: column {name!r} values diverged"
        )


def _run_lengths_summary(lengths) -> dict:
    if not lengths:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0}
    return {
        "count": len(lengths),
        "min": int(min(lengths)),
        "max": int(max(lengths)),
        "mean": float(np.mean(lengths)),
    }


def _dispatch_summary(stats) -> dict:
    """The gate-visible slice of a ``SortStats``: dispatch + run shape."""
    return {
        "sort_passes": stats.sort_passes,
        "sort_tied_rows": stats.sort_tied_rows,
        "runs_generated": stats.runs_generated,
        "run_lengths": _run_lengths_summary(stats.run_lengths),
        "merge_passes": stats.merge_passes,
        "kway_rounds": stats.kway_rounds,
        "memory_run_fallbacks": stats.memory_run_fallbacks,
        "governor_forced_spills": stats.governor_forced_spills,
        "checksum_verifications": stats.checksum_verifications,
        "spill_retries": stats.spill_retries,
        "spill_failovers": stats.spill_failovers,
        "sorts_elided": stats.sorts_elided + stats.sorts_subsumed,
    }


# ---------------------------------------------------------------------- #
# Path runners: each returns (result_table, dispatch_dict | None, extras)
# ---------------------------------------------------------------------- #


def _spilling_config(rows):
    return SortConfig(external=True, run_threshold=max(2048, rows // 4))


def _run_full_sort(table, spec, config):
    with make_sort_operator(table.schema, spec, config) as operator:
        for chunk in chunk_table(table):
            operator.sink(chunk)
        result = operator.finalize()
    return result, _dispatch_summary(operator.stats), {}


def _run_topn(table, spec, rows):
    operator = TopNOperator(table.schema, spec, TOPN_LIMIT, TOPN_OFFSET)
    for chunk in chunk_table(table):
        operator.sink(chunk)
    result = operator.finalize()
    extras = {"limit": TOPN_LIMIT, "offset": TOPN_OFFSET}
    return result, _dispatch_summary(operator.stats), extras


def _run_service(table, spec, rows, scenario):
    db = Database(sort_config=_spilling_config(rows))
    db.register("t", table)
    sql = scenario.sql()
    with SortService(
        db,
        memory_budget=8 << 20,
        workers=SERVICE_WORKERS,
        queue_limit=SERVICE_QUERIES,
        cache_capacity=0,
        admission_timeout_s=600.0,
    ) as service:
        tickets = [service.submit(sql) for _ in range(SERVICE_QUERIES)]
        results = [ticket.result(timeout=600) for ticket in tickets]
        stats_lists = [ticket.sort_stats for ticket in tickets]
        service_stats = service.stats
    dispatch = None
    for stats_list in stats_lists:
        if stats_list:
            dispatch = _dispatch_summary(stats_list[0])
            break
    extras = {
        "queries": SERVICE_QUERIES,
        "grant_waits": service_stats.grant_waits,
        "governor_forced_spills": service_stats.governor_forced_spills,
    }
    return results, dispatch, extras


def _run_incremental(table, spec, rows):
    sorter = IncrementalSorter(
        table.schema, spec, SortConfig(), compact_threshold=4
    )
    bounds = np.linspace(0, table.num_rows, INCREMENTAL_DELTAS + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            sorter.insert(table.take(np.arange(lo, hi)))
    result = sorter.view()
    extras = {
        "deltas": sorter.stats.deltas_inserted,
        "compactions": sorter.stats.compactions,
        "rows_compacted": sorter.stats.rows_compacted,
        "peak_runs": sorter.stats.peak_runs,
    }
    return result, _dispatch_summary(sorter.stats.sort), extras


# ---------------------------------------------------------------------- #
# The matrix sweep
# ---------------------------------------------------------------------- #


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def run_cell(path, scenario, table, spec, oracle, rows):
    """One measured rep of one cell: ``(seconds, minor_faults, dispatch,
    extras)``."""
    context = (
        f"scenario={scenario.name} path={path} rows={rows} seed={SEED}"
    )
    faults = _minor_faults()
    started = time.perf_counter()
    if path == "in_memory":
        result, dispatch, extras = _run_full_sort(table, spec, SortConfig())
    elif path == "external":
        result, dispatch, extras = _run_full_sort(
            table, spec, _spilling_config(rows)
        )
    elif path == "topn":
        result, dispatch, extras = _run_topn(table, spec, rows)
    elif path == "service":
        result, dispatch, extras = _run_service(table, spec, rows, scenario)
    elif path == "incremental":
        result, dispatch, extras = _run_incremental(table, spec, rows)
    else:  # pragma: no cover - registry drift is a programming error
        raise ValueError(f"unknown path {path!r}")
    elapsed = time.perf_counter() - started
    faults = _minor_faults() - faults
    if path == "topn":
        expected = oracle.take(np.arange(TOPN_OFFSET, TOPN_OFFSET + TOPN_LIMIT))
        assert_identical(result, expected, context)
    elif path == "service":
        for result_table in result:
            assert_identical(result_table, oracle, context)
    else:
        assert_identical(result, oracle, context)
    return elapsed, faults, dispatch, extras


def bench_scenario(scenario, rows):
    table = scenario.table(rows, seed=SEED)
    spec = _spec(scenario)
    started = time.perf_counter()
    oracle = reference_sort(table, spec)
    oracle_s = time.perf_counter() - started
    cells = {}
    for _ in range(REPS):
        for path in PATHS:
            elapsed, faults, dispatch, extras = run_cell(
                path, scenario, table, spec, oracle, rows
            )
            best = cells.get(path)
            if best is not None and best["seconds"] <= elapsed:
                continue
            # The service cell sorts the table once per query: its rate
            # is the aggregate over all of them, like every other cell's.
            sorted_rows = rows * SERVICE_QUERIES if path == "service" else rows
            cells[path] = {
                "seconds": elapsed,
                "minor_faults": faults,
                "rows_per_s": sorted_rows / elapsed,
                "identical": True,
                "dispatch": dispatch,
                **extras,
            }
    return {
        "description": scenario.description,
        "order_by": scenario.order_by,
        "oracle_seconds": oracle_s,
        "paths": cells,
    }


def main(rows: int = DEFAULT_ROWS, out: str = OUTPUT) -> dict:
    results = {
        "rows": rows,
        "seed": SEED,
        "reps": REPS,
        "cpu_count": os.cpu_count(),
        "commit": commit_id(),
        "paths": list(PATHS),
        "reference_cell": list(REFERENCE_CELL),
        "scenarios": {},
    }
    for name, scenario in SCENARIOS.items():
        results["scenarios"][name] = bench_scenario(scenario, rows)
        numbers = results["scenarios"][name]["paths"]
        fastest = min(cell["seconds"] for cell in numbers.values())
        print(
            f"{name}: "
            + " ".join(
                f"{path}={cell['seconds']:.3f}s" for path, cell in numbers.items()
            )
            + f" (fastest {fastest:.3f}s)"
        )
    with open(out, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(
        f"wrote {out}: {len(results['scenarios'])} scenarios x "
        f"{len(PATHS)} paths, every cell byte-identical to the scalar oracle"
    )
    return results


@pytest.mark.slow
def test_matrix_smoke(tmp_path, capsys):
    with capsys.disabled():
        print()
        results = main(rows=6_000, out=str(tmp_path / "BENCH_matrix.json"))
    assert len(results["scenarios"]) >= 7
    for numbers in results["scenarios"].values():
        assert set(numbers["paths"]) == set(PATHS)
        for cell in numbers["paths"].values():
            assert cell["identical"] is True
            assert cell["seconds"] > 0
            assert cell["minor_faults"] >= 0
    # The counters the regression gate keys on must be present on every
    # path (Top-N generates no runs, but its survivor sorts go through
    # the same run sort).
    for numbers in results["scenarios"].values():
        for path, cell in numbers["paths"].items():
            assert cell["dispatch"] is not None
            assert cell["dispatch"]["sort_passes"] > 0
            if path != "topn":
                assert cell["dispatch"]["runs_generated"] > 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--out", type=str, default=OUTPUT)
    arguments = parser.parse_args()
    main(rows=arguments.rows, out=arguments.out)
