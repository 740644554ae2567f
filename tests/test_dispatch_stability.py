"""Run-sort stability: recorded counts per scenario.

The run sort (:func:`repro.sort.heuristic.vector_sort_rows`) has one
kernel and no dispatch, so what a scenario can change is the work that
kernel does: how many sort passes it makes and how many rows its first
pass leaves tied.  Both are exact counts, deterministic for a fixed
(rows, seed) -- which makes them testable as a *recorded expectation
table*.  A change in key encoding, key compression or the kernel's pass
structure that moves any cell fails here with the full table in hand,
forcing the move to be reviewed and the expectations (and the committed
``BENCH_matrix.json`` baseline) updated deliberately -- the same
contract ``benchmarks/regress.py`` enforces at bench scale.

The table is interesting because the catalog actually diversifies it:
the integer scenarios and TPC-DS catalog_sales (four low-cardinality
keys compressed into five bytes) put every deciding bit inside the first
pass, ``long_string``'s shared stem is skipped as constant words,
``mixed_null``'s NULL rows tie on their first word, and the two name
columns of TPC-DS customer tie every row pass after pass.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

import repro.engine
import repro.keys
import repro.service
import repro.sort
from repro.sort.operator import SortConfig, SortOperator, SortStats
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 6_000
SEED = 7

# scenario -> (sort_passes, sort_tied_rows) of one ROWS-row in-memory run.
EXPECTED = {
    "uniform": (1, 0),
    "zipf_skew": (1, 0),
    "near_sorted": (1, 0),
    "reverse": (1, 0),
    "dup_heavy": (1, 0),
    "long_string": (1, 0),
    "mixed_null": (2, 230),
    "tpcds_catalog": (1, 0),
    "tpcds_customer": (5, 6000),
}


def _spec(scenario) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in scenario.order_by.split(",")])


def test_expectation_table_covers_the_catalog():
    assert set(EXPECTED) == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_in_memory_dispatch_matches_recorded(name):
    scenario = SCENARIOS[name]
    table = scenario.table(ROWS, seed=SEED)
    operator = SortOperator(table.schema, _spec(scenario), SortConfig())
    for chunk in chunk_table(table, 2048):
        operator.sink(chunk)
    operator.finalize()
    expected_passes, expected_tied = EXPECTED[name]
    stats = operator.stats
    assert (stats.sort_passes, stats.sort_tied_rows) == (
        expected_passes,
        expected_tied,
    ), (
        f"scenario {name!r} rows={ROWS} seed={SEED}: the run sort made "
        f"{stats.sort_passes} passes with {stats.sort_tied_rows} rows tied "
        f"after the first (key width {stats.key_width_used}); if intended, "
        f"update EXPECTED and regenerate BENCH_matrix.json"
    )


def test_knob_and_counter_counts_only_go_down():
    # A ratchet: every SortConfig field is a configuration the tests and
    # benchmarks must cover, every SortStats field a counter someone must
    # read.  These bounds are only ever lowered (ROADMAP item B).
    assert len(dataclasses.fields(SortConfig)) <= 9
    assert len(dataclasses.fields(SortStats)) <= 30


def package_lines(package) -> int:
    return sum(
        len(path.read_text().splitlines())
        for path in Path(package.__file__).parent.glob("*.py")
    )


def test_sort_package_lines_only_go_down():
    # The same ratchet for the pipeline's size: ``sort/`` holds what
    # sort_table, Top-N, IncrementalSorter and SortService reach and
    # nothing else (ROADMAP items B and C lower the bound).
    assert package_lines(repro.sort) <= 4_253


def test_engine_package_lines_only_go_down():
    # The same ratchet for the query engine: one operator protocol,
    # ``chunks()``, and no second whole-output path beside it.
    assert package_lines(repro.engine) <= 2_125


def test_keys_package_lines_only_go_down():
    # The same ratchet for the key codec ``sort/`` encodes with.
    assert package_lines(repro.keys) <= 1_455


def test_service_package_lines_only_go_down():
    # The same ratchet for the query service: a deadline is read at the
    # sort's checkpoints, and no thread beside the workers times it; the
    # governor lends the whole budget to one grant at a time.
    assert package_lines(repro.service) <= 1_037
