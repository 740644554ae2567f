"""Runs are a unit of spilling: the resident store cuts one and returns it.

``SortOperator`` buffers in ``sink`` and sorts everything once in
``finalize``; neither ``run_threshold`` nor a memory grant cuts a
resident run, and ``RunMerger.merge`` hands one resident run on the
final layout back without a k-way pass.  What needs pinning is the edge
of that shortcut: the truncated-VARCHAR repair that still takes the
round loop, the external sort's lone memory-fallback run, offset-value
codes that are now computed on first read, and cancellation with all
the work in ``finalize``.
"""

from __future__ import annotations

import functools
import threading

import numpy as np
import pytest

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.errors import SortCancelledError
from repro.sort import rungen
from repro.sort.external import ExternalSortOperator, InMemoryRun
from repro.sort.faults import FaultInjector, InjectedFault
from repro.sort.kernels import ovc_codes
from repro.sort.operator import SortConfig, SortOperator, SortStats
from repro.sort.rungen import ROW_ID_WIDTH
from repro.sort.spillfile import EXTRA_TAG_OVC, unpack_extra
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 10_000
SEED = 17


@functools.lru_cache(maxsize=None)
def scenario_case(name: str):
    scenario = SCENARIOS[name]
    table = scenario.table(ROWS, seed=SEED)
    spec = SortSpec.of(*[p.strip() for p in scenario.order_by.split(",")])
    return table, spec, oracle_sort(table, spec)


def run_operator(operator, table, chunk_rows=1024):
    for chunk in chunk_table(table, chunk_rows):
        operator.sink(chunk)
    return operator.finalize()


class SqueezedGrant:
    """A memory grant shrunk as far as it goes: one row per run."""

    def effective_run_threshold(self, base_rows: int) -> int:
        return 1

    def record_spill(self, nbytes: int) -> None:
        raise AssertionError("a resident store spilled")


@pytest.fixture
def ovc_calls(monkeypatch):
    """Row counts of every ``ovc_codes`` call a run made."""
    calls: list[int] = []

    def spy(matrix):
        calls.append(len(matrix))
        return ovc_codes(matrix)

    monkeypatch.setattr(rungen, "ovc_codes", spy)
    return calls


class TestNothingCutsAResidentRun:
    @pytest.mark.parametrize("compress_keys", [True, False])
    @pytest.mark.parametrize(
        "grant", [None, SqueezedGrant()], ids=["free", "squeezed"]
    )
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_threshold_and_grant_are_inert(
        self, ovc_calls, name, grant, compress_keys
    ):
        table, spec, expected = scenario_case(name)
        config = SortConfig(
            run_threshold=1000, compress_keys=compress_keys, memory_grant=grant
        )
        operator = SortOperator(table.schema, spec, config)
        assert_byte_identical(expected, run_operator(operator, table))
        stats = operator.stats
        assert stats.runs_generated == 1
        assert stats.run_lengths == [ROWS]
        assert stats.governor_forced_spills == 0
        assert stats.key_layout_rebases == 0
        # The run is the result; only a truncating prefix takes a pass.
        passes = 0 if stats.prefix_exact else 1
        assert stats.merge_passes == stats.kernel_kway_merges == passes
        assert ovc_calls == []

    @pytest.mark.parametrize("name", ["long_string", "mixed_null"])
    def test_truncating_prefix_is_still_repaired(self, name):
        table, spec, expected = scenario_case(name)
        operator = SortOperator(table.schema, spec)
        assert_byte_identical(expected, run_operator(operator, table))
        stats = operator.stats
        assert not stats.prefix_exact
        assert stats.runs_generated == 1
        assert stats.kernel_kway_merges == 1
        assert stats.reencoded_rows > 0
        assert stats.full_key_compares > 0

    def test_row_payload_with_strings_and_nulls_decodes_unmerged(self):
        # Not key-carried: the result comes from run.rows / run.heap,
        # NULL strings among the keys and the payload.
        table, spec, expected = scenario_case("tpcds_customer")
        operator = SortOperator(table.schema, spec)
        assert_byte_identical(expected, run_operator(operator, table))
        stats = operator.stats
        assert stats.prefix_exact
        assert stats.key_carried_runs == 0
        assert stats.kernel_kway_merges == 0
        assert None in table.column("c_last_name").to_pylist()

    def test_key_carried_run_decodes_from_its_keys(self):
        table, spec, expected = scenario_case("uniform")
        operator = SortOperator(table.schema, spec)
        assert_byte_identical(expected, run_operator(operator, table))
        assert operator.stats.key_carried_runs == 1
        assert operator.stats.kernel_kway_merges == 0

    def test_cancel_after_last_sink_stops_finalize(self):
        table, spec, _ = scenario_case("uniform")
        event = threading.Event()
        operator = SortOperator(
            table.schema, spec, SortConfig(cancel_event=event)
        )
        for chunk in chunk_table(table, 1024):
            operator.sink(chunk)
        event.set()
        with pytest.raises(SortCancelledError):
            operator.finalize()
        assert operator.stats.runs_generated == 0


class TestExternalMemoryFallback:
    def test_lone_fallback_run_is_the_result(self, ovc_calls, tmp_path):
        # Input below the threshold, spill target unwritable: the only
        # run stays resident and returns through the same shortcut.
        table, spec, expected = scenario_case("tpcds_customer")
        injector = FaultInjector([InjectedFault("enospc", times=None)])
        operator = ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(spill_retries=0, spill_retry_backoff_s=0.0),
            spill_directory=str(tmp_path),
            io=injector,
        )
        with operator, pytest.warns(RuntimeWarning, match="degrading"):
            result = run_operator(operator, table)
        assert_byte_identical(expected, result)
        stats = operator.stats
        assert stats.runs_generated == stats.memory_run_fallbacks == 1
        assert stats.merge_passes == stats.kernel_kway_merges == 0
        # The failed spill attempt is what read the codes.
        assert ovc_calls == [ROWS]


class TestCodesOnFirstRead:
    def test_resident_run_computes_codes_once_when_read(self, ovc_calls):
        table, spec, _ = scenario_case("dup_heavy")
        generator = rungen.RunGenerator(
            table.schema, spec, SortConfig(), SortStats(), lambda: None
        )
        run = generator.sort_run(*generator.encode(list(chunk_table(table))))
        assert isinstance(run, InMemoryRun)
        assert ovc_calls == []
        codes = run.ovc
        assert ovc_calls == [ROWS]
        assert np.array_equal(codes, ovc_codes(run.keys[:, :-ROW_ID_WIDTH]))
        assert run.ovc is codes and ovc_calls == [ROWS]

    @pytest.mark.parametrize("name", ["dup_heavy", "long_string"])
    def test_spill_frame_holds_the_codes_of_the_spilled_keys(
        self, name, tmp_path
    ):
        table, spec, expected = scenario_case(name)
        with ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=3000), str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, 1000):
                operator.sink(chunk)
            assert operator.spilled_runs == 3
            for run in operator._runs:
                frames = unpack_extra(run.header.extra, run.path)
                keys = run.read_key_block(0, run.num_rows)
                assert (
                    frames[EXTRA_TAG_OVC]
                    == ovc_codes(keys[:, :-ROW_ID_WIDTH]).astype("<u2").tobytes()
                )
            assert_byte_identical(expected, operator.finalize())
