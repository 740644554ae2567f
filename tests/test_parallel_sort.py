"""Differential tests of the real multi-core parallel sort.

The acceptance bar of the parallel executor
(:mod:`repro.sort.parallel_exec`) is *byte identity*: for any worker
count, morsel size, type mix, direction, NULL placement, or duplication
level, the parallel path must produce exactly the bytes the serial
kernel path produces -- same column data, same validity masks -- because
every sub-sort is stable and every Merge-Path sub-merge resolves ties
like the serial kernels.  A cross-check also pins the executor's
*measured* schedule against the :func:`repro.engine.parallel.sort_phase_model`
prediction on an equal-cost workload.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from test_external_kway import assert_byte_identical, mixed_table
from repro.errors import SortError
from repro.engine.parallel import makespan, sort_phase_model
from repro.sort.external import external_sort_table
from repro.sort.kernels import argsort_rows
from repro.sort.operator import SortConfig, SortOperator, sort_table
from repro.sort.parallel_exec import (
    SHM_PREFIX,
    ParallelSortExecutor,
    parallel_platform_supported,
)
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec

pytestmark = pytest.mark.skipif(
    not parallel_platform_supported(),
    reason="platform lacks fork/POSIX shared memory",
)

WORKER_COUNTS = [1, 2, 4]

SPECS = [
    "a",
    "a DESC NULLS FIRST, s",
    "s NULLS FIRST, f DESC",
    "f DESC, a NULLS LAST, s DESC NULLS FIRST",
]


def parallel_config(num_workers, **overrides):
    defaults = dict(
        run_threshold=1500,
        parallel_morsel_rows=400,
        num_workers=num_workers,
    )
    defaults.update(overrides)
    return SortConfig(**defaults)


def duplicate_heavy_table(rng, n):
    """Two values in the key column: maximal tie pressure on the merge."""
    return Table.from_pydict(
        {
            "a": [int(v) for v in rng.integers(0, 2, n)],
            "row_id": list(range(n)),
        }
    )


class TestDifferentialByteIdentity:
    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    @pytest.mark.parametrize("spec", SPECS)
    def test_mixed_types_match_serial(self, rng, spec, num_workers):
        table = mixed_table(rng, 5000)
        serial = sort_table(table, spec, SortConfig(run_threshold=1500))
        parallel = sort_table(table, spec, parallel_config(num_workers))
        assert_byte_identical(serial, parallel)

    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_duplicate_heavy_keys(self, rng, num_workers):
        table = duplicate_heavy_table(rng, 4000)
        serial = sort_table(table, "a DESC", SortConfig(run_threshold=1000))
        parallel = sort_table(
            table, "a DESC", parallel_config(num_workers, run_threshold=1000)
        )
        assert_byte_identical(serial, parallel)

    @pytest.mark.parametrize("num_workers", WORKER_COUNTS)
    def test_empty_and_single_row(self, num_workers):
        empty = Table.from_pydict({"a": [], "b": []})
        one = Table.from_pydict({"a": [42], "b": ["x"]})
        config = parallel_config(num_workers)
        assert_byte_identical(
            sort_table(empty, "a", SortConfig()),
            sort_table(empty, "a", config),
        )
        assert_byte_identical(
            sort_table(one, "a DESC", SortConfig()),
            sort_table(one, "a DESC", config),
        )

    def test_stability_equal_keys_keep_input_order(self, rng):
        table = duplicate_heavy_table(rng, 3000)
        result = sort_table(
            table, "a", parallel_config(4, run_threshold=800)
        )
        values = result.column("a").data
        row_ids = result.column("row_id").data
        for key in (0, 1):
            within = row_ids[values == key]
            assert (np.diff(within) > 0).all(), (
                "equal keys must keep input (row-id) order"
            )

    @pytest.mark.parametrize("num_workers", [2, 4])
    def test_external_parallel_run_generation(
        self, rng, tmp_path, num_workers
    ):
        table = mixed_table(rng, 5000)
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        serial_dir.mkdir()
        parallel_dir.mkdir()
        serial = external_sort_table(
            table, "a, s DESC, f", SortConfig(run_threshold=1200),
            str(serial_dir),
        )
        parallel = external_sort_table(
            table,
            "a, s DESC, f",
            parallel_config(num_workers, run_threshold=1200),
            str(parallel_dir),
        )
        assert_byte_identical(serial, parallel)

    def test_parallel_stats_recorded(self, rng):
        table = mixed_table(rng, 4000)
        config = parallel_config(2)
        operator = SortOperator(table.schema, SortSpec.of("a"), config)
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        operator.finalize()
        stats = operator.stats
        assert stats.algorithm == "parallel-morsel"
        assert stats.parallel_workers == 2
        assert sum(stats.parallel_task_rows["run_gen"]) == 4000 or (
            # multiple runs: each run's morsels sum to its run size
            sum(stats.parallel_task_rows["run_gen"]) == table.num_rows
        )
        assert stats.parallel_makespan_s > 0.0
        assert stats.parallel_worker_seconds
        assert all(
            seconds >= 0.0
            for seconds in stats.parallel_worker_seconds.values()
        )


class TestExecutorKernelEquivalence:
    """The executor's permutations equal the serial kernels', exactly."""

    def test_argsort_matches_kernel(self, rng):
        matrix = rng.integers(0, 4, (20_000, 9), dtype=np.uint8)
        with ParallelSortExecutor(3, morsel_rows=3000) as executor:
            order = executor.argsort(matrix, 9)
            assert order is not None
            assert (order == argsort_rows(matrix)).all()

    def test_no_shared_memory_leaks(self, rng):
        matrix = rng.integers(0, 255, (4000, 9), dtype=np.uint8)
        with ParallelSortExecutor(2, morsel_rows=500) as executor:
            executor.argsort(matrix, 9)
        assert glob.glob(os.path.join("/dev/shm", SHM_PREFIX + "*")) == []


class TestFallbacks:
    def test_single_worker_is_serial(self, rng):
        executor = ParallelSortExecutor(1)
        assert not executor.available
        matrix = rng.integers(0, 255, (1000, 9), dtype=np.uint8)
        assert executor.argsort(matrix, 9) is None
        executor.close()

    def test_single_morsel_falls_back(self, rng):
        matrix = rng.integers(0, 255, (100, 9), dtype=np.uint8)
        with ParallelSortExecutor(2, morsel_rows=10_000) as executor:
            assert executor.argsort(matrix, 9) is None

    def test_unavailable_platform_falls_back(self, rng, monkeypatch):
        monkeypatch.setattr(
            "repro.sort.parallel_exec.parallel_platform_supported",
            lambda: False,
        )
        executor = ParallelSortExecutor(4)
        matrix = rng.integers(0, 255, (5000, 9), dtype=np.uint8)
        assert executor.argsort(matrix, 9) is None
        executor.close()
        # The operator still sorts correctly through the serial path.
        table = mixed_table(np.random.default_rng(5), 2000)
        serial = sort_table(table, "a", SortConfig(run_threshold=600))
        parallel = sort_table(table, "a", parallel_config(4, run_threshold=600))
        assert_byte_identical(serial, parallel)

    def test_scalar_kernels_stay_serial(self, rng):
        table = mixed_table(rng, 2000)
        config = parallel_config(2, use_vector_kernels=False)
        operator = SortOperator(table.schema, SortSpec.of("a"), config)
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        result = operator.finalize()
        assert operator.stats.parallel_workers == 0
        assert_byte_identical(
            sort_table(table, "a", SortConfig()), result
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(SortError):
            SortConfig(num_workers=0)
        with pytest.raises(SortError):
            SortConfig(parallel_morsel_rows=0)
        with pytest.raises(SortError):
            ParallelSortExecutor(0)


class TestPhaseModelCrossCheck:
    """Measured schedule vs. PhaseModel prediction (placement, not time)."""

    def test_equal_cost_workload_matches_model(self, rng):
        num_workers, morsel_rows, n = 2, 1000, 8000
        table = Table.from_pydict(
            {"a": [int(v) for v in rng.integers(0, 1 << 30, n)]}
        )
        config = SortConfig(
            run_threshold=n,
            num_workers=num_workers,
            parallel_morsel_rows=morsel_rows,
        )
        operator = SortOperator(table.schema, SortSpec.of("a"), config)
        for chunk in chunk_table(table, 2048):
            operator.sink(chunk)
        operator.finalize()
        stats = operator.stats

        model = sort_phase_model(n, num_workers, morsel_rows)
        # Same phases in the same order.
        assert [name for name, _ in model.phases] == list(
            stats.parallel_task_rows
        )
        # On an equal-cost workload (cost == rows) the model's per-phase
        # makespan must equal list-scheduling the *measured* task rows:
        # same task placement shape, by construction of both sides.
        for name, predicted in model.phases:
            measured_rows = stats.parallel_task_rows[name]
            assert makespan(measured_rows, num_workers) == predicted
            assert len(stats.parallel_task_seconds[name]) == len(
                measured_rows
            )
        # Every phase moves all n rows exactly once.
        for name, rows in stats.parallel_task_rows.items():
            assert sum(rows) == n, name
        # Per-worker busy time accounts for every task second.
        total_task = sum(
            sum(seconds) for seconds in stats.parallel_task_seconds.values()
        )
        total_worker = sum(stats.parallel_worker_seconds.values())
        assert total_worker == pytest.approx(total_task)
        assert len(stats.parallel_worker_seconds) <= num_workers


class TestCliWorkers:
    def test_sort_csv_with_workers(self, rng, tmp_path, capsys):
        from repro.cli import main

        n = 2000
        path = tmp_path / "data.csv"
        values = rng.integers(0, 50, n)
        with open(path, "w") as handle:
            handle.write("a,b\n")
            for i, v in enumerate(values):
                handle.write(f"{v},{i}\n")
        assert main(["sort", str(path), "--by", "a DESC"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(
                [
                    "sort",
                    str(path),
                    "--by",
                    "a DESC",
                    "--workers",
                    "2",
                    "--run-threshold",
                    "600",
                ]
            )
            == 0
        )
        parallel = capsys.readouterr().out
        # Identical CSV apart from run-threshold-independent ordering:
        # the sort is total (row-id tiebreak), so bytes must match.
        assert serial == parallel

    def test_workers_must_be_positive(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "data.csv"
        path.write_text("a\n1\n")
        assert (
            main(["sort", str(path), "--by", "a", "--workers", "0"]) == 1
        )
        assert "--workers" in capsys.readouterr().err
