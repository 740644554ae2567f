"""Real wall-clock benchmarks of the production sort operator itself.

Unlike the figure benchmarks (which time the simulation harness), these
time the actual numpy-backed sort: run generation, top-N, and the
external sort's multi-run merge, plus the scalar reference sort beside it.
"""

import numpy as np
import pytest

from repro.sort.operator import SortConfig, sort_table
from repro.sort.reference import reference_sort
from repro.sort.topn import top_n
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.tpcds import catalog_sales, customer

N = 100_000


@pytest.fixture(scope="module")
def int_table():
    rng = np.random.default_rng(0)
    return Table.from_numpy(
        {
            "a": rng.integers(0, 1000, N).astype(np.int32),
            "b": rng.integers(0, 1 << 30, N).astype(np.int32),
        }
    )


def test_radix_sort_two_int_keys(benchmark, int_table):
    spec = SortSpec.of("a", "b")
    result = benchmark(lambda: sort_table(int_table, spec))
    assert result.is_sorted_by(spec)


def test_string_sort_pdq(benchmark):
    table = customer(20_000, 100, seed=4)
    spec = SortSpec.of("c_last_name", "c_first_name")
    result = benchmark(lambda: sort_table(table, spec))
    assert result.is_sorted_by(spec)


def test_catalog_sales_four_keys(benchmark):
    table = catalog_sales(50_000, 10, seed=4)
    spec = SortSpec.of(
        "cs_warehouse_sk", "cs_ship_mode_sk", "cs_promo_sk", "cs_quantity"
    )
    result = benchmark(lambda: sort_table(table, spec))
    assert result.is_sorted_by(spec)


def test_top_100(benchmark, int_table):
    spec = SortSpec.of("a", "b")
    result = benchmark(lambda: top_n(int_table, spec, 100))
    assert result.num_rows == 100


def test_external_sort(benchmark, int_table):
    spec = SortSpec.of("a", "b")
    config = SortConfig(external=True, run_threshold=N // 4)
    result = benchmark.pedantic(
        lambda: sort_table(int_table, spec, config),
        rounds=1,
        iterations=1,
    )
    assert result.is_sorted_by(spec)


# --------------------------------------------------------------------- #
# Vectorized pipeline vs. the scalar reference sort on one table
# --------------------------------------------------------------------- #

KERNEL_N = 200_000


@pytest.fixture(scope="module")
def int64_table():
    rng = np.random.default_rng(7)
    return Table.from_numpy(
        {"v": rng.integers(-(1 << 62), 1 << 62, KERNEL_N).astype(np.int64)}
    )


def test_kernel_sort_200k_int64(benchmark, int64_table):
    spec = SortSpec.of("v")
    result = benchmark(lambda: sort_table(int64_table, spec))
    assert result.is_sorted_by(spec)


def test_reference_sort_200k_int64(benchmark, int64_table):
    spec = SortSpec.of("v")
    result = benchmark.pedantic(
        lambda: reference_sort(int64_table, spec), rounds=1, iterations=1
    )
    assert result.is_sorted_by(spec)
