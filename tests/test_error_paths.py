"""Error-path and edge-case coverage across the library."""

import numpy as np
import pytest

from repro.analysis.comparisons import (
    comparison_budget,
    crossover_runs,
    merge_comparisons,
    run_generation_comparisons,
    run_generation_share,
)
from repro.errors import (
    KeyEncodingError,
    ReproError,
    SimulationError,
    SortError,
)
from repro.keys.normalizer import build_layout, normalize_keys
from repro.scalar.decoder import decode_key_row, decode_segment
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig, SortOperator, sort_table
from repro.table.chunk import DataChunk
from repro.table.table import Table
from repro.types.sortspec import SortSpec


class TestDecoderErrors:
    def test_segment_wrong_length(self):
        table = Table.from_pydict({"a": [1]})
        layout = build_layout(table, SortSpec.of("a"), include_row_id=False)
        with pytest.raises(KeyEncodingError):
            decode_segment(b"\x00", layout.segments[0])

    def test_invalid_null_indicator(self):
        table = Table.from_pydict({"a": [1]})
        layout = build_layout(table, SortSpec.of("a"), include_row_id=False)
        segment = layout.segments[0]
        bad = bytes([0x7F]) + b"\x00" * segment.value_width
        with pytest.raises(KeyEncodingError):
            decode_segment(bad, segment)

    def test_decode_row_accepts_ndarray(self):
        table = Table.from_pydict({"a": [7]})
        keys = normalize_keys(table, SortSpec.of("a"), include_row_id=False)
        assert decode_key_row(keys.matrix[0], keys.layout) == (7,)

    def test_descending_decode_round_trip(self):
        table = Table.from_pydict({"a": [-5, 0, 5]})
        keys = normalize_keys(table, SortSpec.of("a DESC"), include_row_id=False)
        for i, expected in enumerate((-5, 0, 5)):
            assert decode_key_row(keys.matrix[i], keys.layout) == (expected,)


class TestAnalysisValidation:
    @pytest.mark.parametrize("n,k", [(0, 1), (10, 0), (4, 5)])
    def test_rejects_bad_shapes(self, n, k):
        with pytest.raises(SortError):
            run_generation_comparisons(n, k)
        with pytest.raises(SortError):
            merge_comparisons(n, k)

    def test_crossover_positive_only(self):
        with pytest.raises(SortError):
            crossover_runs(0)

    def test_single_run_no_merge(self):
        budget = comparison_budget(1024, 1)
        assert budget.merge == 0.0
        assert not budget.merge_dominates

    def test_n_equals_k(self):
        assert run_generation_comparisons(8, 8) == 0.0
        assert run_generation_share(8, 8) == 0.0

    def test_merge_dominates_past_sqrt_n(self):
        n = 1 << 16
        assert not comparison_budget(n, 4).merge_dominates
        assert comparison_budget(n, 1024).merge_dominates


class TestOperatorEdgeCases:
    def test_all_nulls_key_column(self):
        table = Table.from_pydict({"a": [None, None, None], "b": [3, 1, 2]})
        result = sort_table(table, "a, b")
        assert result.column("b").to_pylist() == [1, 2, 3]

    def test_single_distinct_value_radix(self):
        table = Table.from_pydict({"a": [42] * 100, "seq": list(range(100))})
        result = sort_table(table, "a", SortConfig(run_threshold=16))
        assert result.column("seq").to_pylist() == list(range(100))

    def test_empty_strings_sort_before_others(self):
        table = Table.from_pydict({"s": ["b", "", "a", None]})
        result = sort_table(table, "s NULLS LAST")
        assert result.column("s").to_pylist() == ["", "a", "b", None]

    def test_negative_and_positive_floats(self):
        values = [0.0, -0.0, 1.5, -1.5, float("inf"), float("-inf")]
        table = Table.from_pydict({"f": values})
        result = sort_table(table, "f")
        out = result.column("f").to_pylist()
        assert out[0] == float("-inf") and out[-1] == float("inf")
        assert out[1] == -1.5 and out[-2] == 1.5

    def test_nan_sorts_last_ascending(self):
        table = Table.from_pydict({"f": [float("nan"), 1.0, None, -1.0]})
        result = sort_table(table, "f NULLS LAST")
        out = result.column("f").to_pylist()
        assert out[0] == -1.0 and out[1] == 1.0
        assert out[2] != out[2]  # NaN
        assert out[3] is None

    def test_date_column_sorts_as_days(self):
        from repro.types.datatypes import DATE

        table = Table.from_pydict(
            {"d": [20000, -1, 0, 11000]}, dtypes={"d": DATE}
        )
        result = sort_table(table, "d")
        assert result.column("d").to_pylist() == [-1, 0, 11000, 20000]

    def test_smallint_and_boolean_keys(self):
        from repro.types.datatypes import BOOLEAN, SMALLINT

        table = Table.from_pydict(
            {"s": [3, -2, 0], "b": [True, False, True]},
            dtypes={"s": SMALLINT, "b": BOOLEAN},
        )
        result = sort_table(table, "b, s")
        assert result.column("b").to_pylist() == [False, True, True]
        assert result.column("s").to_pylist() == [-2, -2 + 2, 3]

    def test_many_key_columns(self):
        rng = np.random.default_rng(0)
        data = {
            f"k{i}": [int(v) for v in rng.integers(0, 3, 200)]
            for i in range(8)
        }
        table = Table.from_pydict(data)
        spec = SortSpec.of(*[f"k{i}" for i in range(8)])
        result = sort_table(table, spec, SortConfig(run_threshold=64))
        assert result.is_sorted_by(spec)

    def test_operator_reports_prefix_exact_flag(self):
        table = Table.from_pydict({"s": ["x" * 30, "y"]})
        from repro.table.chunk import chunk_table

        operator = SortOperator(table.schema, SortSpec.of("s"))
        for chunk in chunk_table(table):
            operator.sink(chunk)
        operator.finalize()
        assert not operator.stats.prefix_exact

    @pytest.mark.parametrize("good_chunks", [0, 1], ids=["first", "later"])
    @pytest.mark.parametrize(
        "operator_class", [SortOperator, ExternalSortOperator]
    )
    def test_wrong_chunk_is_rejected_at_sink(self, operator_class, good_chunks):
        # Both operators refuse a chunk of another schema when it is
        # sunk, with the same error -- not at the next spill or at
        # finalize, after buffering it.
        table = Table.from_pydict({"a": [3, 1, 2], "b": [1, 2, 3]})
        wrong = Table.from_pydict({"a": [3, 1, 2], "c": [1, 2, 3]})
        with operator_class(table.schema, SortSpec.of("a")) as operator:
            for _ in range(good_chunks):
                operator.sink(DataChunk.from_table(table))
            with pytest.raises(SortError, match="does not match"):
                operator.sink(DataChunk.from_table(wrong))
            result = operator.finalize()
        assert result.num_rows == 3 * good_chunks


class TestTopNSmallCapacities:
    def test_limit_one_is_min(self, rng):
        from repro.sort.topn import top_n

        values = [int(v) for v in rng.integers(0, 10_000, 500)]
        table = Table.from_pydict({"a": values})
        out = top_n(table, "a", 1)
        assert out.column("a").to_pylist() == [min(values)]

    def test_desc_limit_one_is_max(self, rng):
        from repro.sort.topn import top_n

        values = [int(v) for v in rng.integers(0, 10_000, 500)]
        table = Table.from_pydict({"a": values})
        out = top_n(table, "a DESC", 1)
        assert out.column("a").to_pylist() == [max(values)]


class TestWorkloadEdges:
    def test_zero_rows(self):
        from repro.workloads.distributions import (
            generate_key_columns,
            random_distribution,
        )

        values = generate_key_columns(random_distribution(), 0, 2)
        assert values.shape == (0, 2)

    def test_tpcds_zero_rows(self):
        from repro.workloads.tpcds import catalog_sales, customer

        assert catalog_sales(0).num_rows == 0
        assert customer(0).num_rows == 0


class TestSimValidation:
    def test_machine_measure_nested_regions(self):
        from repro.sim.machine import Machine

        machine = Machine()
        region = machine.arena.alloc(64)
        with machine.measure() as outer:
            machine.read(region.base, 4)
            with machine.measure() as inner:
                machine.read(region.base, 4)
        assert inner.counters.reads == 1
        assert outer.counters.reads == 2

    def test_cost_model_zero_counters(self):
        from repro.sim.counters import PerfCounters
        from repro.sim.machine import CostModel

        assert CostModel().cycles(PerfCounters()) == 0.0

    def test_run_micro_rejects_bad_values(self):
        from repro.simsort.harness import run_micro

        with pytest.raises(SimulationError):
            run_micro(
                np.zeros((2, 2, 2), dtype=np.uint32), "row", "tuple"
            )
