"""Tests for the extension features: heuristic algorithm choice, MSD+pdq
fallback, CSV I/O, compression/zone-map analysis, and SQL GROUP BY.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    rle_compression_ratio,
    rle_runs,
    sorting_benefit,
    zone_map_selectivity,
    zone_map_stats,
)
from repro.engine import Database
from repro.errors import BindError, ReproError, SortError, TypeError_
from repro.scalar.radix import RadixStats, msd_radix_argsort
from repro.scalar.reference import (
    SAMPLE_LIMIT,
    KeyStatistics,
    choose_algorithm,
    estimate_costs,
    reference_sort,
)
from repro.table.column import ColumnVector
from repro.table.io import read_csv, table_to_csv_string, write_csv
from repro.table.table import Table
from repro.types.datatypes import INTEGER, VARCHAR
from repro.types.sortspec import SortSpec


class TestHeuristic:
    def test_statistics_effective_bytes(self):
        matrix = np.zeros((100, 6), dtype=np.uint8)
        matrix[:, 2] = np.arange(100, dtype=np.uint8)
        matrix[:, 5] = 1  # constant: not effective
        stats = KeyStatistics.measure(matrix)
        assert stats.effective_bytes == 1

    def test_statistics_duplicates(self):
        matrix = np.zeros((100, 4), dtype=np.uint8)
        matrix[:, 3] = np.arange(100) % 4
        stats = KeyStatistics.measure(matrix)
        assert stats.duplicate_fraction > 0.9
        assert stats.distinct_ratio == pytest.approx(4 / 100)

    def test_statistics_sample_spans_the_input(self):
        # Between one and two sample windows the rows must still be drawn
        # from the whole input, not just its first SAMPLE_LIMIT rows.
        n = SAMPLE_LIMIT + SAMPLE_LIMIT // 2
        matrix = np.zeros((n, 2), dtype=np.uint8)
        matrix[SAMPLE_LIMIT:, 1] = np.arange(n - SAMPLE_LIMIT) % 251 + 1
        stats = KeyStatistics.measure(matrix)
        assert stats.effective_bytes == 1
        assert stats.duplicate_fraction < 0.99

    def test_statistics_validation(self):
        with pytest.raises(SortError):
            KeyStatistics.measure(np.zeros((2, 2), dtype=np.int32))
        with pytest.raises(SortError):
            KeyStatistics.measure(np.zeros((2, 2), dtype=np.uint8), key_bytes=5)

    def test_narrow_uniform_keys_choose_radix(self, rng):
        matrix = rng.integers(0, 256, size=(4096, 5)).astype(np.uint8)
        assert choose_algorithm(matrix) == "radix"

    def test_wide_nearly_unique_small_input_chooses_pdq(self, rng):
        # 64 rows with 64 varying bytes: radix would do 64 passes.
        matrix = rng.integers(0, 256, size=(64, 64)).astype(np.uint8)
        assert choose_algorithm(matrix) == "pdqsort"

    def test_cost_estimate_fields(self, rng):
        matrix = rng.integers(0, 256, size=(256, 8)).astype(np.uint8)
        estimate = estimate_costs(KeyStatistics.measure(matrix))
        assert estimate.radix_cost > 0 and estimate.pdqsort_cost > 0
        assert estimate.choice in ("radix", "pdqsort")

    def test_operator_heuristic_mode_correct(self, rng):
        table = Table.from_numpy(
            {"a": rng.integers(0, 1000, 2000).astype(np.int32)}
        )
        spec = SortSpec.of("a")
        result = reference_sort(table, spec, algorithm="heuristic")
        assert result.is_sorted_by(spec)

    def test_operator_heuristic_with_strings(self):
        values = ["x" * 20 + str(i) for i in (3, 1, 2)]
        table = Table.from_pydict({"s": values})
        result = reference_sort(
            table, SortSpec.of("s"), algorithm="heuristic"
        )
        assert result.column("s").to_pylist() == sorted(values)


class TestMsdPdqFallback:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(0, 150),
        width=st.integers(1, 8),
        seed=st.integers(0, 999),
    )
    def test_matches_plain_msd(self, n, width, seed):
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 8, size=(n, width)).astype(np.uint8)
        plain = msd_radix_argsort(matrix)
        hybrid = msd_radix_argsort(matrix, pdq_threshold=64)
        assert plain.tolist() == hybrid.tolist()

    def test_pdq_buckets_counted(self, rng):
        matrix = rng.integers(0, 4, size=(500, 8)).astype(np.uint8)
        stats = RadixStats()
        msd_radix_argsort(matrix, stats, pdq_threshold=200)
        assert stats.insertion_sorted_buckets > 0


class TestCsvIO:
    def test_round_trip_with_nulls(self, tmp_path):
        table = Table.from_pydict(
            {
                "i": [1, None, -3],
                "f": [1.5, 2.25, None],
                "s": ["a,b", None, "line"],
                "b": [True, False, None],
            }
        )
        path = str(tmp_path / "t.csv")
        write_csv(table, path)
        back = read_csv(path)
        assert back.equals(table)

    def test_type_inference(self):
        source = io.StringIO("a,b,c,d\n1,1.5,x,true\n2,2.5,y,false\n")
        table = read_csv(source)
        assert table.schema.column("a").dtype.name == "INTEGER"
        assert table.schema.column("b").dtype.name == "DOUBLE"
        assert table.schema.column("c").dtype.name == "VARCHAR"
        assert table.schema.column("d").dtype.name == "BOOLEAN"

    def test_bigint_inference(self):
        source = io.StringIO(f"a\n{2**40}\n")
        assert read_csv(source).schema.column("a").dtype.name == "BIGINT"

    def test_explicit_dtypes(self):
        source = io.StringIO("a\n1\n")
        table = read_csv(source, dtypes={"a": VARCHAR})
        assert table.column("a").to_pylist() == ["1"]

    def test_bad_value_for_dtype(self):
        source = io.StringIO("a\nxyz\n")
        with pytest.raises(TypeError_):
            read_csv(source, dtypes={"a": INTEGER})

    def test_missing_header(self):
        with pytest.raises(ReproError):
            read_csv(io.StringIO(""))

    def test_ragged_rows(self):
        with pytest.raises(ReproError):
            read_csv(io.StringIO("a,b\n1\n"))

    def test_to_string(self):
        table = Table.from_pydict({"a": [1, None]})
        # A lone NULL field is quoted ("") so it isn't an empty row.
        assert table_to_csv_string(table) == 'a\r\n1\r\n""\r\n' 

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-1000, 1000)),
                st.one_of(
                    st.none(),
                    st.text(
                        alphabet=st.characters(
                            blacklist_categories=("Cs", "Cc")
                        ),
                        min_size=1,
                        max_size=8,
                    ),
                ),
            ),
            max_size=20,
        )
    )
    def test_round_trip_property(self, rows):
        table = Table.from_pydict(
            {"i": [r[0] for r in rows], "s": [r[1] for r in rows]},
            dtypes={"i": INTEGER, "s": VARCHAR},
        )
        buffer = io.StringIO()
        write_csv(table, buffer)
        buffer.seek(0)
        back = read_csv(buffer, dtypes={"i": INTEGER, "s": VARCHAR})
        assert back.equals(table)


class TestCompressionAnalysis:
    def test_rle_runs_constant(self):
        col = ColumnVector.from_values([5, 5, 5])
        assert rle_runs(col) == 1

    def test_rle_runs_alternating(self):
        col = ColumnVector.from_values([1, 2, 1, 2])
        assert rle_runs(col) == 4

    def test_rle_nulls_form_runs(self):
        col = ColumnVector.from_values([1, None, None, 1])
        assert rle_runs(col) == 3

    def test_rle_strings(self):
        col = ColumnVector.from_values(["a", "a", "b"])
        assert rle_runs(col) == 2

    def test_compression_ratio(self):
        col = ColumnVector.from_values([7] * 100)
        assert rle_compression_ratio(col) == 100.0

    def test_zone_map_disjoint_after_sort(self):
        values = np.arange(1000, dtype=np.int32)
        col = ColumnVector.from_numpy(values)
        zone_map = zone_map_stats(col, block_size=100)
        assert zone_map.num_blocks == 10
        assert zone_map.blocks_matching(250, 260) == 1

    def test_zone_map_selectivity_random_is_high(self, rng):
        col = ColumnVector.from_numpy(
            rng.integers(0, 1000, 1000).astype(np.int32)
        )
        assert zone_map_selectivity(col, 400, 410, block_size=100) > 0.9

    def test_sorting_benefit_improves_both(self, rng):
        col = ColumnVector.from_numpy(
            rng.integers(0, 50, 5000).astype(np.int32)
        )
        benefit = sorting_benefit(col, 10, 12, block_size=128)
        assert benefit.rle_improvement > 10
        assert benefit.pruning_improvement > 2

    def test_zone_map_validation(self):
        with pytest.raises(ReproError):
            zone_map_stats(ColumnVector.from_values([1]), block_size=0)


class TestSqlGroupBy:
    @pytest.fixture
    def db(self, rng):
        database = Database()
        database.register(
            "sales",
            Table.from_pydict(
                {
                    "region": [["n", "s", "e"][i % 3] for i in range(90)],
                    "amount": [i % 10 for i in range(90)],
                }
            ),
        )
        return database

    def test_group_by_counts(self, db):
        out = db.execute(
            "SELECT region, count(*) FROM sales GROUP BY region ORDER BY region"
        )
        assert out.to_pydict() == {
            "region": ["e", "n", "s"],
            "count_star": [30, 30, 30],
        }

    def test_group_by_sum_avg(self, db):
        out = db.execute(
            "SELECT region, sum(amount), avg(amount) FROM sales "
            "GROUP BY region ORDER BY region"
        )
        assert out.column("sum_amount").to_pylist() == [135.0, 135.0, 135.0]
        assert out.column("avg_amount").to_pylist() == [4.5, 4.5, 4.5]

    def test_distinct_via_group_by(self, db):
        out = db.execute("SELECT region FROM sales GROUP BY region")
        assert sorted(out.column("region").to_pylist()) == ["e", "n", "s"]

    def test_order_by_aggregate_output(self, db):
        out = db.execute(
            "SELECT region, max(amount) FROM sales GROUP BY region "
            "ORDER BY max_amount DESC, region LIMIT 1"
        )
        assert out.num_rows == 1

    def test_count_star_with_group_by(self, db):
        out = db.execute("SELECT count(*) FROM sales GROUP BY region")
        assert out.column("count_star").to_pylist() == [30, 30, 30]

    def test_plain_column_must_be_grouped(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT amount, count(*) FROM sales GROUP BY region")

    def test_aggregate_without_group_by_rejected(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT sum(amount) FROM sales")

    def test_unknown_group_column(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT count(*) FROM sales GROUP BY ghost")

    def test_unknown_aggregate_column(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT region, sum(ghost) FROM sales GROUP BY region")

    def test_group_by_over_subquery(self, db):
        out = db.execute(
            "SELECT region, count(*) FROM "
            "(SELECT region, amount FROM sales ORDER BY amount LIMIT 30) q "
            "GROUP BY region ORDER BY region"
        )
        assert sum(out.column("count_star").to_pylist()) == 30
