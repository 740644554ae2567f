"""Tests for the WHERE clause and the command-line interface."""

import operator

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import Database
from repro.engine.expressions import Comparison, Conjunction
from repro.engine.operators import FilterOperator, ScanOperator
from repro.errors import BindError, EngineError, ParseError
from repro.cli import EXPERIMENTS, main
from repro.table.io import read_csv, write_csv
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import BIGINT, VARCHAR
from repro.types.schema import ColumnDef, Schema


@pytest.fixture
def db(rng) -> Database:
    database = Database()
    database.register(
        "t",
        Table.from_pydict(
            {
                "a": [int(v) for v in rng.integers(0, 100, 400)],
                "s": [["x", "longer", None][i % 3] for i in range(400)],
            }
        ),
    )
    return database


class TestComparisonObjects:
    def test_invalid_op(self):
        with pytest.raises(EngineError):
            Comparison("a", "!=", 1)

    def test_empty_conjunction(self):
        with pytest.raises(EngineError):
            Conjunction(())

    def test_filter_chunk(self):
        # One chunk: the scan's vectors and the ids of the rows that pass.
        table = Table.from_pydict({"a": [1, 5, None, 9]})
        condition = Conjunction((Comparison("a", ">", 2),))
        [out] = FilterOperator(ScanOperator(table), condition).chunks()
        assert all(v is c for v, c in zip(out.vectors, table.columns))
        assert out.selection.tolist() == [1, 3]
        assert out.vector("a").to_pylist() == [5, 9]

    def test_filter_all_pass_returns_same_chunk(self):
        table = Table.from_pydict({"a": [1, 2]})
        condition = Conjunction((Comparison("a", ">=", 0),))
        [out] = FilterOperator(ScanOperator(table), condition).chunks()
        assert out.selection is None
        assert all(v is c for v, c in zip(out.vectors, table.columns))


class TestWhereClause:
    def test_numeric_predicates(self, db):
        out = db.execute("SELECT a FROM t WHERE a < 10")
        assert all(v < 10 for v in out.column("a").to_pylist())

    def test_and_conjunction(self, db):
        out = db.execute("SELECT a FROM t WHERE a >= 10 AND a <= 20")
        values = out.column("a").to_pylist()
        assert values and all(10 <= v <= 20 for v in values)

    def test_string_equality(self, db):
        out = db.execute("SELECT s FROM t WHERE s = 'x'")
        assert set(out.column("s").to_pylist()) == {"x"}

    def test_string_quoting_escape(self, db):
        db.register("q", Table.from_pydict({"s": ["it's", "plain"]}))
        out = db.execute("SELECT s FROM q WHERE s = 'it''s'")
        assert out.column("s").to_pylist() == ["it's"]

    def test_not_equal(self, db):
        out = db.execute("SELECT s FROM t WHERE s <> 'x'")
        assert set(out.column("s").to_pylist()) == {"longer"}

    def test_nulls_fail_comparisons(self, db):
        total = db.execute("SELECT count(*) FROM t").to_pydict()["count_star"][0]
        eq = db.execute("SELECT count(*) FROM (SELECT s FROM t WHERE s = 'x') q")
        ne = db.execute("SELECT count(*) FROM (SELECT s FROM t WHERE s <> 'x') q")
        nul = db.execute(
            "SELECT count(*) FROM (SELECT s FROM t WHERE s IS NULL) q"
        )
        counted = (
            eq.to_pydict()["count_star"][0]
            + ne.to_pydict()["count_star"][0]
            + nul.to_pydict()["count_star"][0]
        )
        assert counted == total

    def test_is_not_null(self, db):
        out = db.execute("SELECT s FROM t WHERE s IS NOT NULL")
        assert None not in out.column("s").to_pylist()

    def test_where_with_group_by_and_order(self, db):
        out = db.execute(
            "SELECT s, count(*) FROM t WHERE a < 50 AND s IS NOT NULL "
            "GROUP BY s ORDER BY s"
        )
        assert out.column("s").to_pylist() == ["longer", "x"]

    def test_where_matches_python_filter(self, db):
        out = db.execute("SELECT a, s FROM t WHERE a > 42 AND s = 'longer'")
        table = db.table("t")
        expected = [
            (a, s)
            for a, s in zip(
                table.column("a").to_pylist(), table.column("s").to_pylist()
            )
            if a is not None and a > 42 and s == "longer"
        ]
        got = list(
            zip(out.column("a").to_pylist(), out.column("s").to_pylist())
        )
        assert sorted(got) == sorted(expected)

    def test_type_mismatch_rejected(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT a FROM t WHERE a = 'x'")
        with pytest.raises(BindError):
            db.execute("SELECT s FROM t WHERE s < 5")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT a FROM t WHERE ghost = 1")

    def test_parse_errors(self, db):
        with pytest.raises(ParseError):
            db.execute("SELECT a FROM t WHERE a ==")
        with pytest.raises(ParseError):
            db.execute("SELECT a FROM t WHERE a <")
        with pytest.raises(ParseError):
            db.execute("SELECT a FROM t WHERE a IS MAYBE NULL")

    def test_float_literal(self, db):
        db.register("f", Table.from_pydict({"x": [0.5, 1.5, 2.5]}))
        out = db.execute("SELECT x FROM f WHERE x > 1.0")
        assert out.column("x").to_pylist() == [1.5, 2.5]

    def test_explain_shows_filter(self, db):
        text = db.explain("SELECT a FROM t WHERE a < 3")
        assert "Filter(a <" in text


ALPHABET = "a\x00é日😀"
"""Embedded and trailing NULs, 1/2/3/4-byte code points."""

COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def varchar_rows(database: Database, values: list, sql_tail: str) -> dict:
    """``row`` of every row ``WHERE s <op> literal`` keeps, per operator,
    through the whole-table filter and the streamed one (a LIMIT)."""
    table = Table(
        Schema((ColumnDef("s", VARCHAR), ColumnDef("row", BIGINT, False))),
        [
            ColumnVector.from_values(values, VARCHAR),
            ColumnVector.from_values(range(len(values)), BIGINT),
        ],
    )
    database.register("v", table)
    rows = {}
    paths = {"whole": "", "streamed": f" LIMIT {len(values)}"}
    for op in COMPARE:
        for path, limit in paths.items():
            sql = f"SELECT * FROM v WHERE s {op} {sql_tail}{limit}"
            rows[op, path] = database.execute(sql).column("row").to_pylist()
    return rows


class TestVarcharPredicates:
    """Python ``str`` order, trailing NULs included, on both filter paths."""

    def test_trailing_nul_is_kept(self):
        rows = varchar_rows(Database(), ["a", "a\x00", "b", None, ""], "'a'")
        for path in ("whole", "streamed"):
            assert rows["=", path] == [0]
            assert rows[">", path] == [1, 2]
            assert rows["<", path] == [4]

    @settings(max_examples=100, deadline=None)
    @example(values=["\x00", "", None, "a\x00", "a"], literal="")
    @given(
        values=st.lists(
            st.one_of(st.none(), st.text(alphabet=ALPHABET, max_size=4)),
            min_size=1,
            max_size=40,
        ),
        literal=st.text(alphabet=ALPHABET, max_size=4),
    )
    def test_every_operator_matches_python(self, values, literal):
        rows = varchar_rows(Database(), values, f"'{literal}'")
        for op, compare in COMPARE.items():
            want = [
                i
                for i, value in enumerate(values)
                if value is not None and compare(value, literal)
            ]
            assert rows[op, "whole"] == want, op
            assert rows[op, "streamed"] == want, op


def make_csv(tmp_path, name="in.csv"):
    path = tmp_path / name
    table = Table.from_pydict(
        {
            "country": ["NETHERLANDS", "GERMANY", None, "GERMANY"],
            "year": [1992, 1968, 1990, None],
        }
    )
    write_csv(table, str(path))
    return str(path)


class TestCli:
    def test_sort_to_file(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        out = str(tmp_path / "out.csv")
        code = main(
            ["sort", source, "--by", "country DESC NULLS LAST, year", "-o", out]
        )
        assert code == 0
        result = read_csv(out)
        assert result.column("country").to_pylist() == [
            "NETHERLANDS", "GERMANY", "GERMANY", None,
        ]

    def test_sort_to_stdout(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        assert main(["sort", source, "--by", "year"]) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("country,year")

    def test_sort_external_and_algorithm(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        code = main(
            ["sort", source, "--by", "year", "--run-threshold", "2"]
        )
        assert code == 0

    def test_sort_stats_spill_line(self, tmp_path, capsys):
        # One ``spill:`` line, and only when a run file was written.
        source = str(tmp_path / "ints.csv")
        rows = 700
        write_csv(
            Table.from_pydict(
                {
                    "a": [(i * 37) % 101 for i in range(rows)],
                    "b": list(range(rows)),
                }
            ),
            source,
        )
        sort = ["sort", source, "--by", "a, b", "--external", "--stats"]
        assert main(sort) == 0
        assert "spill:" not in capsys.readouterr().err
        assert main(sort + ["--run-threshold", "300"]) == 0
        (line,) = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("spill:")
        ]
        fields = dict(part.split("=") for part in line.split()[1:])
        assert list(fields) == [
            "key_carried_runs", "layout_rebases", "checksum_verifications",
            "retries", "failovers",
        ]
        assert int(fields["key_carried_runs"]) >= 1  # every column a key
        assert int(fields["checksum_verifications"]) >= 1  # a key block
        assert fields["retries"] == fields["failovers"] == "0"

    def test_sql(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        code = main(
            [
                "sql",
                "SELECT country, count(*) FROM c WHERE country IS NOT NULL "
                "GROUP BY country ORDER BY country",
                "--table",
                f"c={source}",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "GERMANY,2" in out

    def test_sql_explain(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        code = main(
            ["sql", "SELECT year FROM c ORDER BY year LIMIT 1",
             "--table", f"c={source}", "--explain"]
        )
        assert code == 0
        assert "TopN" in capsys.readouterr().out

    def test_sql_stats_reports_topn(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        code = main(
            ["sql", "SELECT year FROM c ORDER BY year LIMIT 2",
             "--table", f"c={source}", "--stats"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 3  # header + 2 rows
        assert "rows_sorted: " in captured.err
        assert "rows_sorted: 0" not in captured.err

    def test_sql_stats_reports_group_by_sort(self, tmp_path, capsys):
        source = make_csv(tmp_path)
        code = main(
            ["sql", "SELECT country, count(*) FROM c WHERE year IS NOT NULL "
             "GROUP BY country", "--table", f"c={source}", "--stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert err.count("rows_sorted:") == 1  # the GROUP BY's input sort
        assert "rows_sorted: 3\n" in err

    def test_sql_bad_table_spec(self, capsys):
        assert main(["sql", "SELECT 1 FROM t", "--table", "oops"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "figure-9" in out and "ablation-merge-path" in out

    def test_bench_runs_experiment(self, capsys):
        assert main(["bench", "table-4"]) == 0
        assert "catalog_sales" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "figure-99"]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "simulator" in capsys.readouterr().out

    def test_experiment_registry_complete(self):
        # Every paper exhibit with a bench target is reachable by id.
        for required in (
            "table-1", "table-2", "table-3", "table-4",
            "figure-2", "figure-4", "figure-6", "figure-8",
            "figure-9", "figure-10", "figure-12", "figure-13", "figure-14",
        ):
            assert required in EXPERIMENTS
