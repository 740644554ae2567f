"""A physical operator is its chunks; the engine's answers are SQL's.

Every operator produces rows one way, ``chunks()``, and the base
``PhysicalOperator.table()`` joins them: no operator overrides
``table()`` or keeps a second whole-output path.  The differential runs
WHERE, projection, LIMIT/OFFSET with and without ORDER BY, subquery
LIMITs, global ``count(*)``, GROUP BY and JOIN over two catalog
scenarios against ``sqlite3``.  A query without ORDER BY is compared,
in order, against the rows a numpy scan of the table selects.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.engine import operators
from repro.engine.database import Database
from repro.engine.operators import LimitOperator, PhysicalOperator
from repro.errors import BindError
from repro.sort.external import ExternalSortOperator
from repro.table.chunk import chunk_table
from repro.workloads.scenarios import SCENARIOS


def subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found += [sub, *subclasses(sub)]
    return found


class TestOneProtocol:
    def test_every_operator_defines_chunks_and_nothing_else(self):
        classes = subclasses(PhysicalOperator)
        assert {cls.__name__ for cls in classes} >= {
            name for name in operators.__all__ if name.endswith("Operator")
        } - {"PhysicalOperator"}
        for cls in classes:
            assert "chunks" in vars(cls), cls.__name__
            assert not {"table", "whole_chunk", "resident"} & set(vars(cls))
        for gone in ("whole_chunk", "resident"):
            assert not hasattr(PhysicalOperator, gone)
        assert not hasattr(operators, "_whole_or_streamed")

    def test_limit_slices_its_childs_chunks_and_stops_once_filled(self):
        table = SCENARIOS["uniform"].table(3000, seed=2)
        pulled: list[int] = []

        class Vectors(PhysicalOperator):
            def chunks(self):
                for part in chunk_table(table, 1000):
                    pulled.append(len(part))
                    yield part

        limit = LimitOperator(Vectors(table.schema), 1200, offset=700)
        assert [len(part) for part in limit.chunks()] == [300, 900]
        assert pulled == [1000, 1000]
        assert limit.table().equals(table.slice(700, 1900))

    def test_the_external_sort_cancels_through_its_event_only(self):
        assert not hasattr(ExternalSortOperator, "cancel")


def rows_of(table) -> list[tuple]:
    return list(zip(*(table.column(n).to_pylist() for n in table.schema.names)))


class Differential:
    """One scenario's tables, in the engine and in sqlite3."""

    def __init__(self, name: str, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.t = SCENARIOS[name].table(2000, seed=seed)
        self.r = self.t.take(np.sort(self.rng.choice(2000, 300, replace=False)))
        self.db = Database()
        self.lite = sqlite3.connect(":memory:")
        for table_name, table in (("t", self.t), ("r", self.r)):
            self.db.register(table_name, table)
            self.lite.execute(
                f"CREATE TABLE {table_name} (a INTEGER, p INTEGER)"
            )
            self.lite.executemany(
                f"INSERT INTO {table_name} VALUES (?, ?)", rows_of(table)
            )

    def cut(self, column: str) -> int:
        data = self.t.column(column).data
        return int(np.quantile(data, self.rng.uniform(0.1, 0.9)))

    def ours(self, sql: str) -> list[tuple]:
        return rows_of(self.db.execute(sql))

    def sqlite(self, sql: str) -> list[tuple]:
        return self.lite.execute(sql).fetchall()

    def scan(self, mask, offset: int = 0, limit: int | None = None):
        """The rows a numpy scan selects, in table order."""
        ids = np.flatnonzero(mask)[offset:]
        ids = ids if limit is None else ids[:limit]
        a, p = (self.t.column(name).data[ids].tolist() for name in ("a", "p"))
        return list(zip(a, p))


CASES = [("uniform", 3), ("uniform", 11), ("dup_heavy", 5), ("dup_heavy", 23)]


@pytest.fixture(params=CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def case(request):
    differential = Differential(*request.param)
    yield differential
    differential.lite.close()


class TestSqliteDifferential:
    def test_ordered_queries_match_sqlite_row_for_row(self, case):
        k, kp = case.cut("a"), case.cut("p")
        n, m = (int(v) for v in case.rng.integers(1, 400, 2))
        same = [
            f"SELECT * FROM t WHERE a > {k} ORDER BY p",
            f"SELECT p, a FROM t WHERE a <= {k} ORDER BY p LIMIT {n} OFFSET {m}",
            f"SELECT * FROM t ORDER BY a DESC, p LIMIT {n}",
            f"SELECT * FROM t WHERE a > {k} AND p < {kp} ORDER BY a, p LIMIT 0",
            f"SELECT * FROM (SELECT * FROM t WHERE a > {k} ORDER BY p "
            f"LIMIT {n}) q ORDER BY a, p",
            f"SELECT a FROM (SELECT * FROM t ORDER BY p LIMIT {n} OFFSET {m}) q "
            f"WHERE a > {k} ORDER BY p",
            f"SELECT * FROM t ORDER BY p LIMIT 5 OFFSET 1995",
            f"SELECT count(*) FROM t WHERE a > {k}",
            f"SELECT count(*) FROM t WHERE a > {k} LIMIT 5",
            f"SELECT count(*) FROM t WHERE a > {k} LIMIT 0",
            f"SELECT count(*) FROM t WHERE a > {k} LIMIT 1 OFFSET 1",
            f"SELECT count(*) FROM (SELECT * FROM t WHERE a > {k} LIMIT {n}) q",
            f"SELECT count(*) FROM (SELECT * FROM t ORDER BY a, p LIMIT {n}) q",
        ]
        for sql in same:
            assert case.ours(sql) == case.sqlite(sql), sql
        differ = {
            # sqlite needs LIMIT before OFFSET, and names the count.
            f"SELECT count(*) FROM (SELECT * FROM t ORDER BY a, p OFFSET {m}) q":
            f"SELECT count(*) FROM (SELECT * FROM t ORDER BY a, p "
            f"LIMIT -1 OFFSET {m}) q",
            f"SELECT * FROM t ORDER BY p OFFSET {m}":
            f"SELECT * FROM t ORDER BY p LIMIT -1 OFFSET {m}",
            f"SELECT count(*) FROM t WHERE p > {kp} ORDER BY count_star LIMIT 3":
            f"SELECT count(*) AS count_star FROM t WHERE p > {kp} "
            "ORDER BY count_star LIMIT 3",
            f"SELECT a, count(*), min(p), max(p) FROM t WHERE p > {kp} GROUP BY a":
            # A numeric min/max is a DOUBLE.
            "SELECT a, count(*), CAST(min(p) AS REAL), CAST(max(p) AS REAL) "
            f"FROM t WHERE p > {kp} GROUP BY a ORDER BY a",
            "SELECT a, count(*) FROM t GROUP BY a "
            "ORDER BY count_star DESC, a LIMIT 5 OFFSET 2":
            "SELECT a, count(*) AS count_star FROM t GROUP BY a "
            "ORDER BY count_star DESC, a LIMIT 5 OFFSET 2",
        }
        for sql, lite in differ.items():
            assert case.ours(sql) == case.sqlite(lite), sql

    def test_a_global_count_orders_by_its_own_column_only(self, case):
        with pytest.raises(BindError):
            case.db.execute("SELECT count(*) FROM t ORDER BY a")

    def test_joins_match_sqlite_as_multisets(self, case):
        kp = case.cut("p")
        joins = {
            "SELECT * FROM t JOIN r ON a = a":
            "SELECT * FROM t JOIN r ON t.a = r.a",
            f"SELECT * FROM (SELECT * FROM t WHERE p > {kp}) f JOIN r ON a = a":
            f"SELECT * FROM (SELECT * FROM t WHERE p > {kp}) f "
            "JOIN r ON f.a = r.a",
            f"SELECT count(*) FROM (SELECT * FROM t WHERE p > {kp}) f "
            "JOIN r ON a = a":
            f"SELECT count(*) FROM (SELECT * FROM t WHERE p > {kp}) f "
            "JOIN r ON f.a = r.a",
        }
        for sql, lite in joins.items():
            ours = case.ours(sql)
            assert len(ours) > 0, sql
            assert sorted(ours) == sorted(case.sqlite(lite)), sql

    def test_unordered_queries_follow_the_scan(self, case):
        a, p = (case.t.column(name).data for name in ("a", "p"))
        k, kp = case.cut("a"), case.cut("p")
        n, m = (int(v) for v in case.rng.integers(1, 400, 2))
        everything = np.ones(len(a), dtype=bool)
        scans = {
            f"SELECT * FROM t WHERE a > {k}": case.scan(a > k),
            f"SELECT * FROM t WHERE a > {k} LIMIT {n} OFFSET {m}":
            case.scan(a > k, m, n),
            f"SELECT * FROM t LIMIT {n} OFFSET {m}": case.scan(everything, m, n),
            f"SELECT * FROM t OFFSET {m}": case.scan(everything, m),
            f"SELECT * FROM t WHERE a <= {k} AND p > {kp} LIMIT {n}":
            case.scan((a <= k) & (p > kp), 0, n),
            f"SELECT * FROM (SELECT * FROM t WHERE a > {k}) q WHERE p > {kp} "
            f"LIMIT {n} OFFSET {m}": case.scan((a > k) & (p > kp), m, n),
            f"SELECT * FROM (SELECT * FROM t WHERE a > {k} LIMIT {n}) q "
            f"WHERE p > {kp}": [
                row for row in case.scan(a > k, 0, n) if row[1] > kp
            ],
        }
        for sql, expected in scans.items():
            assert case.ours(sql) == expected, sql
        # Projections keep the scan's rows and order.
        sql = f"SELECT p FROM (SELECT * FROM t WHERE a > {k}) q WHERE p > {kp}"
        expected = [(row[1],) for row in case.scan((a > k) & (p > kp))]
        assert case.ours(sql) == expected
        # Without a LIMIT the row set is SQL's, whatever the order.
        unlimited = f"SELECT * FROM t WHERE a > {k}", f"SELECT p FROM t WHERE p > {kp}"
        for sql in unlimited:
            assert sorted(case.ours(sql)) == sorted(case.sqlite(sql)), sql
