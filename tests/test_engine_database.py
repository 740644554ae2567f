"""Tests for binding, the optimizer rules, operators, and end-to-end SQL."""

import sys

import numpy as np
import pytest

import repro.engine.operators as engine_operators
import repro.sort.operator as sort_operator
from conftest import reference_sort
from repro.engine.database import Database
from repro.engine.operators import SortExecOperator
from repro.engine.plan import (
    LogicalAggregate,
    LogicalGroupBy,
    LogicalJoin,
    LogicalLimit,
    LogicalSort,
    LogicalTopN,
)
from repro.errors import BindError, EngineError, SimulationError
from repro.systems.parallel import PhaseModel, makespan, merge_tree_makespan
from repro.table.table import Table
from repro.types.sortspec import SortSpec


@pytest.fixture
def db(rng) -> Database:
    database = Database()
    database.register(
        "t",
        Table.from_numpy(
            {
                "a": rng.integers(0, 20, 500).astype(np.int32),
                "b": rng.integers(0, 1000, 500).astype(np.int32),
            }
        ),
    )
    database.register(
        "nullt",
        Table.from_pydict({"x": [3, None, 1, None, 2], "y": [1, 2, 3, 4, 5]}),
    )
    return database


class TestCatalog:
    def test_unknown_table(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT * FROM ghost")

    def test_invalid_name(self, db):
        with pytest.raises(EngineError):
            db.register("not a name", Table.from_pydict({"a": [1]}))

    def test_unknown_column(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT nope FROM t")

    def test_unknown_order_column(self, db):
        with pytest.raises(BindError):
            db.execute("SELECT a FROM t ORDER BY nope")


class TestOptimizerRules:
    def test_sort_under_count_is_dropped(self, db):
        plan = db.plan("SELECT count(*) FROM (SELECT a FROM t ORDER BY b) q")
        assert "Sort" not in db.explain(
            "SELECT count(*) FROM (SELECT a FROM t ORDER BY b) q"
        )
        assert isinstance(plan, LogicalAggregate)

    def test_offset_keeps_the_sort(self, db):
        # The paper's trick: OFFSET 1 outmaneuvers the optimizer.
        text = db.explain(
            "SELECT count(*) FROM (SELECT a FROM t ORDER BY b OFFSET 1) q"
        )
        assert "Sort" in text and "Limit" in text

    def test_order_limit_becomes_topn(self, db):
        plan = db.plan("SELECT * FROM t ORDER BY a LIMIT 5")
        assert isinstance(plan, LogicalTopN)

    def test_unoptimized_plan_keeps_sort(self, db):
        plan = db.plan(
            "SELECT count(*) FROM (SELECT a FROM t ORDER BY b) q",
            optimize=False,
        )
        assert isinstance(plan.child.child, LogicalSort)

    def test_limit_without_order_stays_limit(self, db):
        plan = db.plan("SELECT * FROM t LIMIT 5")
        assert isinstance(plan, LogicalLimit)

    def test_breaker_inputs_are_sort_nodes(self, db):
        group_by = db.plan("SELECT a, count(*) FROM t GROUP BY a").child
        assert isinstance(group_by, LogicalGroupBy)
        assert isinstance(group_by.child, LogicalSort)
        assert str(group_by.child.spec) == "a ASC NULLS LAST"
        join = db.plan("SELECT * FROM t JOIN nullt ON a = x")
        assert isinstance(join, LogicalJoin)
        assert [str(side.spec) for side in (join.left, join.right)] == [
            "a ASC NULLS LAST",
            "x ASC NULLS LAST",
        ]


class TestExecution:
    def test_select_star(self, db):
        assert db.execute("SELECT * FROM t").num_rows == 500

    def test_projection(self, db):
        result = db.execute("SELECT b FROM t")
        assert result.schema.names == ("b",)

    def test_order_by_matches_reference(self, db):
        result = db.execute("SELECT a, b FROM t ORDER BY a DESC, b")
        expected = reference_sort(
            db.table("t"), SortSpec.of("a DESC", "b")
        )
        assert result.equals(expected)

    def test_count_star(self, db):
        result = db.execute("SELECT count(*) FROM t")
        assert result.to_pydict() == {"count_star": [500]}

    def test_paper_benchmark_query(self, db):
        result = db.execute(
            "SELECT count(*) FROM (SELECT a FROM t ORDER BY b OFFSET 1) q"
        )
        assert result.to_pydict() == {"count_star": [499]}

    def test_topn_equals_sort_limit(self, db):
        topn = db.execute("SELECT a, b FROM t ORDER BY b LIMIT 7 OFFSET 2")
        full = db.execute("SELECT a, b FROM t ORDER BY b")
        assert topn.equals(full.slice(2, 9))

    def test_limit_streams(self, db):
        assert db.execute("SELECT * FROM t LIMIT 3").num_rows == 3

    def test_offset_past_end(self, db):
        assert db.execute("SELECT * FROM t OFFSET 1000").num_rows == 0

    def test_nulls_last_default(self, db):
        result = db.execute("SELECT x FROM nullt ORDER BY x")
        assert result.column("x").to_pylist() == [1, 2, 3, None, None]

    def test_nulls_first(self, db):
        result = db.execute("SELECT x FROM nullt ORDER BY x NULLS FIRST")
        assert result.column("x").to_pylist() == [None, None, 1, 2, 3]

    def test_order_by_unprojected_column(self, db):
        # ORDER BY binds pre-projection, like real engines.
        result = db.execute("SELECT y FROM nullt ORDER BY x NULLS FIRST")
        assert result.column("y").to_pylist() == [2, 4, 3, 5, 1]

    def test_every_sort_runs_in_a_sort_node(self, db, monkeypatch):
        callers = []

        def recording(make):
            def wrapper(*args, **kwargs):
                caller = sys._getframe(1).f_locals.get("self")
                callers.append(type(caller).__name__)
                return make(*args, **kwargs)

            return wrapper

        for module in (sort_operator, engine_operators):
            monkeypatch.setattr(
                module,
                "make_sort_operator",
                recording(module.make_sort_operator),
            )
        db.execute("SELECT a, count(*), sum(b) FROM t GROUP BY a")
        db.execute("SELECT * FROM t JOIN nullt ON a = x")
        assert callers == [SortExecOperator.__name__] * 3

    def test_empty_table(self):
        db = Database()
        db.register("e", Table.from_pydict({"a": []}))
        assert db.execute("SELECT count(*) FROM e").to_pydict() == {
            "count_star": [0]
        }
        assert db.execute("SELECT a FROM e ORDER BY a").num_rows == 0


class TestVirtualTimeParallelism:
    def test_makespan_perfect_balance(self):
        assert makespan([1.0] * 8, 4) == 2.0

    def test_makespan_single_thread(self):
        assert makespan([3.0, 2.0], 1) == 5.0

    def test_makespan_dominated_by_longest(self):
        assert makespan([10.0, 1.0, 1.0], 4) == 10.0

    def test_makespan_validates(self):
        with pytest.raises(SimulationError):
            makespan([1.0], 0)
        with pytest.raises(SimulationError):
            makespan([-1.0], 2)

    def test_merge_path_speedup(self):
        runs = [1000.0] * 16
        naive = merge_tree_makespan(runs, 16, merge_path=False)
        parallel = merge_tree_makespan(runs, 16, merge_path=True)
        # The naive cascade's last round is single-threaded.
        assert parallel < naive
        assert naive / parallel > 4

    def test_merge_tree_single_run(self):
        assert merge_tree_makespan([100.0], 8) == 0.0

    def test_phase_model(self):
        model = PhaseModel(num_threads=4)
        model.phase("work", [1.0] * 8)
        model.sequential("fixup", 3.0)
        assert model.total == 5.0
        assert "fixup" in model.report()

    def test_phase_model_rejects_negative(self):
        with pytest.raises(SimulationError):
            PhaseModel(2).sequential("bad", -1.0)
