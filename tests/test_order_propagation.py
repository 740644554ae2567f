"""Differential tests for planner-level order propagation.

Every fast path the order-property framework enables -- sort elision,
prefix subsumption, presorted GROUP BY/window, merge joins over
pre-sorted inputs, and LIMIT/OFFSET slices of cached results -- is
checked for **byte identity** against the same query run with
``propagate_order=False``: the differential oracle that re-sorts
everything in full.  The suites parameterize over the scenario catalog
(:mod:`repro.workloads.scenarios`), so skew, near-sortedness,
duplicate-heavy keys, NULL mixes, and truncated long-VARCHAR prefixes
all pass through the same assertions.

An input that provides only a proper leading prefix of the ORDER BY
has no fast path: the planner keeps the full sort, or Top-N under a
LIMIT, and the tests pin that plan and its byte identity.
"""

from __future__ import annotations

import pytest

from repro.engine import Database
from repro.service import SortService
from repro.sort.operator import SortConfig, sort_table
from repro.types.sortspec import SortSpec
from repro.window.functions import WindowFunction, WindowSpec, window
from repro.workloads.scenarios import SCENARIOS
from test_external_kway import assert_byte_identical

ROWS = 2_000
SEED = 29

ALL_SCENARIOS = sorted(SCENARIOS)


def _spec(order_by: str) -> SortSpec:
    return SortSpec.of(*(part.strip() for part in order_by.split(",")))


def _first_key(order_by: str) -> str:
    return order_by.split(",")[0].strip()


def _view_db(
    scenario: str,
    declared: str | None = None,
    rows: int = ROWS,
    config: SortConfig | None = None,
):
    """A database with view ``v``: the scenario table sorted+declared."""
    sc = SCENARIOS[scenario]
    declared = declared or sc.order_by
    db = Database(config)
    db.register("v", sort_table(sc.table(rows, seed=SEED), _spec(declared)))
    db.declare_ordering("v", declared)
    return db, sc


def _counters(stats_list):
    return {
        "elided": sum(s.sorts_elided for s in stats_list),
        "subsumed": sum(s.sorts_subsumed for s in stats_list),
    }


# Each scenario's ORDER BY over a view declared by its first key, plus
# mixed_null with its truncated VARCHAR ahead of a later key.
PREFIX_CASES = [
    pytest.param(name, SCENARIOS[name].order_by, id=name)
    for name in ALL_SCENARIOS
] + [
    pytest.param(
        "mixed_null", "a NULLS FIRST, s, f DESC", id="mixed_null-s_before_f"
    )
]


class TestSortElision:
    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_exact_order_elided_and_identical(self, scenario):
        db, sc = _view_db(scenario)
        sql = f"SELECT * FROM v ORDER BY {sc.order_by}"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert result.equals(forced), scenario
        assert _counters(stats)["elided"] == 1
        assert "elided" in db.explain(sql)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    def test_prefix_order_subsumed_and_identical(self, scenario):
        """ORDER BY a leading prefix of the declared ordering.

        The forced oracle stable-sorts the view table by the prefix
        alone: ties stay in view order, which IS the declared full
        ordering -- so skipping the sort is byte-identical.
        """
        db, sc = _view_db(scenario)
        sql = f"SELECT * FROM v ORDER BY {_first_key(sc.order_by)}"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert result.equals(forced), scenario
        assert _counters(stats)["subsumed"] == 1
        assert "subsumed" in db.explain(sql)

    @pytest.mark.parametrize("scenario, order_by", PREFIX_CASES)
    def test_provided_prefix_refined_and_identical(self, scenario, order_by):
        """Declared ordering covers only the first ORDER BY key.

        Nothing is refined: the planner keeps the plain full sort, so
        the output is the forced full re-sort's, byte for byte.
        """
        db, _ = _view_db(scenario, declared=_first_key(order_by))
        sql = f"SELECT * FROM v ORDER BY {order_by}"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert_byte_identical(result, forced)
        assert _counters(stats) == {"elided": 0, "subsumed": 0}
        plan_text = db.explain(sql)
        assert plan_text.startswith("Sort("), plan_text

    @pytest.mark.parametrize("scenario, order_by", PREFIX_CASES)
    def test_provided_prefix_under_limit_is_topn(self, scenario, order_by):
        """The same query under a LIMIT plans Top-N, like any full sort."""
        db, _ = _view_db(scenario, declared=_first_key(order_by))
        sql = f"SELECT * FROM v ORDER BY {order_by} LIMIT 37 OFFSET 5"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert_byte_identical(result, forced)
        assert result.num_rows == 37
        assert _counters(stats) == {"elided": 0, "subsumed": 0}
        plan_text = db.explain(sql)
        assert plan_text.startswith("TopN("), plan_text

    def test_provided_prefix_sort_honours_external_config(self, tmp_path):
        """A provided-prefix sort runs the *configured* full sort.

        With ``SortConfig.external`` it must spill like any other ORDER
        BY on the same database (spill reads are CRC-checked, so
        ``checksum_verifications`` observes them), not quietly sort in
        memory.
        """
        config = SortConfig(
            external=True,
            run_threshold=500,
            spill_directories=(str(tmp_path),),
        )
        db, _ = _view_db("mixed_null", declared="a NULLS FIRST", config=config)
        sql = "SELECT * FROM v ORDER BY a NULLS FIRST, s, f DESC"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert_byte_identical(result, forced)
        assert _counters(stats) == {"elided": 0, "subsumed": 0}
        assert sum(s.checksum_verifications for s in stats) > 0

    def test_propagation_off_is_the_oracle(self):
        """``propagate_order=False`` plans contain no elision markers."""
        db, sc = _view_db("uniform")
        sql = f"SELECT * FROM v ORDER BY {sc.order_by}"
        plan_text = db.explain(sql, propagate_order=False)
        assert "elided" not in plan_text
        assert "subsumed" not in plan_text
        _, stats = db.execute_bound(db.plan(sql, propagate_order=False))
        assert _counters(stats)["elided"] == 0


class TestPresortedAggregation:
    @pytest.mark.parametrize(
        "scenario", ["uniform", "dup_heavy", "long_string", "tpcds_catalog"]
    )
    def test_groupby_over_sorted_input(self, scenario):
        sc = SCENARIOS[scenario]
        key = _first_key(sc.order_by)
        other = next(
            c.name for c in sc.table(4, seed=SEED).schema.columns
            if c.name != key
        )
        db, _ = _view_db(scenario, declared=key)
        sql = f"SELECT {key}, count(*), sum({other}) FROM v GROUP BY {key}"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert result.equals(forced), scenario
        assert _counters(stats)["elided"] == 1
        group_by, sort = db.explain(sql).splitlines()[1:3]
        assert group_by.startswith("  GroupBy(keys=")
        assert sort.startswith("    Sort[elided: provided by Scan(v)]")

    def test_groupby_unsorted_input_still_sorts(self):
        db = Database()
        db.register("t", SCENARIOS["uniform"].table(ROWS, seed=SEED))
        sql = "SELECT a, count(*) FROM t GROUP BY a"
        result, stats = db.execute_detailed(sql)
        assert result.equals(db.execute(sql, propagate_order=False))
        assert _counters(stats)["elided"] == 0
        (sort,) = stats
        assert sort.rows_sorted == ROWS

    def test_window_presorted_fast_path(self):
        """Library-level window(): presorted=True is byte-identical."""
        table = SCENARIOS["dup_heavy"].table(ROWS, seed=SEED)
        spec = WindowSpec.of(partition_by=["a"], order_by=["p"])
        functions = [
            WindowFunction("row_number"),
            WindowFunction("running_sum", column="p", output="rsum"),
        ]
        baseline = window(table, spec, functions)
        presorted = window(
            sort_table(table, spec.sort_spec()),
            spec,
            functions,
            presorted=True,
        )
        assert presorted.equals(baseline)


class TestMergeJoin:
    @pytest.mark.parametrize(
        "sorted_sides", [(), ("l",), ("r",), ("l", "r")]
    )
    def test_join_elides_per_presorted_side(self, sorted_sides):
        sc = SCENARIOS["tpcds_catalog"]
        key = SortSpec.of("cs_item_sk")
        db = Database()
        for name, side, seed in (("l", "l", SEED), ("r", "r", SEED + 1)):
            table = sc.table(ROWS if side == "l" else ROWS // 2, seed=seed)
            if side in sorted_sides:
                db.register(name, sort_table(table, key))
                db.declare_ordering(name, "cs_item_sk")
            else:
                db.register(name, table)
        sql = "SELECT * FROM l JOIN r ON cs_item_sk = cs_item_sk"
        forced = db.execute(sql, propagate_order=False)
        result, stats = db.execute_detailed(sql)
        assert result.equals(forced)
        assert result.num_rows > 0, "join matched nothing; test is vacuous"
        assert _counters(stats)["elided"] == len(sorted_sides)
        # One Sort node per side, left then right.
        assert len(stats) == 2
        for side, sort in zip(("l", "r"), stats):
            if side in sorted_sides:
                assert (sort.sorts_elided, sort.rows_sorted) == (1, 0)
            else:
                rows = db.table(side).num_rows
                assert (sort.sorts_elided, sort.rows_sorted) == (0, rows)

    def test_string_key_join_beyond_prefix(self):
        """Join keys whose first 12 bytes collide: exact recheck path."""
        base = SCENARIOS["long_string"].table(400, seed=SEED)
        db = Database()
        db.register("l", base)
        db.register("r", base.slice(0, 150))  # guaranteed overlap
        sql = "SELECT * FROM l JOIN r ON s = s"
        forced = db.execute(sql, propagate_order=False)
        result, _ = db.execute_detailed(sql)
        assert result.equals(forced)
        assert result.num_rows >= 150


class TestIncrementalViewScan:
    def test_published_view_scan_elides(self):
        sc = SCENARIOS["uniform"]
        table = sc.table(ROWS, seed=SEED)
        db = Database()
        db.register("t", table)
        with SortService(
            db, memory_budget=64 << 20, workers=1, cache_capacity=4
        ) as service:
            service.maintain_view("mv", "t", sc.order_by)
            third = ROWS // 3
            for delta in (
                table.slice(0, third),
                table.slice(third, 2 * third),
                table.slice(2 * third, ROWS),
            ):
                service.append_delta("mv", delta).result(timeout=60)
            service.publish_view("mv")
            sql = f"SELECT * FROM mv ORDER BY {sc.order_by}"
            served = service.submit(sql).result(timeout=60)
            stats = service.stats
        forced = db.execute(sql, propagate_order=False)
        assert served.equals(forced)
        assert stats.sorts_elided == 1
        assert "elided" in db.explain(sql)


class TestResultCacheNormalization:
    def _service(self, db):
        return SortService(
            db, memory_budget=64 << 20, workers=1, cache_capacity=8
        )

    def test_keyword_case_shares_one_entry(self):
        db = Database()
        db.register("t", SCENARIOS["uniform"].table(ROWS, seed=SEED))
        with self._service(db) as service:
            first = service.submit("SELECT * FROM t ORDER BY a, p").result(
                timeout=60
            )
            second = service.submit("select * from t order by a, p").result(
                timeout=60
            )
            stats = service.stats
        assert second.equals(first)
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_string_literal_case_is_distinct(self):
        """Case matters inside string literals, never outside them."""
        db = Database()
        db.register("t", SCENARIOS["long_string"].table(ROWS, seed=SEED))
        with self._service(db) as service:
            service.submit("SELECT * FROM t WHERE s > 'ab' ORDER BY s").result(
                timeout=60
            )
            service.submit("SELECT * FROM t WHERE s > 'AB' ORDER BY s").result(
                timeout=60
            )
            stats = service.stats
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2


class TestPrefixServing:
    def _warm(self, db, full_sql):
        service = SortService(
            db, memory_budget=64 << 20, workers=1, cache_capacity=8
        )
        service.submit(full_sql).result(timeout=60)
        return service

    def test_topn_sliced_from_cached_full(self):
        db = Database()
        db.register("t", SCENARIOS["uniform"].table(ROWS, seed=SEED))
        full_sql = "SELECT * FROM t ORDER BY a, p"
        with self._warm(db, full_sql) as service:
            for limit, offset in ((10, 0), (25, 7), (ROWS + 50, 0)):
                sql = f"{full_sql} LIMIT {limit} OFFSET {offset}"
                served = service.submit(sql).result(timeout=60)
                direct = db.execute(sql, propagate_order=False)
                assert served.equals(direct), (limit, offset)
            stats = service.stats
        assert stats.cache_prefix_hits == 3

    def test_prefix_orderby_runs_fresh(self):
        """ORDER BY a is not served from a cached ORDER BY a, p result.

        Ties on ``a`` keep arrival order in a fresh sort but follow
        ``p`` in the cached rows, so the query runs and answers what
        ``Database.execute`` answers.
        """
        db = Database()
        db.register("t", SCENARIOS["dup_heavy"].table(ROWS, seed=SEED))
        sql = "SELECT * FROM t ORDER BY a LIMIT 40"
        with self._warm(db, "SELECT * FROM t ORDER BY a, p") as service:
            served = service.submit(sql).result(timeout=60)
            stats = service.stats
        assert stats.cache_prefix_hits == 0
        assert served.equals(db.execute(sql))

    def test_non_prefix_orderby_not_served(self):
        db = Database()
        db.register("t", SCENARIOS["uniform"].table(ROWS, seed=SEED))
        with self._warm(db, "SELECT * FROM t ORDER BY a, p") as service:
            served = service.submit(
                "SELECT * FROM t ORDER BY p LIMIT 5"
            ).result(timeout=60)
            stats = service.stats
        assert stats.cache_prefix_hits == 0
        assert served.equals(
            db.execute(
                "SELECT * FROM t ORDER BY p LIMIT 5", propagate_order=False
            )
        )

    def test_table_version_bump_invalidates_prefix(self):
        sc = SCENARIOS["uniform"]
        db = Database()
        db.register("t", sc.table(ROWS, seed=SEED))
        with self._warm(db, "SELECT * FROM t ORDER BY a, p") as service:
            db.register("t", sc.table(ROWS, seed=SEED + 1))  # new version
            served = service.submit(
                "SELECT * FROM t ORDER BY a, p LIMIT 5"
            ).result(timeout=60)
            stats = service.stats
        assert stats.cache_prefix_hits == 0
        assert served.equals(
            db.execute(
                "SELECT * FROM t ORDER BY a, p LIMIT 5",
                propagate_order=False,
            )
        )
