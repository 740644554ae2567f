"""Tests for the SQL subset parser."""

import numpy as np
import pytest

from repro.engine.database import Database
from repro.errors import ParseError
from repro.engine.ast_nodes import (
    CountStar,
    StarSelection,
    SubqueryRef,
    TableRef,
)
from repro.engine.parser import parse, tokenize
from repro.types.sortspec import NullOrder, Order
from repro.workloads.scenarios import SCENARIOS


class TestTokenizer:
    def test_keywords_uppercased(self):
        tokens = tokenize("select from")
        assert [t.text for t in tokens[:-1]] == ["SELECT", "FROM"]

    def test_identifiers_keep_case(self):
        tokens = tokenize("SELECT cs_Item_sk FROM t")
        assert tokens[1].text == "cs_Item_sk"

    def test_numbers(self):
        tokens = tokenize("LIMIT 42")
        assert tokens[1].kind == "number" and tokens[1].text == "42"

    def test_symbols(self):
        tokens = tokenize("count(*) , ;")
        assert [t.text for t in tokens[:-1]] == ["COUNT", "(", "*", ")", ",", ";"]

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @ FROM t")

    def test_positions_tracked(self):
        tokens = tokenize("a  b")
        assert tokens[0].position == 0 and tokens[1].position == 3


class TestParser:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.selection, StarSelection)
        assert stmt.source == TableRef("t")

    def test_column_list(self):
        stmt = parse("SELECT a, b FROM t")
        assert stmt.selection == ("a", "b")

    def test_count_star(self):
        stmt = parse("SELECT count(*) FROM t")
        assert isinstance(stmt.selection, CountStar)

    def test_order_by_full(self):
        stmt = parse(
            "SELECT * FROM t ORDER BY a DESC NULLS LAST, b ASC NULLS FIRST, c"
        )
        a, b, c = stmt.order_by
        assert a.order is Order.DESCENDING
        assert a.null_order is NullOrder.NULLS_LAST
        assert b.null_order is NullOrder.NULLS_FIRST
        assert c.order is Order.ASCENDING and c.null_order is None

    def test_limit_offset(self):
        stmt = parse("SELECT * FROM t LIMIT 10 OFFSET 3")
        assert stmt.limit == 10 and stmt.offset == 3

    def test_offset_only(self):
        stmt = parse("SELECT * FROM t OFFSET 1")
        assert stmt.limit is None and stmt.offset == 1

    def test_subquery_with_alias(self):
        stmt = parse(
            "SELECT count(*) FROM (SELECT a FROM t ORDER BY b OFFSET 1) AS q"
        )
        assert isinstance(stmt.source, SubqueryRef)
        assert stmt.source.alias == "q"
        inner = stmt.source.query
        assert inner.selection == ("a",)
        assert inner.offset == 1

    def test_subquery_alias_without_as(self):
        stmt = parse("SELECT count(*) FROM (SELECT a FROM t) q")
        assert stmt.source.alias == "q"

    def test_negative_where_literals(self):
        stmt = parse("SELECT * FROM t WHERE a > -5 AND b <= - 2.5 AND c = 0")
        literals = [c.literal for c in stmt.where.comparisons]
        assert literals == [-5, -2.5, 0]
        assert isinstance(literals[0], int) and isinstance(literals[1], float)

    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT * FROM t LIMIT -1",
            "SELECT * FROM t OFFSET -1",
            "SELECT * FROM t LIMIT 5 OFFSET -1",
            "SELECT * FROM t WHERE a > -",
            "SELECT * FROM t WHERE s = -'x'",
            "SELECT * FROM t WHERE a > --5",
            "SELECT * FROM t WHERE -a > 5",
        ],
    )
    def test_minus_only_before_a_where_number(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_negative_literal_filters_like_numpy(self):
        table = SCENARIOS["uniform"].table(5000, seed=11)
        a = table.column("a").data
        cut = -int(np.median(np.abs(a)))
        db = Database()
        db.register("t", table)
        result = db.execute(f"SELECT * FROM t WHERE a > {cut}")
        assert 0 < result.num_rows < table.num_rows
        assert result.equals(table.take(np.flatnonzero(a > cut)))

    def test_trailing_semicolon(self):
        parse("SELECT * FROM t;")

    def test_sort_spec_conversion(self):
        stmt = parse("SELECT * FROM t ORDER BY x DESC")
        spec = stmt.sort_spec()
        assert spec.keys[0].descending

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELECT",
            "SELECT * FROM",
            "SELECT FROM t",
            "SELECT * FROM t ORDER a",
            "SELECT * FROM t ORDER BY",
            "SELECT * FROM t LIMIT x",
            "SELECT count(* FROM t",
            "SELECT count() FROM t",
            "SELECT * FROM (SELECT a FROM t",
            "SELECT * FROM t ORDER BY a NULLS SIDEWAYS",
            "SELECT * FROM t extra garbage",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse(bad)
