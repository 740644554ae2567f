"""A small SQL subset parser: enough for the paper's benchmark queries.

The end-to-end benchmarks of Section VII drive every system with::

    SELECT count(*) FROM (
        SELECT <payload> FROM <table> ORDER BY <keys> OFFSET 1
    ) AS t

plus plain ``SELECT ... ORDER BY ...`` statements.  The grammar:

    query      := select
    select     := SELECT select_list FROM from_item [WHERE condition]
                  [GROUP BY column_list] [ORDER BY order_list]
                  [LIMIT n] [OFFSET n]
    select_list:= '*' | item (',' item)*
    item       := column
                | COUNT '(' ('*' | column) ')'
                | (SUM|MIN|MAX|AVG) '(' column ')'
    from_item  := base_item [[INNER] JOIN base_item ON join_cond]
    base_item  := identifier | '(' select ')' [AS? identifier]
    join_cond  := column '=' column (AND column '=' column)*
    order_list := order_key (',' order_key)*
    order_key  := column [ASC|DESC] [NULLS (FIRST|LAST)]
    condition  := see :mod:`repro.engine.expressions` (a literal may be a
                  negative number; ``n`` may not)

Produces the AST in :mod:`repro.engine.ast_nodes`.  Hand-written
tokenizer + recursive descent; errors carry the offending position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ParseError
from repro.engine.ast_nodes import (
    AggregateItem,
    CountStar,
    JoinRef,
    OrderItem,
    SelectStatement,
    StarSelection,
    SubqueryRef,
    TableRef,
)
from repro.types.sortspec import NullOrder, Order

__all__ = ["tokenize", "parse"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol><=|>=|<>|<|>|=|\(|\)|,|\*|;|-)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT",
    "FROM",
    "ORDER",
    "GROUP",
    "BY",
    "ASC",
    "DESC",
    "NULLS",
    "FIRST",
    "LAST",
    "LIMIT",
    "OFFSET",
    "COUNT",
    "SUM",
    "MIN",
    "MAX",
    "AVG",
    "AS",
    "WHERE",
    "AND",
    "JOIN",
    "INNER",
    "ON",
    "IS",
    "NOT",
    "NULL",
    "TRUE",
    "FALSE",
}

_AGGREGATE_KEYWORDS = ("COUNT", "SUM", "MIN", "MAX", "AVG")


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "keyword", "number", "symbol", "eof"
    text: str
    position: int


def tokenize(sql: str) -> list[Token]:
    """Split a query string into tokens; raises ParseError on junk."""
    tokens: list[Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise ParseError(
                f"unexpected character {sql[position]!r} at position {position}"
            )
        position = match.end()
        if match.lastgroup == "ws":
            continue
        text = match.group()
        if match.lastgroup == "ident":
            upper = text.upper()
            kind = "keyword" if upper in _KEYWORDS else "ident"
            tokens.append(Token(kind, upper if kind == "keyword" else text,
                                match.start()))
        elif match.lastgroup == "number":
            tokens.append(Token("number", text, match.start()))
        elif match.lastgroup == "string":
            literal = text[1:-1].replace("''", "'")
            tokens.append(Token("string", literal, match.start()))
        else:
            tokens.append(Token("symbol", text, match.start()))
    tokens.append(Token("eof", "", len(sql)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.index = 0

    # -- token helpers --------------------------------------------------- #

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        self.index += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.current
        if token.kind != "keyword" or token.text != word:
            raise ParseError(
                f"expected {word} at position {token.position}, "
                f"got {token.text or 'end of input'!r}"
            )
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        token = self.current
        if token.kind != "symbol" or token.text != symbol:
            raise ParseError(
                f"expected {symbol!r} at position {token.position}, "
                f"got {token.text or 'end of input'!r}"
            )
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        token = self.current
        if token.kind == "keyword" and token.text == word:
            self.advance()
            return True
        return False

    def accept_symbol(self, symbol: str) -> bool:
        token = self.current
        if token.kind == "symbol" and token.text == symbol:
            self.advance()
            return True
        return False

    def expect_ident(self) -> str:
        token = self.current
        if token.kind != "ident":
            raise ParseError(
                f"expected identifier at position {token.position}, "
                f"got {token.text or 'end of input'!r}"
            )
        return self.advance().text

    def expect_number(self) -> int:
        token = self.current
        if token.kind != "number":
            raise ParseError(
                f"expected number at position {token.position}, "
                f"got {token.text or 'end of input'!r}"
            )
        return int(self.advance().text)

    # -- grammar --------------------------------------------------------- #

    def parse_query(self) -> SelectStatement:
        statement = self.parse_select()
        self.accept_symbol(";")
        token = self.current
        if token.kind != "eof":
            raise ParseError(
                f"unexpected trailing input at position {token.position}: "
                f"{token.text!r}"
            )
        return statement

    def parse_select(self) -> SelectStatement:
        self.expect_keyword("SELECT")
        selection = self.parse_select_list()
        self.expect_keyword("FROM")
        source = self.parse_from_item()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_condition()
        group_by: tuple[str, ...] = ()
        order_by: tuple[OrderItem, ...] = ()
        limit = offset = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            columns = [self.expect_ident()]
            while self.accept_symbol(","):
                columns.append(self.expect_ident())
            group_by = tuple(columns)
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by = self.parse_order_list()
        if self.accept_keyword("LIMIT"):
            limit = self.expect_number()
        if self.accept_keyword("OFFSET"):
            offset = self.expect_number()
        return SelectStatement(
            selection, source, order_by, limit, offset, group_by, where
        )

    def parse_select_list(self):
        if self.accept_symbol("*"):
            return StarSelection()
        items = [self.parse_select_item()]
        while self.accept_symbol(","):
            items.append(self.parse_select_item())
        if len(items) == 1 and isinstance(items[0], AggregateItem):
            item = items[0]
            if item.function == "count" and item.column is None:
                return CountStar()
        return tuple(items)

    def parse_condition(self):
        from repro.engine.expressions import Comparison, Conjunction

        comparisons = [self.parse_comparison()]
        while self.accept_keyword("AND"):
            comparisons.append(self.parse_comparison())
        return Conjunction(tuple(comparisons))

    def parse_comparison(self):
        from repro.engine.expressions import Comparison

        column = self.expect_ident()
        if self.accept_keyword("IS"):
            negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return Comparison(column, "is not null" if negated else "is null")
        token = self.current
        if token.kind != "symbol" or token.text not in (
            "=", "<>", "<", "<=", ">", ">=",
        ):
            raise ParseError(
                f"expected a comparison operator at position "
                f"{token.position}, got {token.text!r}"
            )
        op = self.advance().text
        return Comparison(column, op, self.parse_literal())

    def parse_literal(self):
        sign = -1 if self.accept_symbol("-") else 1
        token = self.current
        if token.kind == "number":
            self.advance()
            value = float(token.text) if "." in token.text else int(token.text)
            return sign * value
        if sign < 0:
            raise ParseError(
                f"expected a number after '-' at position {token.position}, "
                f"got {token.text or 'end of input'!r}"
            )
        if token.kind == "string":
            self.advance()
            return token.text
        if token.kind == "keyword" and token.text in ("TRUE", "FALSE"):
            self.advance()
            return token.text == "TRUE"
        raise ParseError(
            f"expected a literal at position {token.position}, "
            f"got {token.text or 'end of input'!r}"
        )

    def parse_select_item(self):
        token = self.current
        if token.kind == "keyword" and token.text in _AGGREGATE_KEYWORDS:
            function = self.advance().text.lower()
            self.expect_symbol("(")
            if self.accept_symbol("*"):
                if function != "count":
                    raise ParseError(
                        f"{function}(*) is not valid at position "
                        f"{token.position}"
                    )
                column = None
            else:
                column = self.expect_ident()
            self.expect_symbol(")")
            return AggregateItem(function, column)
        return self.expect_ident()

    def parse_from_item(self):
        item = self.parse_base_from_item()
        if self.accept_keyword("INNER"):
            self.expect_keyword("JOIN")
            return self.parse_join_tail(item)
        if self.accept_keyword("JOIN"):
            return self.parse_join_tail(item)
        return item

    def parse_join_tail(self, left):
        right = self.parse_base_from_item()
        self.expect_keyword("ON")
        pairs = [self.parse_join_equality()]
        while self.accept_keyword("AND"):
            pairs.append(self.parse_join_equality())
        return JoinRef(left, right, tuple(pairs))

    def parse_join_equality(self) -> tuple[str, str]:
        first = self.expect_ident()
        self.expect_symbol("=")
        return first, self.expect_ident()

    def parse_base_from_item(self):
        if self.accept_symbol("("):
            subquery = self.parse_select()
            self.expect_symbol(")")
            alias = None
            if self.accept_keyword("AS"):
                alias = self.expect_ident()
            elif self.current.kind == "ident":
                alias = self.advance().text
            return SubqueryRef(subquery, alias)
        return TableRef(self.expect_ident())

    def parse_order_list(self) -> tuple[OrderItem, ...]:
        items = [self.parse_order_item()]
        while self.accept_symbol(","):
            items.append(self.parse_order_item())
        return tuple(items)

    def parse_order_item(self) -> OrderItem:
        column = self.expect_ident()
        order = Order.ASCENDING
        null_order = None
        if self.accept_keyword("ASC"):
            order = Order.ASCENDING
        elif self.accept_keyword("DESC"):
            order = Order.DESCENDING
        if self.accept_keyword("NULLS"):
            if self.accept_keyword("FIRST"):
                null_order = NullOrder.NULLS_FIRST
            elif self.accept_keyword("LAST"):
                null_order = NullOrder.NULLS_LAST
            else:
                token = self.current
                raise ParseError(
                    f"expected FIRST or LAST at position {token.position}"
                )
        return OrderItem(column, order, null_order)


def parse(sql: str) -> SelectStatement:
    """Parse one SELECT statement into the AST."""
    return _Parser(tokenize(sql)).parse_query()
