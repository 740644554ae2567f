"""The mini vectorized SQL engine."""

from repro.engine.ast_nodes import (
    CountStar,
    OrderItem,
    SelectStatement,
    StarSelection,
    SubqueryRef,
    TableRef,
)
from repro.engine.database import Database
from repro.engine.parser import parse, tokenize
from repro.engine.plan import (
    LogicalAggregate,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTopN,
    bind,
    explain,
    optimize,
)

__all__ = [
    "CountStar",
    "OrderItem",
    "SelectStatement",
    "StarSelection",
    "SubqueryRef",
    "TableRef",
    "Database",
    "parse",
    "tokenize",
    "LogicalAggregate",
    "LogicalLimit",
    "LogicalPlan",
    "LogicalProject",
    "LogicalScan",
    "LogicalSort",
    "LogicalTopN",
    "bind",
    "explain",
    "optimize",
]
