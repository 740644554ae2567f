"""Logical plans, binding, and the optimizer rules that matter here.

The paper's benchmarking methodology (Section VII-A) hinges on optimizer
behaviour: a full sort is dropped when its order cannot affect the result
(aggregate over a sorted subquery), and ``ORDER BY ... LIMIT`` becomes a
specialized top-N operator.  We implement exactly those rules so the
paper's counter-measure -- adding ``OFFSET 1`` -- is observable in this
engine too.

On top of those, the planner propagates **order properties** bottom-up
(Do & Graefe's "interesting orderings" reuse, arXiv 2209.08420): every
node derives the :class:`~repro.types.sortspec.SortSpec` its output is
known to be sorted by (:func:`provided_ordering`) -- scans of tables
with a declared ordering (incremental sorted views), sorts, group-bys
and merge joins establish order; filters, projections and limits
preserve it.  :func:`optimize` then rewrites each ``LogicalSort`` whose
requirement is already provided:

* **elided** -- the provided ordering equals the spec; the sort becomes
  a pass-through.
* **subsumed** -- the spec is a proper prefix of the provided ordering
  (``ORDER BY a, b`` over input sorted ``a, b, c``); also pass-through.

An input that provides only a proper leading prefix of the spec gets a
full sort (or Top-N under a LIMIT): ordering rows within the provided
prefix groups costs more than the normalized-key sort it would replace.

Every full sort the engine runs is a ``LogicalSort``: the binder puts
one by the grouping keys under each ``LogicalGroupBy`` and one by the
join keys under each side of each ``LogicalJoin`` (ascending, NULLS
LAST), so the same rule elides or subsumes a breaker's input sort.

Plan shape::

    Scan[/Join over two Sorts] -> [Filter] -> [GroupBy over a Sort]
        -> [Sort] -> [Limit] -> [Project | Aggregate]

built from the AST by :func:`bind`, rewritten by :func:`optimize`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.aggregate.groupby import Aggregate
from repro.errors import BindError
from repro.engine.ast_nodes import (
    AggregateItem,
    CountStar,
    JoinRef,
    SelectStatement,
    StarSelection,
    SubqueryRef,
    TableRef,
)
from repro.types.datatypes import BIGINT, DOUBLE
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import (
    SortKey,
    SortSpec,
    ordering_satisfies,
)

__all__ = [
    "LogicalPlan",
    "LogicalScan",
    "LogicalProject",
    "LogicalFilter",
    "LogicalSort",
    "LogicalLimit",
    "LogicalAggregate",
    "LogicalGroupBy",
    "LogicalJoin",
    "LogicalTopN",
    "bind",
    "optimize",
    "provided_ordering",
    "explain",
]

OrderingLookup = Callable[[str], "SortSpec | None"]
"""Resolves a base table name to its declared ordering, or ``None``."""


@dataclass(frozen=True)
class LogicalPlan:
    """Base class: every node knows its output schema."""

    schema: Schema


@dataclass(frozen=True)
class LogicalScan(LogicalPlan):
    table_name: str


@dataclass(frozen=True)
class LogicalProject(LogicalPlan):
    child: LogicalPlan
    columns: tuple[str, ...]


@dataclass(frozen=True)
class LogicalFilter(LogicalPlan):
    """WHERE: an AND-conjunction of simple comparisons (order-preserving)."""

    child: LogicalPlan
    condition: object  # engine.expressions.Conjunction


@dataclass(frozen=True)
class LogicalSort(LogicalPlan):
    """ORDER BY, or a GROUP BY's or a join side's input sort.  ``mode``
    records what the optimizer decided:

    * ``"full"`` -- run the sort operator (the default).
    * ``"elided"`` / ``"subsumed"`` -- the input's provided ordering
      already satisfies (equals / extends beyond) the spec; execution
      streams chunks through untouched.

    ``reason`` names the order source for ``explain`` output.
    """

    child: LogicalPlan
    spec: SortSpec
    mode: str = "full"
    reason: str = ""


@dataclass(frozen=True)
class LogicalLimit(LogicalPlan):
    child: LogicalPlan
    limit: int | None
    offset: int


@dataclass(frozen=True)
class LogicalAggregate(LogicalPlan):
    """Global count(*) -- the benchmark queries' bracketing aggregate."""

    child: LogicalPlan


@dataclass(frozen=True)
class LogicalGroupBy(LogicalPlan):
    """Sort-based GROUP BY with aggregate expressions.  Its child is a
    ``LogicalSort`` by the keys (ascending, NULLS LAST), so the operator
    finds group boundaries on input that arrives sorted."""

    child: LogicalPlan
    keys: tuple[str, ...]
    aggregates: tuple[Aggregate, ...]


@dataclass(frozen=True)
class LogicalJoin(LogicalPlan):
    """Inner sort-merge equi-join of two children.

    Output columns are all left columns then all right columns, with
    colliding names prefixed ``l_`` / ``r_`` (mirroring
    :func:`repro.join.merge_join.merge_join`).  Each side is a
    ``LogicalSort`` by its join keys (ascending, NULLS LAST).
    """

    left: LogicalPlan
    right: LogicalPlan
    left_keys: tuple[str, ...]
    right_keys: tuple[str, ...]


@dataclass(frozen=True)
class LogicalTopN(LogicalPlan):
    """Fused Sort + Limit produced by the optimizer."""

    child: LogicalPlan
    spec: SortSpec
    limit: int
    offset: int


# ---------------------------------------------------------------------- #
# Binding
# ---------------------------------------------------------------------- #

CatalogLookup = Callable[[str], Schema]


def bind(statement: SelectStatement, catalog: CatalogLookup) -> LogicalPlan:
    """Resolve names and produce the canonical logical plan."""
    plan = _bind_from_item(statement.source, catalog)

    if statement.where is not None:
        statement.where.validate(plan.schema)
        plan = LogicalFilter(plan.schema, plan, statement.where)

    selection = statement.selection
    has_aggregate_items = isinstance(selection, tuple) and any(
        isinstance(item, AggregateItem) for item in selection
    )
    if statement.group_by or has_aggregate_items and not isinstance(
        selection, CountStar
    ):
        plan = _bind_group_by(statement, plan)
        selection = tuple(
            _select_item_name(item)
            for item in (
                statement.selection
                if isinstance(statement.selection, tuple)
                else (AggregateItem("count", None),)
            )
        )
    elif isinstance(selection, CountStar) and statement.group_by:
        plan = _bind_group_by(statement, plan)
        selection = ("count_star",)
    elif isinstance(selection, CountStar):
        # A global count(*) is one row, bound where GROUP BY is: its
        # ORDER BY and LIMIT apply to that row, not to the counted ones.
        count_schema = Schema((ColumnDef("count_star", BIGINT, False),))
        plan = LogicalAggregate(count_schema, plan)
        selection = None
    elif isinstance(selection, tuple):
        for name in selection:
            if name not in plan.schema:
                raise BindError(
                    f"column {name!r} not found in {list(plan.schema.names)}"
                )

    # ORDER BY binds against the columns below the projection (the
    # source, or the GROUP BY output), like real engines.
    if statement.has_order:
        spec = statement.sort_spec()
        for key in spec.keys:
            if key.column not in plan.schema:
                raise BindError(
                    f"ORDER BY column {key.column!r} not found in "
                    f"{list(plan.schema.names)}"
                )
        plan = LogicalSort(plan.schema, plan, spec)

    if statement.limit is not None or statement.offset is not None:
        plan = LogicalLimit(
            plan.schema, plan, statement.limit, statement.offset or 0
        )

    if isinstance(selection, tuple):
        projected = plan.schema.select(selection)
        plan = LogicalProject(projected, plan, tuple(selection))
    elif selection is not None and not isinstance(
        selection, StarSelection
    ):  # pragma: no cover
        raise BindError(f"unsupported selection {selection!r}")
    return plan


def _bind_from_item(source, catalog: CatalogLookup) -> LogicalPlan:
    if isinstance(source, TableRef):
        return LogicalScan(catalog(source.name), source.name)
    if isinstance(source, SubqueryRef):
        return bind(source.query, catalog)
    if isinstance(source, JoinRef):
        return _bind_join(source, catalog)
    raise BindError(f"unsupported FROM item {source!r}")


def join_output_schema(left: Schema, right: Schema) -> Schema:
    """The merge join's output schema: left then right columns, with
    colliding names prefixed ``l_`` / ``r_`` (exactly the naming of
    :func:`repro.join.merge_join.merge_join`)."""
    defs = []
    for column in left.columns:
        name = f"l_{column.name}" if column.name in right else column.name
        defs.append(ColumnDef(name, column.dtype, column.nullable))
    for column in right.columns:
        name = f"r_{column.name}" if column.name in left else column.name
        defs.append(ColumnDef(name, column.dtype, column.nullable))
    return Schema(tuple(defs))


def _bind_join(source: JoinRef, catalog: CatalogLookup) -> LogicalPlan:
    """Resolve a ``FROM x JOIN y ON a = b [AND ...]`` item.

    Each ON equality's bare column names are resolved by side: the name
    found in the left schema pairs with the name found in the right
    (either order per equality).  A name present in both schemas binds
    left-first.
    """
    left = _bind_from_item(source.left, catalog)
    right = _bind_from_item(source.right, catalog)
    left_keys: list[str] = []
    right_keys: list[str] = []
    for a, b in source.on:
        if a in left.schema and b in right.schema:
            lk, rk = a, b
        elif b in left.schema and a in right.schema:
            lk, rk = b, a
        else:
            raise BindError(
                f"cannot resolve join condition {a} = {b}: need one "
                f"column from each side (left has "
                f"{list(left.schema.names)}, right has "
                f"{list(right.schema.names)})"
            )
        lt = left.schema.column(lk).dtype
        rt = right.schema.column(rk).dtype
        if lt.type_id is not rt.type_id:
            raise BindError(
                f"cannot join {lk} ({lt.name}) with {rk} ({rt.name})"
            )
        left_keys.append(lk)
        right_keys.append(rk)
    return LogicalJoin(
        join_output_schema(left.schema, right.schema),
        _sorted_by(left, left_keys),
        _sorted_by(right, right_keys),
        tuple(left_keys),
        tuple(right_keys),
    )


def _sorted_by(child: LogicalPlan, keys) -> LogicalSort:
    """A breaker's input sort: ``keys`` ascending, NULLS LAST."""
    spec = SortSpec(tuple(SortKey(k) for k in keys))
    return LogicalSort(child.schema, child, spec)


def _select_item_name(item) -> str:
    if isinstance(item, AggregateItem):
        return Aggregate(item.function, item.column).output_name
    return item


def _aggregate_output_type(aggregate: Aggregate, child: LogicalPlan):
    if aggregate.name == "count":
        return BIGINT
    if aggregate.name in ("sum", "avg"):
        return DOUBLE
    # min/max of strings keeps the type; numerics widen to DOUBLE.
    dtype = child.schema.column(aggregate.column).dtype
    return dtype if dtype.is_variable_width else DOUBLE


def _bind_group_by(
    statement: SelectStatement, child: LogicalPlan
) -> LogicalPlan:
    """Validate and plan a GROUP BY + aggregates block."""
    selection = statement.selection
    items = (
        selection
        if isinstance(selection, tuple)
        else (AggregateItem("count", None),)
    )
    keys = statement.group_by
    if not keys:
        raise BindError(
            "aggregates other than a lone count(*) require GROUP BY"
        )
    for key in keys:
        if key not in child.schema:
            raise BindError(
                f"GROUP BY column {key!r} not found in "
                f"{list(child.schema.names)}"
            )
    aggregates: list[Aggregate] = []
    for item in items:
        if isinstance(item, AggregateItem):
            if item.column is not None and item.column not in child.schema:
                raise BindError(
                    f"aggregate column {item.column!r} not found in "
                    f"{list(child.schema.names)}"
                )
            aggregates.append(Aggregate(item.function, item.column))
        elif item not in keys:
            raise BindError(
                f"column {item!r} must appear in GROUP BY or inside an "
                "aggregate"
            )
    if not aggregates:
        # Pure grouping (SELECT k FROM t GROUP BY k): count(*) is
        # computed and projected away, giving DISTINCT semantics.
        aggregates.append(Aggregate("count", None))
    defs = [ColumnDef(k, child.schema.column(k).dtype) for k in keys]
    for aggregate in aggregates:
        nullable = aggregate.name != "count"
        defs.append(
            ColumnDef(
                aggregate.output_name,
                _aggregate_output_type(aggregate, child),
                nullable,
            )
        )
    return LogicalGroupBy(
        Schema(tuple(defs)),
        _sorted_by(child, keys),
        tuple(keys),
        tuple(aggregates),
    )


# ---------------------------------------------------------------------- #
# Optimizer
# ---------------------------------------------------------------------- #


def provided_ordering(
    plan: LogicalPlan, table_ordering: OrderingLookup | None = None
) -> SortSpec | None:
    """The ordering a node's output is known to carry, or ``None``.

    Derivation rules (bottom-up):

    * ``Scan`` -- the table's declared ordering (``table_ordering``),
      e.g. a published incremental sorted view.
    * ``Filter`` / ``Limit`` -- preserve the child's ordering.
    * ``Project`` -- preserves the longest leading prefix whose columns
      survive the projection.
    * ``Sort`` / ``TopN`` -- establish their spec; a pass-through
      (elided/subsumed) sort re-provides the child's stronger ordering.
    * ``GroupBy`` -- output rows are in key order (ascending, NULLS
      LAST): the aggregate emits the groups of its sorted input in order.
    * ``Join`` -- the merge join emits key groups in left-key order, so
      the output is sorted by the left join keys (ascending, NULLS
      LAST) under their output names.
    """
    lookup = table_ordering or (lambda name: None)
    if isinstance(plan, LogicalScan):
        return lookup(plan.table_name)
    if isinstance(plan, (LogicalFilter, LogicalLimit)):
        return provided_ordering(plan.child, lookup)
    if isinstance(plan, LogicalProject):
        child = provided_ordering(plan.child, lookup)
        if child is None:
            return None
        kept = []
        for key in child.keys:
            if key.column not in plan.columns:
                break
            kept.append(key)
        return SortSpec(tuple(kept)) if kept else None
    if isinstance(plan, LogicalSort):
        if plan.mode in ("elided", "subsumed"):
            return provided_ordering(plan.child, lookup)
        return plan.spec
    if isinstance(plan, LogicalTopN):
        return plan.spec
    if isinstance(plan, LogicalGroupBy):
        return SortSpec(tuple(SortKey(k) for k in plan.keys))
    if isinstance(plan, LogicalJoin):
        keys = []
        for name in plan.left_keys:
            output = f"l_{name}" if name in plan.right.schema else name
            keys.append(SortKey(output))
        return SortSpec(tuple(keys))
    return None


def _order_source(plan: LogicalPlan) -> str:
    """A short label for where a provided ordering came from."""
    if isinstance(plan, (LogicalFilter, LogicalLimit)):
        return _order_source(plan.child)
    if isinstance(plan, LogicalProject):
        return _order_source(plan.child)
    if isinstance(plan, LogicalScan):
        return f"Scan({plan.table_name})"
    if isinstance(plan, LogicalSort):
        if plan.mode in ("elided", "subsumed"):
            return _order_source(plan.child)
        return "Sort"
    if isinstance(plan, LogicalTopN):
        return "TopN"
    if isinstance(plan, LogicalGroupBy):
        return "GroupBy"
    if isinstance(plan, LogicalJoin):
        return "MergeJoin"
    return "input"


def optimize(
    plan: LogicalPlan,
    table_ordering: OrderingLookup | None = None,
    propagate_order: bool = True,
) -> LogicalPlan:
    """Apply sort-elision, order-propagation, and top-N rewrites.

    ``table_ordering`` resolves base-table names to declared orderings
    (:meth:`repro.engine.database.Database.table_ordering`); without it
    only orderings established *inside* the plan (sorts, group-bys,
    joins) propagate.  The sorts under a GROUP BY and under each join
    side are ``LogicalSort`` nodes, rewritten by the same rule.
    ``propagate_order=False`` disables the whole order-propagation pass
    (every sort runs in full) while keeping the classic rewrites -- the
    oracle configuration differential tests compare against.
    """
    lookup = table_ordering or (lambda name: None)
    return _optimize(plan, lookup, propagate_order)


def _optimize(
    plan: LogicalPlan, lookup: OrderingLookup, propagate: bool = True
) -> LogicalPlan:
    plan = _rewrite_children(plan, lookup, propagate)
    if isinstance(plan, LogicalAggregate):
        plan = replace(plan, child=_drop_irrelevant_sort(plan.child))
    if propagate and isinstance(plan, LogicalSort):
        plan = _apply_order_property(plan, lookup)
    if isinstance(plan, LogicalLimit) and isinstance(plan.child, LogicalSort):
        # ORDER BY ... LIMIT n [OFFSET m] -> top-N (paper, Section VII-A)
        # -- but only for a sort that would actually run: a pass-through
        # sort under a streaming Limit is already cheaper than a heap
        # over the whole input.
        if plan.limit is not None and plan.child.mode == "full":
            sort = plan.child
            return LogicalTopN(
                plan.schema, sort.child, sort.spec, plan.limit, plan.offset
            )
    return plan


def _apply_order_property(
    sort: LogicalSort, lookup: OrderingLookup
) -> LogicalSort:
    """Pass a sort through when its input already provides its spec."""
    provided = provided_ordering(sort.child, lookup)
    if not ordering_satisfies(provided, sort.spec):
        return sort
    mode = (
        "elided" if len(provided.keys) == len(sort.spec.keys) else "subsumed"
    )
    return replace(
        sort, mode=mode, reason=f"provided by {_order_source(sort.child)}"
    )


def _rewrite_children(
    plan: LogicalPlan, lookup: OrderingLookup, propagate: bool
) -> LogicalPlan:
    if isinstance(plan, LogicalJoin):
        return replace(
            plan,
            left=_optimize(plan.left, lookup, propagate),
            right=_optimize(plan.right, lookup, propagate),
        )
    if isinstance(
        plan,
        (
            LogicalProject,
            LogicalFilter,
            LogicalSort,
            LogicalLimit,
            LogicalAggregate,
            LogicalGroupBy,
        ),
    ):
        return replace(plan, child=_optimize(plan.child, lookup, propagate))
    return plan


def _drop_irrelevant_sort(plan: LogicalPlan) -> LogicalPlan:
    """Remove a Sort whose order cannot affect a count(*) above it.

    Descends through projections.  Stops at Limit/Offset: with OFFSET 1
    *which* rows survive depends on the order, so the sort must stay --
    this is exactly why the paper's benchmark query adds OFFSET 1.
    """
    if isinstance(plan, LogicalSort):
        return _drop_irrelevant_sort(plan.child)
    if isinstance(plan, LogicalProject):
        return replace(plan, child=_drop_irrelevant_sort(plan.child))
    return plan


# ---------------------------------------------------------------------- #
# Explain
# ---------------------------------------------------------------------- #


def explain(plan: LogicalPlan, indent: int = 0) -> str:
    """A compact textual plan tree (for tests and debugging)."""
    pad = "  " * indent
    if isinstance(plan, LogicalScan):
        return f"{pad}Scan({plan.table_name})"
    if isinstance(plan, LogicalProject):
        cols = ", ".join(plan.columns)
        return f"{pad}Project({cols})\n" + explain(plan.child, indent + 1)
    if isinstance(plan, LogicalFilter):
        parts = " AND ".join(
            f"{c.column} {c.op}"
            + ("" if c.op.startswith("is") else f" {c.literal!r}")
            for c in plan.condition.comparisons
        )
        return f"{pad}Filter({parts})\n" + explain(plan.child, indent + 1)
    if isinstance(plan, LogicalSort):
        if plan.mode == "full":
            label = f"Sort({plan.spec})"
        else:
            label = f"Sort[{plan.mode}: {plan.reason}]({plan.spec})"
        return f"{pad}{label}\n" + explain(plan.child, indent + 1)
    if isinstance(plan, LogicalLimit):
        return (
            f"{pad}Limit(limit={plan.limit}, offset={plan.offset})\n"
            + explain(plan.child, indent + 1)
        )
    if isinstance(plan, LogicalAggregate):
        return f"{pad}Aggregate(count_star)\n" + explain(plan.child, indent + 1)
    if isinstance(plan, LogicalGroupBy):
        aggs = ", ".join(a.output_name for a in plan.aggregates)
        keys = ", ".join(plan.keys)
        return (
            f"{pad}GroupBy(keys=[{keys}], aggregates=[{aggs}])\n"
            + explain(plan.child, indent + 1)
        )
    if isinstance(plan, LogicalJoin):
        pairs = ", ".join(
            f"{lk} = {rk}" for lk, rk in zip(plan.left_keys, plan.right_keys)
        )
        return (
            f"{pad}MergeJoin(on [{pairs}])\n"
            + explain(plan.left, indent + 1)
            + "\n"
            + explain(plan.right, indent + 1)
        )
    if isinstance(plan, LogicalTopN):
        return (
            f"{pad}TopN({plan.spec}, limit={plan.limit}, offset={plan.offset})\n"
            + explain(plan.child, indent + 1)
        )
    raise BindError(f"cannot explain {plan!r}")  # pragma: no cover
