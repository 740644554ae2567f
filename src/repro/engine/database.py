"""The mini database: catalog + parse/bind/optimize/execute.

A deliberately small vectorized-interpreted engine around the sort
operator, sufficient to run the paper's end-to-end benchmark queries::

    db = Database()
    db.register("t", table)
    db.execute("SELECT count(*) FROM (SELECT a FROM t ORDER BY b OFFSET 1) q")
"""

from __future__ import annotations

from repro.errors import BindError, EngineError
from repro.engine import plan as planmod
from repro.engine.ast_nodes import SelectStatement
from repro.engine.operators import (
    CountAggregateOperator,
    FilterOperator,
    GroupByOperator,
    LimitOperator,
    MergeJoinOperator,
    PhysicalOperator,
    ProjectOperator,
    ScanOperator,
    SortExecOperator,
    TopNExecOperator,
    collect,
)
from repro.engine.parser import parse
from repro.sort.operator import SortConfig
from repro.table.table import Table
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec

__all__ = ["Database"]


class Database:
    """An in-process catalog of tables plus a query executor.

    Every registered table carries a monotone version number, bumped on
    each (re-)``register`` -- the invalidation signal result caches key
    on: a cached result is valid exactly while every table it read still
    has the version it was computed against.
    """

    def __init__(self, sort_config: SortConfig | None = None) -> None:
        self._tables: dict[str, Table] = {}
        self._versions: dict[str, int] = {}
        self._orderings: dict[str, SortSpec] = {}
        self.sort_config = sort_config or SortConfig()

    # -- catalog ---------------------------------------------------------- #

    def register(self, name: str, table: Table) -> None:
        """Register (or replace) a named table, bumping its version.

        Replacing a table drops any declared ordering: the new contents
        make no sortedness promise until :meth:`declare_ordering` is
        called again (a maintained-view publisher re-declares after
        every snapshot).
        """
        if not name or not name.isidentifier():
            raise EngineError(f"invalid table name {name!r}")
        self._tables[name] = table
        self._versions[name] = self._versions.get(name, 0) + 1
        self._orderings.pop(name, None)

    def declare_ordering(self, name: str, spec: SortSpec | str) -> None:
        """Promise that table ``name`` is exactly sorted by ``spec``.

        The optimizer's order-propagation pass consults this catalog to
        elide, subsume, or downgrade sorts over scans of the table.
        ``spec`` may be a :class:`SortSpec` or ORDER BY text like
        ``"a, b DESC"``.  The declaration is the caller's promise --
        typically a maintained incremental view whose snapshots come
        out of :meth:`repro.sort.incremental.IncrementalSorter.view` --
        and is dropped automatically when the table is re-registered.
        """
        if isinstance(spec, str):
            spec = SortSpec.of(*(part.strip() for part in spec.split(",")))
        schema = self.table(name).schema
        for key in spec.keys:
            schema.column(key.column)  # raises on unknown columns
        self._orderings[name] = spec

    def table_ordering(self, name: str) -> SortSpec | None:
        """The declared ordering of ``name``, or None if unordered."""
        return self._orderings.get(name)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise BindError(
                f"unknown table {name!r} (have {sorted(self._tables)})"
            ) from None

    def table_version(self, name: str) -> int:
        """The table's write version (1 on first register)."""
        self.table(name)  # raises BindError on unknown tables
        return self._versions[name]

    def _schema_of(self, name: str) -> Schema:
        return self.table(name).schema

    # -- planning ---------------------------------------------------------- #

    def plan(
        self,
        sql: str | SelectStatement,
        optimize: bool = True,
        propagate_order: bool = True,
    ) -> planmod.LogicalPlan:
        """Bind ``sql``, parsing it first when it is text; optionally
        run the optimizer rewrites.

        ``propagate_order=False`` plans without the order-propagation
        pass (every sort stays a full sort) -- the oracle configuration
        the differential tests and benchmarks compare against.
        """
        statement = parse(sql) if isinstance(sql, str) else sql
        logical = planmod.bind(statement, self._schema_of)
        if optimize:
            logical = planmod.optimize(
                logical,
                self.table_ordering if propagate_order else None,
                propagate_order,
            )
        return logical

    def explain(
        self,
        sql: str,
        optimize: bool = True,
        propagate_order: bool = True,
    ) -> str:
        """The textual plan the query would execute."""
        return planmod.explain(self.plan(sql, optimize, propagate_order))

    def _physical(
        self,
        logical: planmod.LogicalPlan,
        sort_config: SortConfig | None = None,
        sinks: list[PhysicalOperator] | None = None,
    ) -> PhysicalOperator:
        config = sort_config or self.sort_config

        def child() -> PhysicalOperator:
            return self._physical(logical.child, sort_config, sinks)

        if isinstance(logical, planmod.LogicalScan):
            return ScanOperator(self.table(logical.table_name))
        if isinstance(logical, planmod.LogicalProject):
            return ProjectOperator(child(), logical.columns)
        if isinstance(logical, planmod.LogicalFilter):
            return FilterOperator(child(), logical.condition)
        if isinstance(logical, planmod.LogicalSort):
            operator = SortExecOperator(
                child(), logical.spec, config, mode=logical.mode
            )
            if sinks is not None:
                sinks.append(operator)
            return operator
        if isinstance(logical, planmod.LogicalLimit):
            return LimitOperator(child(), logical.limit, logical.offset)
        if isinstance(logical, planmod.LogicalAggregate):
            return CountAggregateOperator(child())
        if isinstance(logical, planmod.LogicalGroupBy):
            return GroupByOperator(
                child(), logical.schema, logical.keys, logical.aggregates
            )
        if isinstance(logical, planmod.LogicalJoin):
            return MergeJoinOperator(
                logical.schema,
                self._physical(logical.left, sort_config, sinks),
                self._physical(logical.right, sort_config, sinks),
                logical.left_keys,
                logical.right_keys,
            )
        if isinstance(logical, planmod.LogicalTopN):
            operator = TopNExecOperator(
                child(),
                logical.spec,
                logical.limit,
                logical.offset,
                config,
            )
            if sinks is not None:
                sinks.append(operator)
            return operator
        raise EngineError(f"no physical operator for {logical!r}")

    def referenced_tables(self, logical: planmod.LogicalPlan) -> tuple[str, ...]:
        """Names of the base tables a bound plan scans, sorted."""
        names: set[str] = set()
        stack = [logical]
        while stack:
            node = stack.pop()
            if isinstance(node, planmod.LogicalScan):
                names.add(node.table_name)
            for attr in ("child", "left", "right"):
                node_child = getattr(node, attr, None)
                if node_child is not None:
                    stack.append(node_child)
        return tuple(sorted(names))

    # -- execution ---------------------------------------------------------- #

    def execute(
        self,
        sql: str,
        optimize: bool = True,
        sort_config: SortConfig | None = None,
        propagate_order: bool = True,
    ) -> Table:
        """Run a query and return the full result table.

        ``sort_config`` overrides the database-wide config for this one
        query -- the hook a query service uses to attach its per-query
        cancellation event and memory grant without mutating shared
        state.  ``propagate_order=False`` forces every sort to run in
        full (the differential oracle).
        """
        return collect(
            self._physical(
                self.plan(sql, optimize, propagate_order), sort_config
            )
        )

    def execute_bound(
        self,
        logical: planmod.LogicalPlan,
        sort_config: SortConfig | None = None,
    ) -> tuple[Table, list]:
        """Execute an already-bound plan, returning (result, sort stats).

        The stats list holds one ``SortStats`` per Sort node (full,
        elided or subsumed; ORDER BY and the input sorts of GROUP BY and
        of each join side) and per Top-N, a node's inputs before the
        node; no other operator sorts.  The service layer plans once
        (for the cache key's table versions), then executes here under
        its per-query config.
        """
        sinks: list[PhysicalOperator] = []
        root = self._physical(logical, sort_config, sinks)
        result = collect(root)
        return result, [
            operator.last_stats
            for operator in sinks
            if operator.last_stats is not None
        ]

    def execute_detailed(
        self,
        sql: str,
        optimize: bool = True,
        sort_config: SortConfig | None = None,
        propagate_order: bool = True,
    ) -> tuple[Table, list]:
        """Run a query, also returning the sort operators' ``SortStats``.

        Convenience wrapper over :meth:`plan` + :meth:`execute_bound`,
        used to surface governor-forced spills and degradation counters
        per query.
        """
        return self.execute_bound(
            self.plan(sql, optimize, propagate_order), sort_config
        )
