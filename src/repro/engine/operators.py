"""Physical vector-at-a-time operators.

Pull-based execution: each operator is an iterator of
:class:`~repro.table.chunk.DataChunk` batches (``chunks()``), which is
the vectorized interpreted model of the paper (interpretation overhead
amortized per vector, not per tuple), and gives the same rows as one
table (``table()``).  Sort, Top-N, GROUP BY and merge join are the
pipeline breakers: they drain their child before producing anything,
exactly as Section V describes.  A breaker materializes its whole input
anyway, so it reads a *resident* child -- a scan, a projection of one,
another breaker -- as one table (a sink takes a chunk of any length);
only a streaming child (a filter, a LIMIT) is drained vector by vector.
A breaker's ``table()`` is the result it computed, and its ``chunks()``
slices that table for a streaming consumer (LIMIT, ``count(*)``).
:func:`collect` returns the root's ``table()``, so a result may share
column arrays with a registered table (tables are immutable).
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import EngineError
from repro.sort.operator import SortConfig, SortStats, make_sort_operator
from repro.sort.topn import TopNOperator
from repro.table.chunk import (
    VECTOR_SIZE,
    DataChunk,
    chunk_table,
    concat_chunks,
)
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import BIGINT
from repro.types.schema import ColumnDef, Schema
from repro.types.sortspec import SortSpec

__all__ = [
    "PhysicalOperator",
    "ScanOperator",
    "ProjectOperator",
    "FilterOperator",
    "SortExecOperator",
    "TopNExecOperator",
    "LimitOperator",
    "CountAggregateOperator",
    "GroupByOperator",
    "MergeJoinOperator",
    "collect",
]


class PhysicalOperator:
    """Base: a schema, a chunk iterator, and the same rows as one table.

    ``resident`` is true when :meth:`table` copies nothing: the rows
    already exist as one table (a scan, a projection of a resident
    child, a pipeline breaker's result).  A streaming operator's table
    is its chunks concatenated.
    """

    resident = False

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def chunks(self) -> Iterator[DataChunk]:
        raise NotImplementedError

    def table(self) -> Table:
        """The whole output as one table."""
        chunks = list(self.chunks())
        if not chunks:
            return Table.empty(self.schema)
        return concat_chunks(chunks)


def collect(operator: PhysicalOperator) -> Table:
    """Drain an operator into one table (the client's result set)."""
    return operator.table()


class ScanOperator(PhysicalOperator):
    """Reads a base table: whole, or in vector batches."""

    resident = True

    def __init__(self, table: Table, vector_size: int = VECTOR_SIZE) -> None:
        super().__init__(table.schema)
        self.source = table
        self.vector_size = vector_size

    def chunks(self) -> Iterator[DataChunk]:
        if self.source.num_rows == 0:
            return
        yield from chunk_table(self.source, self.vector_size)

    def table(self) -> Table:
        return self.source


class ProjectOperator(PhysicalOperator):
    """Column projection (pure column selection; streaming)."""

    def __init__(self, child: PhysicalOperator, columns: tuple[str, ...]) -> None:
        super().__init__(child.schema.select(columns))
        self.child = child
        self.columns = columns

    @property
    def resident(self) -> bool:
        return self.child.resident

    def chunks(self) -> Iterator[DataChunk]:
        for chunk in self.child.chunks():
            vectors = [chunk.vector(name) for name in self.columns]
            yield DataChunk(self.schema, vectors)

    def table(self) -> Table:
        if not self.child.resident:
            return super().table()
        return self.child.table().select(self.columns)


class FilterOperator(PhysicalOperator):
    """Streaming WHERE: vectorized mask + gather per chunk."""

    def __init__(self, child: PhysicalOperator, condition) -> None:
        super().__init__(child.schema)
        self.child = child
        self.condition = condition

    def chunks(self) -> Iterator[DataChunk]:
        from repro.engine.expressions import filter_chunk

        for chunk in self.child.chunks():
            filtered = filter_chunk(chunk, self.condition)
            if len(filtered):
                yield filtered


class SortExecOperator(PhysicalOperator):
    """The full-sort pipeline breaker wrapping the paper's sort operator.

    With ``SortConfig.external`` set, ORDER BY may spill
    (:func:`repro.sort.operator.make_sort_operator`) -- the same config
    object carries the spill knobs (failover directories, retry policy,
    checksum verification), so the fault-tolerance ladder is reachable
    end-to-end from ``Database(sort_config=...)``.

    The optimizer's order-propagation pass sets ``mode`` to ``"elided"``
    or ``"subsumed"`` when the input already arrives in (at least) the
    requested order: the operator then passes the child through
    untouched and records only a ``sorts_elided`` / ``sorts_subsumed``
    counter.  Any other input, including one that provides a leading
    prefix of ``spec``, gets the full sort.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        spec: SortSpec,
        config: SortConfig | None = None,
        mode: str = "full",
    ) -> None:
        super().__init__(child.schema)
        self.child = child
        self.spec = spec
        self.config = config or SortConfig()
        self.mode = mode
        self.last_stats = None

    @property
    def resident(self) -> bool:
        return self.mode not in ("elided", "subsumed") or self.child.resident

    def chunks(self) -> Iterator[DataChunk]:
        if self._passes_through():
            yield from self.child.chunks()
        else:
            yield from chunk_table(self.table(), self.config.vector_size)

    def table(self) -> Table:
        if self._passes_through():
            return self.child.table()
        if self.child.resident:
            return self._full_sort([DataChunk.from_table(self.child.table())])
        return self._full_sort(self.child.chunks())

    def _passes_through(self) -> bool:
        """Record an elided or subsumed sort; true when it is one."""
        if self.mode not in ("elided", "subsumed"):
            return False
        stats = SortStats()
        if self.mode == "elided":
            stats.sorts_elided += 1
        else:
            stats.sorts_subsumed += 1
        self.last_stats = stats
        return True

    def _full_sort(self, chunks: Iterable[DataChunk]) -> Table:
        """Run ``chunks`` through the configured full sort."""
        with make_sort_operator(self.schema, self.spec, self.config) as sorter:
            for chunk in chunks:
                sorter.sink(chunk)
            result = sorter.finalize()
            self.last_stats = sorter.stats
            return result


class TopNExecOperator(PhysicalOperator):
    """ORDER BY + LIMIT fused into the selecting top-N operator.

    A resident child's table is sunk whole, as one batch, as the full
    sort sinks it; a streaming child is sunk vector by vector and
    absorbed every :data:`repro.sort.topn.BATCH_ROWS` rows.  The config
    carries the cooperative cancellation event (checked per sunk chunk),
    so a service can abort a long streaming Top-N mid-stream just like a
    full sort.  ``last_stats`` holds the operator's ``SortStats``
    (survivor sorts and string tie repair) once drained.
    """

    resident = True

    def __init__(
        self,
        child: PhysicalOperator,
        spec: SortSpec,
        limit: int,
        offset: int = 0,
        config: SortConfig | None = None,
    ) -> None:
        super().__init__(child.schema)
        self.child = child
        self.spec = spec
        self.limit = limit
        self.offset = offset
        self.config = config or SortConfig()
        self.last_stats = None

    def chunks(self) -> Iterator[DataChunk]:
        yield from chunk_table(self.table(), self.config.vector_size)

    def table(self) -> Table:
        top = TopNOperator(
            self.schema, self.spec, self.limit, self.offset, self.config
        )
        if self.child.resident:
            source = [DataChunk.from_table(self.child.table())]
        else:
            source = self.child.chunks()
        for chunk in source:
            top.sink(chunk)
        result = top.finalize()
        self.last_stats = top.stats
        return result


class LimitOperator(PhysicalOperator):
    """Streaming LIMIT/OFFSET over ordered input."""

    def __init__(
        self,
        child: PhysicalOperator,
        limit: int | None,
        offset: int = 0,
    ) -> None:
        super().__init__(child.schema)
        if limit is not None and limit < 0:
            raise EngineError("LIMIT must be non-negative")
        if offset < 0:
            raise EngineError("OFFSET must be non-negative")
        self.child = child
        self.limit = limit
        self.offset = offset

    def chunks(self) -> Iterator[DataChunk]:
        to_skip = self.offset
        remaining = self.limit  # None = unbounded
        for chunk in self.child.chunks():
            table = chunk.to_table()
            if to_skip:
                if to_skip >= table.num_rows:
                    to_skip -= table.num_rows
                    continue
                table = table.slice(to_skip, table.num_rows)
                to_skip = 0
            if remaining is not None:
                if remaining == 0:
                    return
                if table.num_rows > remaining:
                    table = table.slice(0, remaining)
                remaining -= table.num_rows
            if table.num_rows:
                yield DataChunk.from_table(table)


class GroupByOperator(PhysicalOperator):
    """Sort-based GROUP BY: a pipeline breaker like the sort itself.

    ``presorted`` is the optimizer's order-propagation promise that the
    input already arrives sorted by the grouping keys; the internal
    sort is skipped (``last_stats.sorts_elided``) and aggregation runs
    straight off the group boundaries.
    """

    resident = True

    def __init__(
        self,
        child: PhysicalOperator,
        schema: Schema,
        keys: tuple[str, ...],
        aggregates: tuple,
        config: SortConfig | None = None,
        presorted: bool = False,
    ) -> None:
        super().__init__(schema)
        self.child = child
        self.keys = keys
        self.aggregates = aggregates
        self.config = config or SortConfig()
        self.presorted = presorted
        self.last_stats = None

    def chunks(self) -> Iterator[DataChunk]:
        yield from chunk_table(self.table())

    def table(self) -> Table:
        from repro.aggregate.groupby import group_by

        source = self.child.table()
        if self.presorted:
            stats = SortStats()
            stats.sorts_elided += 1
            self.last_stats = stats
        return group_by(
            source,
            self.keys,
            self.aggregates,
            self.config,
            presorted=self.presorted,
        )


class MergeJoinOperator(PhysicalOperator):
    """Sort-merge inner join: drains both children, merges sorted runs.

    Order-propagation sets ``left_presorted`` / ``right_presorted`` when
    that input already arrives sorted by its join keys; the join then
    skips that side's sort and ``last_stats`` records the elision.
    """

    resident = True

    def __init__(
        self,
        schema: Schema,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[str, ...],
        right_keys: tuple[str, ...],
        config: SortConfig | None = None,
        left_presorted: bool = False,
        right_presorted: bool = False,
    ) -> None:
        super().__init__(schema)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.config = config or SortConfig()
        self.left_presorted = left_presorted
        self.right_presorted = right_presorted
        self.last_stats = None

    def chunks(self) -> Iterator[DataChunk]:
        yield from chunk_table(self.table())

    def table(self) -> Table:
        from repro.join.merge_join import merge_join

        stats = SortStats()
        result = merge_join(
            self.left.table(),
            self.right.table(),
            self.left_keys,
            self.right_keys,
            config=self.config,
            left_presorted=self.left_presorted,
            right_presorted=self.right_presorted,
            stats=stats,
        )
        self.last_stats = stats
        return result


class CountAggregateOperator(PhysicalOperator):
    """count(*): drains the child, emits one row.

    The paper's benchmark query reads the whole sorted subquery through
    this operator, forcing lazily-materializing sorts to do all their
    work, while the one-row result keeps serialization negligible.
    """

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__(Schema((ColumnDef("count_star", BIGINT, False),)))
        self.child = child

    def chunks(self) -> Iterator[DataChunk]:
        count = 0
        for chunk in self.child.chunks():
            count += len(chunk)
        data = ColumnVector(BIGINT, np.array([count], dtype=np.int64))
        yield DataChunk(self.schema, [data])
