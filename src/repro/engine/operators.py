"""Physical vector-at-a-time operators.

Pull-based execution: each operator is an iterator of
:class:`~repro.table.chunk.DataChunk` batches (``chunks()``), which is
the vectorized interpreted model of the paper (interpretation overhead
amortized per vector, not per tuple), and gives the same rows as one
table (``table()``).  Sort, Top-N, GROUP BY and merge join are the
pipeline breakers: they drain their child before producing anything,
exactly as Section V describes.  A breaker materializes its whole input
anyway, so it reads its child's *whole-output chunk* when the child has
one (``whole_chunk()``, a sink takes a chunk of any length): a
*resident* child -- a scan, a projection of one, another breaker -- is
one chunk of its table, and a filter over a resident child is one chunk
of that table's vectors plus a selection vector (DuckDB's
``SelectionVector``: the ids of the rows that pass, one mask evaluated
over the whole table), gathered once by whoever needs the rows.  Only a
streaming child (a LIMIT, a filter over one) is drained vector by
vector.  A breaker's ``table()`` is the result it computed, and its
``chunks()`` slices that table for a streaming consumer (LIMIT).
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

    def whole_chunk(self) -> DataChunk | None:
        """The whole output as one chunk, or ``None`` when it only
        streams: a resident operator's table."""
        return DataChunk.from_table(self.table()) if self.resident else None

    def table(self) -> Table:
        """The whole output as one table."""
        chunks = list(self.chunks())
        if not chunks:
            return Table.empty(self.schema)
        return concat_chunks(chunks)


def collect(operator: PhysicalOperator) -> Table:
    """Drain an operator into one table (the client's result set)."""
    return operator.table()


def _whole_or_streamed(child: PhysicalOperator) -> Iterable[DataChunk]:
    """A breaker's input: the child's whole-output chunk, else its
    streamed chunks."""
    whole = child.whole_chunk()
    return child.chunks() if whole is None else [whole]


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
    """WHERE: vectorized mask + gather per chunk when streamed; over a
    resident child, one mask over its whole table and a selection."""

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

    def whole_chunk(self) -> DataChunk | None:
        """The resident child's vectors and the ids of the rows that
        pass (no selection when every row does)."""
        from repro.engine.expressions import evaluate_mask

        if not self.child.resident:
            return None
        source = DataChunk.from_table(self.child.table())
        mask = evaluate_mask(source, self.condition)
        if mask.all():
            return source
        return DataChunk(self.schema, source.vectors, np.flatnonzero(mask))

    def table(self) -> Table:
        chunk = self.whole_chunk()
        return super().table() if chunk is None else chunk.to_table()


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
        return self._full_sort(_whole_or_streamed(self.child))

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

    A child's whole-output chunk is sunk as one batch, as the full sort
    sinks it; a streaming child is sunk vector by vector and absorbed
    every :data:`repro.sort.topn.BATCH_ROWS` rows.  The config
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
        for chunk in _whole_or_streamed(self.child):
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
        if remaining == 0:
            return
        for chunk in self.child.chunks():
            table = chunk.to_table()
            if to_skip:
                if to_skip >= table.num_rows:
                    to_skip -= table.num_rows
                    continue
                table = table.slice(to_skip, table.num_rows)
                to_skip = 0
            if remaining is not None:
                if table.num_rows > remaining:
                    table = table.slice(0, remaining)
                remaining -= table.num_rows
            if table.num_rows:
                yield DataChunk.from_table(table)
            if remaining == 0:
                return  # pull no further vector from the child


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
    """count(*): counts the child's whole-output chunk (a scan's rows, a
    filter's selection: nothing is gathered) or drains its stream, and
    emits one row.

    The paper's benchmark query reads the whole sorted subquery through
    this operator, forcing lazily-materializing sorts to do all their
    work, while the one-row result keeps serialization negligible.
    """

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__(Schema((ColumnDef("count_star", BIGINT, False),)))
        self.child = child

    def chunks(self) -> Iterator[DataChunk]:
        count = sum(map(len, _whole_or_streamed(self.child)))
        data = ColumnVector(BIGINT, np.array([count], dtype=np.int64))
        yield DataChunk(self.schema, [data])
