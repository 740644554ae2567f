"""Physical vector-at-a-time operators.

Pull-based execution: each operator is an iterator of
:class:`~repro.table.chunk.DataChunk` batches (``chunks()``), which is
the vectorized interpreted model of the paper (interpretation overhead
amortized per vector, not per tuple).  A chunk has any length, and
``chunks()`` is the only way an operator produces rows:

* a scan yields its registered table as one chunk;
* a filter evaluates one mask per child chunk and yields the child's
  vectors plus a selection vector (DuckDB's ``SelectionVector``: the ids
  of the rows that pass), composed with the child's own selection;
* a projection keeps fewer vectors and the same selection;
* LIMIT yields zero-copy slices of its child's chunks and pulls no
  further chunk once it is filled.

Sort, Top-N, GROUP BY and merge join are the pipeline breakers: they
drain their child before producing anything, exactly as Section V
describes, and yield their result as one chunk.  Of these only Sort and
Top-N run a sort: a GROUP BY's input and each join side come through a
:class:`SortExecOperator` the planner put under them.  A sink takes a
chunk of any length, so a breaker sinks a scanned table whole, and a
filtered one as one selection whose rows it gathers once.
:meth:`PhysicalOperator.table` joins an operator's chunks and
:func:`collect` returns the root's, so a result may share column arrays
with a registered table (tables are immutable).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.engine.expressions import evaluate_mask
from repro.errors import EngineError
from repro.sort.operator import SortConfig, SortStats, make_sort_operator
from repro.sort.topn import TopNOperator
from repro.table.chunk import DataChunk, concat_chunks
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
    """Base: a schema and the chunks of the operator's output."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def chunks(self) -> Iterator[DataChunk]:
        raise NotImplementedError

    def table(self) -> Table:
        """The whole output as one table: its chunks joined (one chunk
        is its vectors, or one gather of its selection)."""
        chunks = list(self.chunks())
        if not chunks:
            return Table.empty(self.schema)
        return concat_chunks(chunks)


def collect(operator: PhysicalOperator) -> Table:
    """Drain an operator into one table (the client's result set)."""
    return operator.table()


class ScanOperator(PhysicalOperator):
    """Reads a base table: its rows as one chunk."""

    def __init__(self, table: Table) -> None:
        super().__init__(table.schema)
        self.source = table

    def chunks(self) -> Iterator[DataChunk]:
        if self.source.num_rows:
            yield DataChunk.from_table(self.source)


class ProjectOperator(PhysicalOperator):
    """Column projection: fewer vectors, the same selection."""

    def __init__(self, child: PhysicalOperator, columns: tuple[str, ...]) -> None:
        super().__init__(child.schema.select(columns))
        self.child = child
        self.columns = columns

    def chunks(self) -> Iterator[DataChunk]:
        for chunk in self.child.chunks():
            vectors = [chunk.vectors[chunk.schema.index_of(n)] for n in self.columns]
            yield DataChunk(self.schema, vectors, chunk.selection)


class FilterOperator(PhysicalOperator):
    """WHERE: one mask per child chunk, kept as a selection of its rows
    (none when every row passes; a chunk no row passes is dropped)."""

    def __init__(self, child: PhysicalOperator, condition) -> None:
        super().__init__(child.schema)
        self.child = child
        self.condition = condition

    def chunks(self) -> Iterator[DataChunk]:
        for chunk in self.child.chunks():
            mask = evaluate_mask(chunk, self.condition)
            if mask.all():
                yield chunk
            elif mask.any():
                selection = np.flatnonzero(mask)
                if chunk.selection is not None:
                    selection = chunk.selection[selection]
                yield DataChunk(self.schema, chunk.vectors, selection)


class SortExecOperator(PhysicalOperator):
    """The full-sort pipeline breaker wrapping the paper's sort operator.

    It runs every full sort of a query: ORDER BY and the input sorts of
    GROUP BY and merge join.  With ``SortConfig.external`` set it may
    spill (:func:`repro.sort.operator.make_sort_operator`) -- the same
    config object carries the spill knobs (failover directories,
    checksum verification), so the fault-tolerance ladder is reachable
    end-to-end from ``Database(sort_config=...)``.

    The optimizer's order-propagation pass sets ``mode`` to ``"elided"``
    or ``"subsumed"`` when the input already arrives in (at least) the
    requested order: the operator then passes the child's chunks through
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

    def chunks(self) -> Iterator[DataChunk]:
        if self.mode in ("elided", "subsumed"):
            stats = SortStats()
            if self.mode == "elided":
                stats.sorts_elided += 1
            else:
                stats.sorts_subsumed += 1
            self.last_stats = stats
            yield from self.child.chunks()
            return
        with make_sort_operator(self.schema, self.spec, self.config) as sorter:
            for chunk in self.child.chunks():
                sorter.sink(chunk)
            result = sorter.finalize()
            self.last_stats = sorter.stats
        yield DataChunk.from_table(result)


class TopNExecOperator(PhysicalOperator):
    """ORDER BY + LIMIT fused into the selecting top-N operator.

    Each child chunk is sunk as one batch, as the full sort sinks it
    (a scan's table, a filter's selection).  The config carries the
    cooperative cancellation event (checked per sunk chunk), so a
    service can abort a Top-N just like a full sort.  ``last_stats``
    holds the operator's ``SortStats`` (survivor sorts and string tie
    repair) once drained.
    """

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
        top = TopNOperator(
            self.schema, self.spec, self.limit, self.offset, self.config
        )
        for chunk in self.child.chunks():
            top.sink(chunk)
        result = top.finalize()
        self.last_stats = top.stats
        yield DataChunk.from_table(result)


class LimitOperator(PhysicalOperator):
    """LIMIT/OFFSET: slices of the child's chunks, in order."""

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
            start = min(to_skip, len(chunk))
            to_skip -= start
            stop = len(chunk)
            if remaining is not None:
                stop = min(stop, start + remaining)
                remaining -= stop - start
            if stop > start:
                yield chunk.slice(start, stop)
            if remaining == 0:
                return  # pull no further chunk from the child


class GroupByOperator(PhysicalOperator):
    """Sort-based GROUP BY over a child sorted by its keys (ascending,
    NULLS LAST): aggregation runs straight off the group boundaries."""

    def __init__(
        self,
        child: PhysicalOperator,
        schema: Schema,
        keys: tuple[str, ...],
        aggregates: tuple,
    ) -> None:
        super().__init__(schema)
        self.child = child
        self.keys = keys
        self.aggregates = aggregates

    def chunks(self) -> Iterator[DataChunk]:
        from repro.aggregate.groupby import group_by

        yield DataChunk.from_table(
            group_by(
                self.child.table(), self.keys, self.aggregates, presorted=True
            )
        )


class MergeJoinOperator(PhysicalOperator):
    """Sort-merge inner join over two children, each sorted by its join
    keys (ascending, NULLS LAST): drains both, aligns their groups."""

    def __init__(
        self,
        schema: Schema,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: tuple[str, ...],
        right_keys: tuple[str, ...],
    ) -> None:
        super().__init__(schema)
        self.left = left
        self.right = right
        self.left_keys = left_keys
        self.right_keys = right_keys

    def chunks(self) -> Iterator[DataChunk]:
        from repro.join.merge_join import merge_join

        yield DataChunk.from_table(
            merge_join(
                self.left.table(),
                self.right.table(),
                self.left_keys,
                self.right_keys,
                left_presorted=True,
                right_presorted=True,
            )
        )


class CountAggregateOperator(PhysicalOperator):
    """count(*): sums the lengths of its child's chunks (a scan's rows,
    a filter's selection: nothing is gathered) and emits one row.

    The paper's benchmark query reads the whole sorted subquery through
    this operator, forcing lazily-materializing sorts to do all their
    work, while the one-row result keeps serialization negligible.
    """

    def __init__(self, child: PhysicalOperator) -> None:
        super().__init__(Schema((ColumnDef("count_star", BIGINT, False),)))
        self.child = child

    def chunks(self) -> Iterator[DataChunk]:
        count = sum(map(len, self.child.chunks()))
        data = ColumnVector(BIGINT, np.array([count], dtype=np.int64))
        yield DataChunk(self.schema, [data])
