"""Physical vector-at-a-time operators.

Pull-based execution: each operator is an iterator of
:class:`~repro.table.chunk.DataChunk` batches, which is the vectorized
interpreted model of the paper (interpretation overhead amortized per
vector, not per tuple).  Sort and TopN are the pipeline breakers: they
drain their child before producing anything, exactly as Section V
describes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import EngineError
from repro.sort.operator import SortConfig, make_sort_operator
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
    """Base: a schema plus a chunk iterator."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema

    def chunks(self) -> Iterator[DataChunk]:
        raise NotImplementedError


def collect(operator: PhysicalOperator) -> Table:
    """Drain an operator into one table (the client's result set)."""
    chunks = list(operator.chunks())
    if not chunks:
        return Table.empty(operator.schema)
    return concat_chunks(chunks)


class ScanOperator(PhysicalOperator):
    """Reads a base table in vector batches."""

    def __init__(self, table: Table, vector_size: int = VECTOR_SIZE) -> None:
        super().__init__(table.schema)
        self.table = table
        self.vector_size = vector_size

    def chunks(self) -> Iterator[DataChunk]:
        if self.table.num_rows == 0:
            return
        yield from chunk_table(self.table, self.vector_size)


class ProjectOperator(PhysicalOperator):
    """Column projection (pure column selection; streaming)."""

    def __init__(self, child: PhysicalOperator, columns: tuple[str, ...]) -> None:
        super().__init__(child.schema.select(columns))
        self.child = child
        self.columns = columns

    def chunks(self) -> Iterator[DataChunk]:
        for chunk in self.child.chunks():
            vectors = [chunk.vector(name) for name in self.columns]
            yield DataChunk(self.schema, vectors)


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

    The optimizer's order-propagation pass downgrades the operator via
    ``mode``:

    * ``"elided"`` / ``"subsumed"``: the input already arrives in (at
      least) the requested order -- stream the child through untouched
      and record only a ``sorts_elided`` / ``sorts_subsumed`` counter.
    * ``"refine"``: the input is exactly sorted by ``refine_prefix``, a
      leading prefix of ``spec`` -- run the vectorized tie-group
      refinement (:func:`repro.sort.refine.refine_sorted`) and fall
      back to the full sort -- which may spill like any other --
      counting ``refine_fallbacks`` when that pass declines.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        spec: SortSpec,
        config: SortConfig | None = None,
        mode: str = "full",
        refine_prefix: SortSpec | None = None,
    ) -> None:
        super().__init__(child.schema)
        self.child = child
        self.spec = spec
        self.config = config or SortConfig()
        self.mode = mode
        self.refine_prefix = refine_prefix
        self.last_stats = None

    def chunks(self) -> Iterator[DataChunk]:
        from repro.sort.operator import SortStats

        if self.mode in ("elided", "subsumed"):
            stats = SortStats()
            if self.mode == "elided":
                stats.sorts_elided += 1
            else:
                stats.sorts_subsumed += 1
            self.last_stats = stats
            yield from self.child.chunks()
            return
        if self.mode == "refine" and self.refine_prefix is not None:
            from repro.sort.refine import refine_sorted

            source = collect(self.child)
            stats = SortStats()
            refined = refine_sorted(
                source, self.spec, self.refine_prefix, stats
            )
            if refined is not None:
                self.last_stats = stats
                yield from chunk_table(refined, self.config.vector_size)
                return
            # The refinement pass declined; run the full sort.
            result = self._full_sort(
                chunk_table(source, self.config.vector_size)
            )
            self.last_stats.refine_fallbacks += 1
        else:
            result = self._full_sort(self.child.chunks())
        yield from chunk_table(result, self.config.vector_size)

    def _full_sort(self, chunks: Iterator[DataChunk]) -> Table:
        """Run ``chunks`` through the configured full sort."""
        with make_sort_operator(self.schema, self.spec, self.config) as sorter:
            for chunk in chunks:
                sorter.sink(chunk)
            result = sorter.finalize()
            self.last_stats = sorter.stats
            return result


class TopNExecOperator(PhysicalOperator):
    """ORDER BY + LIMIT fused into the cutoff-pruning top-N operator.

    The config carries the cooperative cancellation event (checked per
    sunk chunk), so a service can abort a long Top-N scan mid-stream
    just like a full sort.  ``last_stats`` holds the operator's
    ``SortStats`` (compaction sorts and string tie repair) once drained.
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
        yield from chunk_table(result, self.config.vector_size)


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
        from repro.aggregate.groupby import group_by
        from repro.sort.operator import SortStats

        source = collect(self.child)
        if self.presorted:
            stats = SortStats()
            stats.sorts_elided += 1
            self.last_stats = stats
        result = group_by(
            source,
            self.keys,
            self.aggregates,
            self.config,
            presorted=self.presorted,
        )
        yield from chunk_table(result)


class MergeJoinOperator(PhysicalOperator):
    """Sort-merge inner join: drains both children, merges sorted runs.

    Order-propagation sets ``left_presorted`` / ``right_presorted`` when
    that input already arrives sorted by its join keys; the join then
    skips that side's sort and ``last_stats`` records the elision.
    """

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
        from repro.join.merge_join import merge_join
        from repro.sort.operator import SortStats

        stats = SortStats()
        result = merge_join(
            collect(self.left),
            collect(self.right),
            self.left_keys,
            self.right_keys,
            config=self.config,
            left_presorted=self.left_presorted,
            right_presorted=self.right_presorted,
            stats=stats,
        )
        self.last_stats = stats
        yield from chunk_table(result)


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
