"""Sorted-result cache keyed on (parsed statement, table versions).

ORDER BY workloads are read-heavy and repetitive: the same sort spec
over the same table version produces byte-identical output, so the
service memoizes finished result tables.  The cache key is the parsed
:class:`repro.engine.ast_nodes.SelectStatement` plus the sorted
``(table, version)`` pair of every base table the bound plan scans
(:meth:`repro.engine.database.Database.table_version`); because
``Database.register`` bumps the version on every write, a stale entry
can never be *returned* -- its key simply stops being asked for, and
LRU eviction reclaims it.  That makes invalidation-on-write free: no
write hook, no cross-thread invalidation storm, just version-stamped
keys.

The statement is the parser's output, so keyword case and whitespace
never reach the key, while identifiers and string literals stay
byte-exact (``'Ab'`` and ``'ab'`` never share a key) and a WHERE
literal's type is part of its comparison (``a > 1`` and ``a > 1.0``
never share one either).

One answer is served from another entry: an ordered statement with
``LIMIT``/``OFFSET`` whose own key misses is sliced from the cached
result of the same statement without them.  The slice is
byte-identical to a fresh execution, because the engine's Top-N equals
sort-then-slice.  Nothing else is served from another query's result.

Thread-safe; entries are whole immutable :class:`repro.table.table.Table`
results, shared by reference (callers must not mutate result tables --
the same contract ``Database.execute`` already implies).
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict

from repro.engine.ast_nodes import SelectStatement
from repro.table.table import Table

__all__ = ["ResultCache"]


def _unlimited(statement: SelectStatement) -> SelectStatement | None:
    """The statement whose result ``statement``'s result slices, if any."""
    if not statement.order_by or (
        statement.limit is None and statement.offset is None
    ):
        return None
    return dataclasses.replace(statement, limit=None, offset=None)


class ResultCache:
    """A bounded LRU of finished query results.

    ``capacity`` counts entries, not bytes -- service results are
    bounded by the queries the benchmark runs; a byte-budgeted cache
    would need result sizing that Table does not expose cheaply.
    ``capacity <= 0`` disables caching (every ``get`` misses, ``put``
    drops).

    ``hits`` / ``misses`` count exact-key probes; ``prefix_hits``
    counts exact misses answered by slicing the same statement's
    cached un-limited result.
    """

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.prefix_hits = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Table]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _lookup(self, key: tuple) -> Table | None:
        table = self._entries.get(key)
        if table is not None:
            self._entries.move_to_end(key)
        return table

    def get(
        self,
        statement: SelectStatement,
        versions: tuple[tuple[str, int], ...],
    ) -> Table | None:
        """The cached answer to ``statement`` over ``versions``, or None."""
        versions = tuple(sorted(versions))
        with self._lock:
            table = self._lookup((statement, versions))
            if table is not None:
                self.hits += 1
                return table
            self.misses += 1
            unlimited = _unlimited(statement)
            if unlimited is None:
                return None
            table = self._lookup((unlimited, versions))
            if table is None:
                return None
            self.prefix_hits += 1
        start = min(statement.offset or 0, table.num_rows)
        stop = table.num_rows
        if statement.limit is not None:
            stop = min(start + statement.limit, stop)
        return table.slice(start, stop)

    def put(
        self,
        statement: SelectStatement,
        versions: tuple[tuple[str, int], ...],
        result: Table,
    ) -> None:
        if self.capacity <= 0:
            return
        key = (statement, tuple(sorted(versions)))
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
