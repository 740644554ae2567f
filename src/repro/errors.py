"""Exception hierarchy for the rowsort reproduction library.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  The hierarchy mirrors where in the stack the failure happened:
type system, storage, sorting, simulator, or the mini SQL engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TypeError_(ReproError):
    """A value or column does not match its declared logical type.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class SchemaError(ReproError):
    """A schema is malformed or a referenced column does not exist."""


class ConversionError(ReproError):
    """A value cannot be converted between representations (e.g. DSM/NSM)."""


class SortError(ReproError):
    """A sort operator was configured or driven incorrectly."""


class SortCancelledError(SortError):
    """The sort was cancelled before it produced a result."""


class SpillError(SortError):
    """Base class for external-sort spill failures.

    Every spill failure names the run it concerns via ``path``
    (``<spill file>#<run>``) so callers (and operators) can report
    *which* spill file went bad.
    """

    def __init__(self, message: str, path: str | None = None) -> None:
        if path is not None and path not in message:
            message = f"{message} [spill file: {path}]"
        super().__init__(message)
        self.path = path


class SpillCorruptionError(SpillError):
    """A spill file failed an integrity check.

    Raised for a truncated section, a short read, a CRC32 mismatch or a
    payload that does not hold its schema's columns -- instead of letting
    the corruption surface as an opaque numpy shape/decode error
    mid-merge.
    """


class SpillIOError(SpillError):
    """The operating system failed a spill read/write we could not mask."""


class KeyEncodingError(ReproError):
    """Key normalization failed (unsupported type, bad prefix length, ...)."""


class UnencodableString(KeyEncodingError):
    """A VARCHAR value has no UTF-8 form (a lone surrogate): ``column``
    and ``row`` name it, ``row`` counted from the first value encoded."""

    def __init__(self, column: str, row: int, reason: str) -> None:
        super().__init__(
            f"column {column!r} row {row}: not encodable as UTF-8 ({reason})"
        )
        self.column, self.row, self.reason = column, row, reason

    def shifted(self, rows: int) -> "UnencodableString":
        """The same error, its row counted ``rows`` earlier."""
        return UnencodableString(self.column, self.row + rows, self.reason)


class SimulationError(ReproError):
    """The hardware simulator was misconfigured or misused."""


class OutOfMemoryError(SimulationError):
    """The simulated arena ran out of address space."""


class ServiceError(ReproError):
    """The concurrent query service failed a request."""


class ServiceOverloadError(ServiceError):
    """The service refused (or shed) a query because it is saturated.

    Raised instead of queueing without bound: the admission queue was
    full, another query held the memory grant past the admission
    timeout, or the query was load-shed to make room for higher
    priority work.  ``retry_after_s`` is the server's estimate of when
    capacity will free up; ``shed`` distinguishes a query evicted from
    the queue from one rejected at the door.
    """

    def __init__(
        self,
        message: str,
        retry_after_s: float = 0.0,
        shed: bool = False,
    ) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.shed = shed


class ServiceShutdownError(ServiceError):
    """The service is shutting down and no longer accepts queries."""


class QueryTimeoutError(ServiceError):
    """A query's deadline expired before it produced a result."""


class EngineError(ReproError):
    """The mini query engine failed to plan or execute a query."""


class ParseError(EngineError):
    """The SQL subset parser rejected a query string."""


class BindError(EngineError):
    """A query referenced an unknown table or column."""
