"""WHERE-clause predicates: comparisons against literals, AND-combined.

The mini engine's filter expressions::

    WHERE a < 10 AND name = 'GERMANY' AND b IS NOT NULL

Grammar (AND-conjunctions of simple comparisons; enough for a usable
engine without turning this into an expression-compiler project)::

    condition  := comparison (AND comparison)*
    comparison := column op literal | column IS [NOT] NULL
    op         := = | <> | < | <= | > | >=
    literal    := [-]number | 'string' | TRUE | FALSE

Evaluation is vectorized per DataChunk (a scanned table is one): each
comparison produces a boolean mask over it (NULL comparisons are false,
SQL three-valued logic collapsed to filter semantics), and masks are
AND-ed.  The filter keeps the mask's ids as the chunk's selection.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import BindError, EngineError
from repro.table.chunk import DataChunk
from repro.types.datatypes import TypeId
from repro.types.schema import Schema

__all__ = ["Comparison", "Conjunction", "evaluate_mask"]

_OPS = ("=", "<>", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """``column op literal`` or an IS [NOT] NULL test (op = "is null" /
    "is not null", literal ignored).

    ``literal_type`` is ``type(literal)``: ``1``, ``1.0`` and ``TRUE``
    compare and hash equal in Python but not against an int64 column
    (a float literal compares in float64), so equality and hash see the
    type too.
    """

    column: str
    op: str
    literal: Any = None
    literal_type: type = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in _OPS + ("is null", "is not null"):
            raise EngineError(f"unsupported operator {self.op!r}")
        object.__setattr__(self, "literal_type", type(self.literal))

    def validate(self, schema: Schema) -> None:
        if self.column not in schema:
            raise BindError(
                f"WHERE column {self.column!r} not found in "
                f"{list(schema.names)}"
            )
        column = schema.column(self.column)
        if self.op in ("is null", "is not null"):
            return
        dtype = column.dtype
        if dtype.type_id is TypeId.VARCHAR:
            if not isinstance(self.literal, str):
                raise BindError(
                    f"column {self.column!r} is VARCHAR but literal is "
                    f"{type(self.literal).__name__}"
                )
        elif isinstance(self.literal, str):
            raise BindError(
                f"column {self.column!r} is {dtype.name} but literal is a "
                "string"
            )


@dataclass(frozen=True)
class Conjunction:
    """AND of one or more comparisons."""

    comparisons: tuple[Comparison, ...]

    def __post_init__(self) -> None:
        if not self.comparisons:
            raise EngineError("a conjunction needs at least one comparison")

    def validate(self, schema: Schema) -> None:
        for comparison in self.comparisons:
            comparison.validate(schema)


def _comparison_mask(chunk: DataChunk, comparison: Comparison) -> np.ndarray:
    vector = chunk.vector(comparison.column)
    if comparison.op == "is null":
        return ~vector.validity
    if comparison.op == "is not null":
        return vector.validity.copy()
    data = vector.data
    literal = comparison.literal
    if vector.dtype.type_id is TypeId.VARCHAR:
        raw = _object_compare(data, comparison.op, literal)
    else:
        raw = _numeric_compare(data, comparison.op, literal)
    return raw & vector.validity if vector.has_nulls else raw  # NULL fails


_COMPARE = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _numeric_compare(data: np.ndarray, op: str, literal: Any) -> np.ndarray:
    return _COMPARE[op](data, literal)


def _object_compare(values: np.ndarray, op: str, literal: str) -> np.ndarray:
    """String comparison against a literal, vectorized.

    One whole-array numpy operator over the object column compares the
    ``str`` values themselves, in Python ``str`` order, so a trailing
    ``"\\0"`` counts: the literal is wrapped as an object scalar, since
    numpy would make a bare ``str`` a fixed-width ``np.str_``, which
    strips it (and a cast of the column would also allocate ``rows *
    longest * 4`` bytes).  A column holding values that do not order
    against a ``str`` (a NULL slot's filler) is compared as their
    ``str()``.
    """
    compare = _COMPARE[op]
    literal = np.array(literal, dtype=object)
    try:
        return np.asarray(compare(values, literal), dtype=bool)
    except TypeError:
        coerced = np.array([str(value) for value in values], dtype=object)
        return np.asarray(compare(coerced, literal), dtype=bool)


def evaluate_mask(chunk: DataChunk, condition: Conjunction) -> np.ndarray:
    """Boolean keep-mask of a conjunction over one chunk."""
    mask = _comparison_mask(chunk, condition.comparisons[0])
    for comparison in condition.comparisons[1:]:
        mask &= _comparison_mask(chunk, comparison)
    return mask

