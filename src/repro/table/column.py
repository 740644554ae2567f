"""Column vectors: a typed numpy array plus a validity mask.

This is the DSM (Decomposition Storage Model) building block: each column of
a table lives in its own contiguous array.  NULLs are represented with a
separate boolean validity mask (True = value present), the same choice
DuckDB, Arrow, and most vectorized systems make, so the value array keeps a
uniform dtype.
"""

from __future__ import annotations

import weakref
from typing import Any, Iterable, Sequence

import numpy as np

from repro.errors import TypeError_
from repro.table.strings import EncodedStrings, all_valid
from repro.types.datatypes import DataType, TypeId, type_for_numpy_dtype

__all__ = ["ColumnVector"]

_NO_NULLS = np.broadcast_to(np.True_, (np.iinfo(np.intp).max,))
"""Read-only and zero-stride: its first ``n`` rows are the mask of an
``n``-row column without NULLs (a slice costs no ``broadcast_to`` call)."""


class ColumnVector:
    """A typed column of values with NULL tracking.

    Attributes:
        dtype: the logical type of the column.
        data: numpy array of physical values.  Slots that are NULL hold an
            unspecified (but type-valid) filler value.
        validity: boolean numpy array, True where the value is present.  A
            column without NULLs holds no mask bytes: its mask is the
            read-only zero-stride view ``np.broadcast_to(True, (n,))``,
            which the constructor makes of a missing or all-True mask, and
            :meth:`take`, :meth:`slice` and :meth:`concat` hand on.
            :attr:`has_nulls` tells the two apart without a scan.

    A column's values are fixed once it is built: nothing writes ``data``
    or ``validity`` in place.  That is what lets a VARCHAR column keep its
    UTF-8 form (:meth:`strings`) for its whole life, and hand it on, as
    slots over the same heap, to the columns :meth:`take`, :meth:`slice`
    and :meth:`concat` make of it.
    """

    __slots__ = ("dtype", "data", "validity", "_strings")

    def __init__(
        self,
        dtype: DataType,
        data: np.ndarray,
        validity: np.ndarray | None = None,
        strings: EncodedStrings | None = None,
    ) -> None:
        """``strings``, for a VARCHAR column, is the UTF-8 form of
        ``data`` (under ``validity``), when the caller holds it already."""
        dtype.validate_array(data)
        if data.ndim != 1:
            raise TypeError_(f"column data must be 1-D, got shape {data.shape}")
        if validity is not None:
            validity = np.asarray(validity, dtype=bool)
            if validity.shape != data.shape:
                raise TypeError_(
                    f"validity shape {validity.shape} != data shape "
                    f"{data.shape}"
                )
            if all_valid(validity):
                validity = None  # no NULLs: no mask bytes
            elif validity.strides == (0,):  # a broadcast False
                validity = validity.copy()
        if validity is None:
            validity = _NO_NULLS[: len(data)]
        self.dtype = dtype
        self.data = data
        self.validity = validity
        #: The UTF-8 form: an ``EncodedStrings``, a function deriving it
        #: from the column this one was made from, or ``None`` (the codec
        #: makes it from ``data`` on first request).
        self._strings = strings

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_values(
        cls, values: Iterable[Any], dtype: DataType | None = None
    ) -> "ColumnVector":
        """Build a column from a Python iterable; ``None`` entries are NULL.

        If ``dtype`` is omitted it is inferred: ints -> INTEGER (BIGINT if any
        value overflows 32 bits), floats -> DOUBLE, str -> VARCHAR,
        bool -> BOOLEAN.
        """
        values = list(values)
        if dtype is None:
            dtype = _infer_dtype(values)
        n = len(values)
        validity = np.array([v is not None for v in values], dtype=bool)
        if dtype.type_id is TypeId.VARCHAR:
            data = np.empty(n, dtype=object)
            for i, v in enumerate(values):
                data[i] = v if v is not None else ""
        else:
            filler: Any = 0
            data = np.array(
                [v if v is not None else filler for v in values],
                dtype=dtype.numpy_dtype,
            )
        return cls(dtype, data, validity)

    @classmethod
    def from_numpy(
        cls, array: np.ndarray, dtype: DataType | None = None
    ) -> "ColumnVector":
        """Wrap an existing numpy array (no NULLs) as a column."""
        if dtype is None:
            dtype = type_for_numpy_dtype(array.dtype)
        return cls(dtype, np.ascontiguousarray(array))

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.data)

    @property
    def has_nulls(self) -> bool:
        """No scan: a column without NULLs holds the zero-stride mask."""
        return self.validity.strides != (0,)

    @property
    def null_count(self) -> int:
        if not self.has_nulls:
            return 0
        return int(len(self) - self.validity.sum())

    def _mask(self, rows) -> np.ndarray | None:
        """The mask of ``rows``; ``None`` (no bytes) for a NULL-free column."""
        return self.validity[rows] if self.has_nulls else None

    def value(self, index: int) -> Any:
        """The Python value at ``index`` (``None`` for NULL)."""
        if not self.validity[index]:
            return None
        raw = self.data[index]
        if self.dtype.type_id is TypeId.VARCHAR:
            return str(raw)
        if self.dtype.is_float:
            return float(raw)
        if self.dtype.type_id is TypeId.BOOLEAN:
            return bool(raw)
        return int(raw)

    def to_pylist(self) -> list[Any]:
        """All values as a Python list with ``None`` for NULLs."""
        return [self.value(i) for i in range(len(self))]

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #

    def strings(self, name: str = "") -> EncodedStrings:
        """This VARCHAR column's UTF-8 form, made on first request and kept.

        A column :meth:`take`, :meth:`slice` or :meth:`concat` made of
        encoded columns derives its slots from theirs; any other encodes
        its own rows, ``name`` naming it in the error a value with no
        UTF-8 form raises.  Threads may ask at once: each makes a whole
        form and publishes it in one assignment.
        """
        source = self._strings
        if isinstance(source, EncodedStrings):
            return source
        strings = None if source is None else source()
        if strings is None:
            strings = EncodedStrings.encode(self.data, self.validity, name)
            self._strings = strings
        elif not isinstance(source, _Gather):  # a gather keeps what it made
            self._strings = strings
        return strings

    def take(self, indices: np.ndarray) -> "ColumnVector":
        """Gather rows by position -- the payload-reorder primitive.

        The gather of an encoded column, or of such a gather, derives its
        slots from that encoding when first asked for (``indices`` is
        read again then), as long as the encoding is in use: it holds it
        by a weak reference, so a result kept longer than its source
        keeps no slots alive.
        """
        column = ColumnVector(
            self.dtype, self.data[indices], self._mask(indices)
        )
        source = self._strings
        if isinstance(source, EncodedStrings):
            ref, ids = weakref.ref(source), indices
        elif isinstance(source, _Gather):
            ref, ids = source.source, source.ids[indices]
        else:
            return column
        column._strings = _Gather(ref, ids, column.validity)
        return column

    def slice(self, start: int, stop: int) -> "ColumnVector":
        """A zero-copy slice view of this column (and of its slots)."""
        rows = slice(start, stop)
        column = ColumnVector(self.dtype, self.data[rows], self._mask(rows))
        source = self._strings
        if isinstance(source, EncodedStrings):
            column._strings = source.slice(start, stop)
        elif isinstance(source, _Gather):
            column._strings = _Gather(
                source.source, source.ids[rows], column.validity
            )
        return column

    def concat(self, *others: "ColumnVector") -> "ColumnVector":
        """This column followed by ``others`` (types must match); the
        parts' slots joined, when every part is encoded."""
        for other in others:
            if other.dtype.type_id is not self.dtype.type_id:
                raise TypeError_(
                    f"cannot concat {self.dtype.name} with {other.dtype.name}"
                )
        parts = (self, *others)
        masks = None
        if any(part.has_nulls for part in parts):
            masks = np.concatenate([part.validity for part in parts])
        column = ColumnVector(
            self.dtype, np.concatenate([part.data for part in parts]), masks
        )
        sources = [part._strings for part in parts]
        if None not in sources:

            def derive() -> EncodedStrings | None:
                forms = [_resolve(source) for source in sources]
                if None in forms:
                    return None
                return EncodedStrings.concat(forms)

            column._strings = derive
        return column

    def equals(self, other: "ColumnVector") -> bool:
        """Value equality including NULL positions (NULL == NULL here)."""
        if self.dtype.type_id is not other.dtype.type_id:
            return False
        if len(self) != len(other):
            return False
        if self.has_nulls != other.has_nulls:
            return False
        valid = slice(None)
        if self.has_nulls:
            valid = self.validity
            if not np.array_equal(valid, other.validity):
                return False
        if self.dtype.type_id is TypeId.VARCHAR:
            return all(
                self.data[i] == other.data[i]
                for i in np.arange(len(self))[valid]
            )
        mine, theirs = self.data[valid], other.data[valid]
        if self.dtype.is_float:
            return bool(
                np.array_equal(mine, theirs)
                or np.allclose(mine, theirs, equal_nan=True)
            )
        return bool(np.array_equal(mine, theirs))

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in self.to_pylist()[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"ColumnVector<{self.dtype.name}>[{preview}{suffix}]"


class _Gather:
    """A gather's form: the slots of rows ``ids`` (validity ``valid``) of
    an encoding held weakly, derived on the first call and kept;
    ``None`` when the encoding is gone by then.  A gather of a gather
    composes the ids, so it reads the same encoding."""

    __slots__ = ("source", "ids", "valid", "form")

    def __init__(self, source: weakref.ref, ids, valid: np.ndarray) -> None:
        ids = np.asarray(ids)
        if ids.dtype == bool:  # positions compose; a mask does not
            ids = np.flatnonzero(ids)
        self.source, self.ids, self.valid = source, ids, valid
        self.form: EncodedStrings | None = None

    def __call__(self) -> EncodedStrings | None:
        if self.form is None:
            strings = self.source()
            if strings is not None:
                self.form = strings.take(self.ids, self.valid)
        return self.form


def _resolve(source) -> EncodedStrings | None:
    """A column's form from its ``_strings``: the form, or what derives it."""
    return source if isinstance(source, EncodedStrings) else source()


def _infer_dtype(values: Sequence[Any]) -> DataType:
    """Infer a logical type from Python values (used by from_values)."""
    from repro.types.datatypes import BIGINT, BOOLEAN, DOUBLE, INTEGER, VARCHAR

    non_null = [v for v in values if v is not None]
    if not non_null:
        return INTEGER
    if all(isinstance(v, bool) for v in non_null):
        return BOOLEAN
    if all(isinstance(v, int) and not isinstance(v, bool) for v in non_null):
        limit = 2**31
        if all(-limit <= v < limit for v in non_null):
            return INTEGER
        return BIGINT
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in non_null):
        return DOUBLE
    if all(isinstance(v, str) for v in non_null):
        return VARCHAR
    raise TypeError_(f"cannot infer a column type from values {non_null[:5]!r}")
