"""Order-preserving encodings of whole key columns.

Key normalization (Blasgen et al. 1977, used since System R) turns a typed
value into bytes whose memcmp order equals the value order: the per-type
transforms of the paper's Figure 7, applied here to whole columns (the
one-value-at-a-time reference is :mod:`repro.scalar.encoder`).

Transforms, for ascending order:

* unsigned integers: big-endian byte order.
* signed integers: big-endian, then flip the sign bit, so negative values
  (leading 1 bit) sort before positive ones.
* IEEE-754 floats: reinterpret as unsigned; if the sign bit is set invert
  *all* bits, otherwise set the sign bit.  This yields the IEEE total order.
  We canonicalize -0.0 to +0.0 (SQL treats them equal) and every NaN to the
  positive quiet-NaN pattern so NaNs compare equal and sort after +inf.
* strings: UTF-8 bytes of a fixed-length prefix, padded with 0x00.  Prefix
  comparison is exact only when no string exceeds the prefix or ends in a
  NUL (which the pad hides); callers must tie-break on the full strings
  otherwise (the sort operator does).  A column's UTF-8 bytes are its own
  (:meth:`repro.table.column.ColumnVector.strings`).

Descending order inverts the encoded value bytes (0xFF - b).
"""

from __future__ import annotations

import numpy as np

from repro.errors import KeyEncodingError
from repro.types.datatypes import DataType

__all__ = [
    "fixed_column_codes",
    "gather_windows",
    "CHUNK_WIDTH",
    "F32_CANONICAL_NAN",
    "F64_CANONICAL_NAN",
]

F32_CANONICAL_NAN = np.uint32(0x7FC00000)
"""Quiet-NaN bit pattern all float32 NaNs are canonicalized to."""

F64_CANONICAL_NAN = np.uint64(0x7FF8000000000000)
"""Quiet-NaN bit pattern all float64 NaNs are canonicalized to."""

_WIDTH_TO_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}

#: String bytes read per row per step where strings are compared past their
#: key bytes (:mod:`repro.sort.stringsort`'s refinement rounds).  Wide enough
#: that a typical tie resolves in one round, narrow enough that rows
#: differing right after the prefix drag in no long tail.
CHUNK_WIDTH = 16


def fixed_column_codes(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """Order-preserving unsigned codes of a fixed-width column, as uint64:
    a new array (never ``values``), the caller's to consume.

    This is the type transform of the paper's Figure 7 *before* the
    big-endian byte serialization: codes whose integer order equals the
    value order.  It is the code domain of :mod:`repro.keys.compression`:
    min/max statistics, the bias subtraction and the width cut are
    unsigned arithmetic.
    """
    width = dtype.fixed_width
    if width is None:
        raise KeyEncodingError("VARCHAR has no fixed-width code")
    unsigned = _WIDTH_TO_UNSIGNED[width]
    if dtype.is_float:
        bits = np.ascontiguousarray(values).view(unsigned).copy()
        nan_pattern = F32_CANONICAL_NAN if width == 4 else F64_CANONICAL_NAN
        sign_bit = unsigned(1) << unsigned(8 * width - 1)
        bits[np.isnan(values)] = nan_pattern
        bits[values == 0.0] = 0  # -0.0 -> +0.0
        negative = (bits & sign_bit) != 0
        bits = np.where(negative, ~bits, bits | sign_bit)
    elif dtype.is_signed:
        sign_bit = unsigned(1) << unsigned(8 * width - 1)
        bits = np.ascontiguousarray(values).view(unsigned) ^ sign_bit
    else:
        bits = np.ascontiguousarray(values).astype(unsigned, copy=False)
    return bits.astype(np.uint64, copy=False)


def gather_windows(
    buffer: np.ndarray, starts: np.ndarray, take: np.ndarray, width: int
) -> np.ndarray:
    """Row ``i`` is ``buffer[starts[i]:][:take[i]]`` zero-padded to ``width``.

    One fixed-width window read per row instead of one fancy index per
    byte.  ``take`` is at most ``width``; where it is 0, ``starts`` may
    point anywhere (past the buffer's end for an exhausted string).
    Windows overrunning the buffer (its last few strings) are copied singly.
    """
    if len(buffer) < width:
        buffer = np.pad(buffer, (0, width - len(buffer)))
    last = len(buffer) - width
    windows = np.lib.stride_tricks.sliding_window_view(buffer, width)
    out = windows[np.minimum(starts, last)]
    for row in np.flatnonzero((starts > last) & (take > 0)).tolist():
        out[row, : take[row]] = buffer[starts[row] : starts[row] + take[row]]
    if len(take) and take.min() < width:
        out[np.arange(width) >= take[:, None]] = 0
    return out
