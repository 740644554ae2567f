"""Order-preserving binary encodings for single values and columns.

Key normalization (Blasgen et al. 1977, used since System R) turns a typed
value into bytes whose memcmp order equals the value order: the per-type
transforms, scalar (the paper's Figure 7) and vectorized over columns.

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

import struct

import numpy as np

from repro.errors import KeyEncodingError
from repro.types.datatypes import DataType, TypeId

__all__ = [
    "encode_unsigned",
    "encode_signed",
    "encode_float",
    "encode_string",
    "encode_scalar",
    "encode_fixed_column",
    "fixed_column_codes",
    "gather_windows",
    "CHUNK_WIDTH",
    "invert_bytes",
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


# ---------------------------------------------------------------------- #
# Scalar encoders (reference implementations; mirrors Figure 7)
# ---------------------------------------------------------------------- #


def encode_unsigned(value: int, width: int) -> bytes:
    """Big-endian encoding of an unsigned integer of ``width`` bytes."""
    if not 0 <= value < (1 << (8 * width)):
        raise KeyEncodingError(f"{value} out of range for unsigned {width}-byte")
    return value.to_bytes(width, "big")

def encode_signed(value: int, width: int) -> bytes:
    """Sign-flipped big-endian encoding of a signed integer.

    The most significant bit is XOR-ed so that the encoded bytes of negative
    numbers are lexicographically smaller than those of positive numbers --
    exactly the "flip the sign bit" step of the paper's Figure 7.
    """
    bits = 8 * width
    low, high = -(1 << (bits - 1)), 1 << (bits - 1)
    if not low <= value < high:
        raise KeyEncodingError(f"{value} out of range for signed {width}-byte")
    biased = value + high  # maps [low, high) onto [0, 2^bits)
    return biased.to_bytes(width, "big")


def encode_float(value: float, width: int) -> bytes:
    """IEEE-754 total-order encoding of a float (width 4 or 8)."""
    if width == 4:
        (bits,) = struct.unpack(">I", struct.pack(">f", value))
        sign_bit, all_ones, nan = 0x80000000, 0xFFFFFFFF, int(F32_CANONICAL_NAN)
    elif width == 8:
        (bits,) = struct.unpack(">Q", struct.pack(">d", value))
        sign_bit = 0x8000000000000000
        all_ones = 0xFFFFFFFFFFFFFFFF
        nan = int(F64_CANONICAL_NAN)
    else:
        raise KeyEncodingError(f"floats are 4 or 8 bytes, not {width}")
    if value != value:  # NaN: canonicalize so all NaNs encode identically
        bits = nan
    elif value == 0.0:  # canonicalize -0.0 to +0.0
        bits = 0
    if bits & sign_bit:
        bits = bits ^ all_ones  # negative: invert everything
    else:
        bits = bits | sign_bit  # non-negative: set sign bit
    return bits.to_bytes(width, "big")


def encode_string(value: str, prefix_len: int) -> bytes:
    """UTF-8 prefix of ``value``, zero-padded to ``prefix_len`` bytes."""
    if prefix_len <= 0:
        raise KeyEncodingError(f"prefix_len must be positive, got {prefix_len}")
    raw = value.encode("utf-8")[:prefix_len]
    return raw.ljust(prefix_len, b"\x00")


def encode_scalar(value, dtype: DataType, width: int) -> bytes:
    """Encode one non-NULL value of ``dtype`` into ``width`` bytes."""
    if dtype.type_id is TypeId.VARCHAR:
        return encode_string(str(value), width)
    if dtype.is_float:
        return encode_float(float(value), width)
    if dtype.is_signed:
        return encode_signed(int(value), width)
    return encode_unsigned(int(value), width)


def invert_bytes(encoded: bytes) -> bytes:
    """Invert every byte -- turns an ascending encoding into descending."""
    return (~np.frombuffer(encoded, dtype=np.uint8)).tobytes()


# ---------------------------------------------------------------------- #
# Vectorized (numpy) encoders
# ---------------------------------------------------------------------- #


def _order_bits(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """The order-preserving unsigned bit pattern of each value.

    This is the type transform of the paper's Figure 7 *before* the
    big-endian byte serialization: an unsigned array (of the type's
    natural width) whose integer order equals the value order.
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
    return bits


def fixed_column_codes(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """Order-preserving unsigned codes of a fixed-width column, as uint64:
    a new array (never ``values``), the caller's to consume.

    The code domain of :mod:`repro.keys.compression`: min/max statistics,
    the bias subtraction and the width cut are unsigned arithmetic.
    """
    return _order_bits(values, dtype).astype(np.uint64, copy=False)


def encode_fixed_column(values: np.ndarray, dtype: DataType) -> np.ndarray:
    """Encode a fixed-width column into an (n, width) uint8 matrix.

    The whole transform is vectorized: reinterpret, bias/flip, byteswap to
    big-endian, then view as bytes.  This is the "convert one vector at a
    time" step of the paper's pipeline.
    """
    width = dtype.fixed_width
    bits = _order_bits(values, dtype)
    big_endian = bits.astype(bits.dtype.newbyteorder(">"), copy=False)
    return np.ascontiguousarray(big_endian).view(np.uint8).reshape(len(values), width)


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
