"""Encoding values into normalized key bytes, one value at a time.

The paper's Figure 7 transforms, scalar: each encoder turns one Python
value into bytes whose memcmp order equals the value order (the
transforms are listed in :mod:`repro.keys.encoding`, which applies them
to whole columns), and :func:`normalized_key_for_row` assembles one
row's whole key under a :class:`~repro.keys.normalizer.KeyLayout`.  It
exists for verification and the paper's Figure 7 demo: the pipeline
packs key words with :func:`repro.keys.normalizer.key_words`, and
:mod:`repro.scalar.decoder` is the inverse of this module.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import KeyEncodingError
from repro.keys.encoding import (
    F32_CANONICAL_NAN,
    F64_CANONICAL_NAN,
    fixed_column_codes,
)
from repro.keys.normalizer import MODE_FOLDED, KeyLayout, KeySegment
from repro.types.datatypes import DataType, TypeId
from repro.types.sortspec import SortSpec

__all__ = [
    "encode_unsigned",
    "encode_signed",
    "encode_float",
    "encode_string",
    "encode_scalar",
    "invert_bytes",
    "normalized_key_for_row",
]


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


def normalized_key_for_row(
    row: tuple, spec: SortSpec, layout: KeyLayout
) -> bytes:
    """Scalar reference encoder: the normalized key of one Python tuple.

    ``row`` holds the key-column values in spec order (``None`` for NULL).
    Used by tests to cross-check the vectorized path, and by the paper's
    Figure 7 worked example.
    """
    out = bytearray()
    for value, segment in zip(row, layout.segments):
        if not segment.has_null_byte:
            out.extend(_compressed_scalar_bytes(value, segment))
            continue
        if value is None:
            out.append(segment.null_byte_for_null)
            out.extend(b"\x00" * segment.value_width)
            continue
        indicator = segment.null_byte_for_valid
        encoded = encode_scalar(value, segment.dtype, segment.value_width)
        if segment.skipped:
            raw = str(value).encode("utf-8")
            if raw.startswith(segment.skipped):
                tail = raw[len(segment.skipped) :][: segment.value_width]
                encoded = tail.ljust(segment.value_width, b"\x00")
            else:
                head = raw[: len(segment.skipped)]
                indicator = segment.null_byte_for_escaped(
                    head > segment.skipped
                )
        out.append(indicator)
        if segment.key.descending:
            encoded = invert_bytes(encoded)
        out.extend(encoded)
    return bytes(out)


def _compressed_scalar_bytes(value, segment: KeySegment) -> bytes:
    """Scalar mirror of :func:`repro.keys.normalizer._fixed_fields` for
    one compressed value."""
    code_range = segment.code_range
    if value is None:
        if segment.mode != MODE_FOLDED:
            raise KeyEncodingError(
                f"NULL in {segment.mode!r} segment {segment.key.column!r}"
            )
        stored = 0 if segment.key.nulls_first else code_range
    else:
        arr = np.array([value], dtype=segment.dtype.numpy_dtype)
        rel = int(fixed_column_codes(arr, segment.dtype)[0]) - segment.bias
        if not 0 <= rel < code_range:
            raise KeyEncodingError(
                f"value {value!r} outside compressed range of segment "
                f"{segment.key.column!r}"
            )
        if segment.key.descending:
            rel = (code_range - 1) - rel
        stored = rel + 1 if (
            segment.mode == MODE_FOLDED and segment.key.nulls_first
        ) else rel
    return stored.to_bytes(segment.value_width, "big")
