"""Decoding normalized key bytes back into values, one row at a time.

Decoding is the inverse of :mod:`repro.scalar.encoder` for fixed-width
types and recovers the stored *prefix* for VARCHAR (the full string is not
in the key).  It exists for verification and the paper's Figure 7 demo:
the pipeline decodes key words with
:func:`repro.keys.compression.decode_key_table`.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.errors import KeyEncodingError
from repro.keys.normalizer import MODE_FOLDED, KeyLayout, KeySegment
from repro.types.datatypes import TypeId

__all__ = ["decode_segment", "decode_key_row"]


def _decode_unsigned(raw: bytes) -> int:
    return int.from_bytes(raw, "big")


def _decode_signed(raw: bytes) -> int:
    bits = 8 * len(raw)
    return int.from_bytes(raw, "big") - (1 << (bits - 1))


def _decode_float(raw: bytes) -> float:
    width = len(raw)
    bits = int.from_bytes(raw, "big")
    if width == 4:
        sign_bit, all_ones, fmt_i, fmt_f = 0x80000000, 0xFFFFFFFF, ">I", ">f"
    elif width == 8:
        sign_bit = 0x8000000000000000
        all_ones = 0xFFFFFFFFFFFFFFFF
        fmt_i, fmt_f = ">Q", ">d"
    else:
        raise KeyEncodingError(f"floats are 4 or 8 bytes, not {width}")
    if bits & sign_bit:
        bits = bits & ~sign_bit  # was non-negative: clear the sign bit
    else:
        bits = bits ^ all_ones  # was negative: undo full inversion
    (value,) = struct.unpack(fmt_f, struct.pack(fmt_i, bits))
    return value


def _uncompress_segment(raw: bytes, segment: KeySegment) -> bytes | None:
    """Compressed segment bytes -> full-width ascending value bytes.

    Undoes the stored-code transform of a ``nobyte``/``folded`` segment
    (NULL fold, DESC-in-code-domain, bias) and re-serializes the code at
    the type's declared width, so the plain typed decoders below apply
    unchanged.  Returns ``None`` for the reserved NULL code.
    """
    stored = int.from_bytes(raw, "big")
    code_range = segment.code_range
    if segment.mode == MODE_FOLDED:
        if segment.key.nulls_first:
            if stored == 0:
                return None
            stored -= 1
        elif stored == code_range:
            return None
    if not 0 <= stored < code_range:
        raise KeyEncodingError(
            f"stored code {stored} outside range {code_range} of segment "
            f"{segment.key.column!r}"
        )
    if segment.key.descending:
        stored = (code_range - 1) - stored
    code = stored + segment.bias
    width = segment.dtype.fixed_width
    assert width is not None
    return code.to_bytes(width, "big")


def decode_segment(raw: bytes, segment: KeySegment) -> Any:
    """Decode one segment's bytes to a value.

    For ``plain`` segments ``raw`` is the NULL byte plus value bytes; for
    compressed segments it is the stored code bytes alone.  Returns
    ``None`` for NULL.  VARCHAR returns the stored window, padding
    stripped, after ``skipped`` unless the row is escaped (which equals
    the original string only if it fit).
    """
    if len(raw) != segment.total_width:
        raise KeyEncodingError(
            f"segment needs {segment.total_width} bytes, got {len(raw)}"
        )
    if not segment.has_null_byte:
        value_bytes = _uncompress_segment(raw, segment)
        if value_bytes is None:
            return None
        return _decode_fixed(value_bytes, segment)
    null_byte, value_bytes = raw[0], raw[1:]
    if null_byte == segment.null_byte_for_null:
        return None
    # 0 for a present value, +-1 for one escaped from a skipped prefix.
    step = null_byte - segment.null_byte_for_valid
    if step and not (segment.skipped and abs(step) == 1):
        raise KeyEncodingError(f"invalid NULL indicator byte {null_byte:#x}")
    if segment.key.descending:
        value_bytes = bytes(0xFF - b for b in value_bytes)
    if segment.dtype.type_id is TypeId.VARCHAR:
        value_bytes = value_bytes.rstrip(b"\x00")
        if not step:
            value_bytes = segment.skipped + value_bytes
        return value_bytes.decode("utf-8", errors="replace")
    return _decode_fixed(value_bytes, segment)


def _decode_fixed(value_bytes: bytes, segment: KeySegment) -> Any:
    """Decode full-width ascending value bytes of a fixed-width type."""
    dtype = segment.dtype
    if dtype.is_float:
        return _decode_float(value_bytes)
    if dtype.is_signed:
        return _decode_signed(value_bytes)
    value = _decode_unsigned(value_bytes)
    if dtype.type_id is TypeId.BOOLEAN:
        return bool(value)
    return value


def decode_key_row(
    raw: bytes | np.ndarray, layout: KeyLayout
) -> tuple[Any, ...]:
    """Decode one full normalized-key row into its tuple of values.

    The row-id suffix, if present, is ignored; use
    :meth:`~repro.keys.normalizer.NormalizedKeys.row_ids` for those.
    """
    if isinstance(raw, np.ndarray):
        raw = raw.tobytes()
    values = []
    for segment in layout.segments:
        chunk = raw[segment.offset : segment.offset + segment.total_width]
        values.append(decode_segment(chunk, segment))
    return tuple(values)
