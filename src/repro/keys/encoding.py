"""Order-preserving binary encodings for single values and columns.

Key normalization (Blasgen et al. 1977, used since System R) turns a typed
value into bytes whose lexicographic (memcmp) order equals the value order.
This module implements the per-type transforms, both scalar (for tests and
documentation -- see the paper's Figure 7) and vectorized over numpy arrays
(what the production sort operator uses).

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
  otherwise (the sort operator does).

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
    "encode_utf8_column",
    "decode_utf8_column",
    "EncodedStrings",
    "ends_in_nul",
    "gather_windows",
    "common_prefix",
    "prefix_classes",
    "CHUNK_WIDTH",
    "MAX_SKIPPED",
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

#: Most bytes a VARCHAR key segment skips (a one-byte count in the blob).
MAX_SKIPPED = 255

#: Zero bytes :func:`encode_utf8_column` appends to its bytes object: a
#: word reads at up to ``MAX_SKIPPED + 16`` bytes past the buffer's end
#: (a prefix compare, or a key window of up to 24 bytes after skipped ones).
_PAD = MAX_SKIPPED + 8 + 16

#: ``TOP_BYTES[k]``: a uint64 mask of its ``k`` most significant bytes.
TOP_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], np.uint64)


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
        raise KeyEncodingError("use encode_utf8_column for VARCHAR")
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
    """Order-preserving unsigned codes of a fixed-width column, as uint64.

    The code domain the key-compression layer works in
    (:mod:`repro.keys.compression`): integer comparison of the returned
    codes equals value order, so per-column min/max statistics, the
    bias-to-unsigned subtraction, and the width truncation all become
    plain unsigned arithmetic.
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


def encode_utf8_column(
    values, validity: np.ndarray | None = None, column: str = ""
) -> tuple[np.ndarray, np.ndarray]:
    """The engine's one UTF-8 column codec: ``(buffer, lengths)``.

    ``buffer`` is the uint8 view of the column's values joined and encoded
    in one pass (``str`` applied to non-string objects); the bytes object
    it views ends in :data:`_PAD` zero bytes past it, which
    :func:`_words_at` reads through.  ``lengths`` is the int64
    UTF-8 byte length of every value, back to back in row order.  Rows
    ``validity`` marks NULL contribute no bytes and length 0.  Lengths are
    character counts when the buffer is ASCII, else read off the UTF-8
    lead bytes (every byte but a ``10xxxxxx`` continuation starts a
    character): exact for embedded or trailing NULs and every plane.  A
    lone surrogate raises :class:`KeyEncodingError` naming ``column`` and
    the first such row.
    """
    values = np.asarray(values, dtype=object)
    # All valid: no index array, no fancy-index copy of the object array.
    all_valid = validity is None or validity.all()
    rows = slice(None) if all_valid else np.flatnonzero(validity)
    items = values[rows].tolist()
    try:
        chars = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
        items.append("\0" * _PAD)
        encoded = "".join(items).encode("utf-8")
    except TypeError:  # non-str objects in the column: encode their str()
        return encode_utf8_column(list(map(str, values)), validity, column)
    except UnicodeEncodeError as exc:
        row = np.searchsorted(np.cumsum(chars), exc.start, side="right")
        row = np.arange(len(values))[rows][row]
        raise KeyEncodingError(
            f"column {column!r} row {row}: not encodable as UTF-8 ({exc.reason})"
        ) from None
    buffer = np.frombuffer(encoded, np.uint8, count=len(encoded) - _PAD)
    if len(buffer) > chars.sum():
        char_starts = np.flatnonzero((buffer & 0xC0) != 0x80)
        ends = np.append(char_starts, len(buffer))[np.cumsum(chars)]
        chars = np.diff(ends, prepend=0)
    lengths = np.zeros(len(values), dtype=np.int64)
    lengths[rows] = chars
    return buffer, lengths


def decode_utf8_column(
    buffer, starts: np.ndarray, lengths: np.ndarray, validity: np.ndarray
) -> np.ndarray:
    """The inverse of :func:`encode_utf8_column`: value ``i`` of an object
    column is ``buffer[starts[i]:][:lengths[i]]`` decoded (``buffer`` any
    bytes-like object).

    The buffer span the rows reference is decoded once and sliced per
    row.  Byte offsets are character offsets when the span is ASCII;
    otherwise they map to character offsets through one cumsum over the
    span's UTF-8 lead bytes.  NULL and empty rows decode as ``""``.
    """
    data = np.empty(len(starts), dtype=object)
    live = validity & (lengths > 0)
    if not live.any():
        data.fill("")
        return data
    starts = starts.astype(np.int64)
    ends = starts + lengths
    lo = int(starts[live].min())
    span = buffer[lo : int(ends[live].max())]
    text = str(span, "utf-8")
    starts = np.where(live, starts - lo, 0)
    ends = np.where(live, ends - lo, 0)
    if len(text) != len(span):
        lead = (np.frombuffer(span, dtype=np.uint8) & 0xC0) != 0x80
        char_at = np.concatenate(([0], np.cumsum(lead)))
        starts, ends = char_at[starts], char_at[ends]
    data[:] = [text[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    return data


def ends_in_nul(buffer: np.ndarray, lengths: np.ndarray) -> bool:
    """Does a value of an :func:`encode_utf8_column` result end in NUL?

    Zero-padded prefix bytes tie such a value with the same string minus
    its trailing NULs, so a VARCHAR key segment holding one is inexact.
    """
    if np.count_nonzero(buffer) == len(buffer):
        return False  # no NUL byte at all
    ends = np.cumsum(lengths)[lengths > 0] - 1
    return not buffer[ends].all()


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


def _words_at(buffer: np.ndarray) -> np.ndarray:
    """The little-endian uint64 at every byte offset of ``buffer``, read
    on through :data:`_PAD` zero bytes past its end: a stride-1 view of
    the padded bytes object a codec buffer views, else of a padded copy."""
    padded = buffer.base
    if not isinstance(padded, bytes) or len(padded) != len(buffer) + _PAD:
        padded = buffer.tobytes() + bytes(_PAD)
    return np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))


def common_prefix(
    buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> bytes:
    """The bytes every value starts with, at most :data:`MAX_SKIPPED`.

    Value ``i`` is ``buffer[starts[i]:][:lengths[i]]`` (at least one
    value).  Compared one 8-byte word at a time against value 0,
    stopping at the first word in which some value differs.
    """
    limit = min(int(lengths.min()), MAX_SKIPPED)
    words = _words_at(buffer)
    shared = 0
    while shared < limit:
        word = words[starts + shared]
        differing = int(np.bitwise_or.reduce(word ^ word[0]))
        if differing:  # its lowest set bit lies in the first byte that differs
            shared += ((differing & -differing).bit_length() - 1) // 8
            break
        shared += 8
    shared = min(shared, limit)
    return buffer[starts[0] : starts[0] + shared].tobytes()


def prefix_classes(
    buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray, prefix: bytes
) -> np.ndarray:
    """Where each value sorts against the values starting with ``prefix``.

    int8 per value: 0 when it starts with ``prefix``, -1 when it sorts
    below every value that does (a value that ends inside ``prefix``
    having matched that far included), +1 when above.  Word compares
    find the values that start with it; the rest are read a big-endian
    word at a time up to their first mismatch.
    """
    words = _words_at(buffer)
    shares = lengths >= len(prefix)
    for at in range(0, len(prefix), 8):
        part = prefix[at : at + 8]
        word = words[starts + at]
        if len(part) < 8:
            word = word & np.uint64((1 << 8 * len(part)) - 1)
        shares &= word == np.uint64(int.from_bytes(part, "little"))
    classes = np.zeros(len(starts), dtype=np.int8)
    live = np.flatnonzero(~shares)
    for at in range(0, len(prefix), 8):
        if not len(live):
            break
        part = prefix[at : at + 8]
        want = np.uint64(int.from_bytes(part.ljust(8, b"\0"), "big"))
        take = np.clip(lengths[live] - at, 0, len(part))
        word = words[starts[live] + at]
        word.byteswap(inplace=True)  # big-endian: the first byte on top
        word &= TOP_BYTES[take]
        # The zero pad of a value that ends inside ``part`` may equal a
        # NUL of the prefix, so ending is a mismatch of its own.
        below = (word < want) | ((word == want) & (take < len(part)))
        split = below | (word > want)
        classes[live[split]] = np.where(below[split], -1, 1)
        live = live[~split]
    return classes


class EncodedStrings:
    """One run's VARCHAR key column, read into bytes once: the codec's
    ``buffer`` and ``lengths``, each value's ``starts`` in the buffer,
    and :meth:`classes` against the sort's skipped bytes (the statistics
    pass computes them; the key words and a rebase of the run read them).
    """

    __slots__ = ("buffer", "lengths", "starts", "skipped", "_classes")

    def __init__(self, buffer: np.ndarray, lengths: np.ndarray) -> None:
        self.buffer, self.lengths = buffer, lengths
        self.starts = np.cumsum(lengths) - lengths
        # The prefix ``_classes`` answers (None: not asked yet); the run
        # that chose it sets it with no classes: every value shares it.
        self.skipped, self._classes = None, None

    def classes(self, skipped: bytes) -> np.ndarray | None:
        """:func:`prefix_classes` against ``skipped``, computed at most
        once; ``None`` when every valid value starts with it."""
        if skipped != self.skipped:
            self.skipped, self._classes = skipped, None
            if skipped:
                self._classes = prefix_classes(
                    self.buffer, self.starts, self.lengths, skipped
                )
        return self._classes

    @classmethod
    def concat(cls, parts: list) -> "EncodedStrings":
        """The parts' values back to back, in one padded buffer."""
        if len(parts) == 1:
            return parts[0]
        joined = b"".join([*(part.buffer for part in parts), bytes(_PAD)])
        return cls(
            np.frombuffer(joined, dtype=np.uint8, count=len(joined) - _PAD),
            np.concatenate([part.lengths for part in parts]),
        )
