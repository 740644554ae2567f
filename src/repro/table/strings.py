"""A VARCHAR column's UTF-8 form: one heap and a (start, length) slot per row.

:class:`~repro.table.column.ColumnVector` holds its values as ``str``
objects and makes this form of them once, on first request
(:meth:`~repro.table.column.ColumnVector.strings`); a gather or slice of
an encoded column gathers or slices the slots over the same heap, so no
byte is encoded or copied twice.  What sorts read here -- key windows,
prefix classes, tied rows' string bytes, a spill run's payload -- is
read from the slots: :data:`TOP_BYTES` and :func:`_words_at` read a heap
a word at a time, through the zero pad the codec leaves after it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnencodableString

__all__ = [
    "EncodedStrings",
    "MAX_SKIPPED",
    "TOP_BYTES",
    "all_valid",
    "common_prefix",
    "decode_utf8_column",
    "encode_utf8_column",
    "ends_in_nul",
    "prefix_classes",
]

#: Most bytes a VARCHAR key segment skips (a one-byte count in the blob).
MAX_SKIPPED = 255

#: Zero bytes :func:`encode_utf8_column` appends to its bytes object: a
#: word reads at up to ``MAX_SKIPPED + 16`` bytes past the buffer's end
#: (a prefix compare, or a key window of up to 24 bytes after skipped ones).
_PAD = MAX_SKIPPED + 8 + 16

#: ``TOP_BYTES[k]``: a uint64 mask of its ``k`` most significant bytes.
TOP_BYTES = np.array([2**64 - 2 ** (64 - 8 * k) for k in range(9)], np.uint64)


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
    lone surrogate raises :class:`UnencodableString` (a
    :class:`KeyEncodingError`) naming ``column`` and the first such row.
    """
    values = np.asarray(values, dtype=object)
    # All valid: no index array, no fancy-index copy of the object array.
    rows = slice(None) if all_valid(validity) else np.flatnonzero(validity)
    items = values[rows].tolist()
    try:
        chars = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
        items.append("\0" * _PAD)
        encoded = "".join(items).encode("utf-8")
    except TypeError:  # non-str objects in the column: encode their str()
        return encode_utf8_column(list(map(str, values)), validity, column)
    except UnicodeEncodeError as exc:
        row = np.searchsorted(np.cumsum(chars), exc.start, side="right")
        row = int(np.arange(len(values))[rows][row])
        raise UnencodableString(column, row, exc.reason) from None
    buffer = np.frombuffer(encoded, np.uint8, count=len(encoded) - _PAD)
    if len(buffer) > chars.sum():
        char_starts = np.flatnonzero((buffer & 0xC0) != 0x80)
        ends = np.append(char_starts, len(buffer))[np.cumsum(chars)]
        chars = np.diff(ends, prepend=0)
    lengths = np.zeros(len(values), dtype=np.int64)
    lengths[rows] = chars
    return buffer, lengths


def all_valid(validity: np.ndarray | None) -> bool:
    """Is every row valid?  The zero-stride mask of a column without
    NULLs answers from its first element, with no scan."""
    if validity is None:
        return True
    if validity.strides == (0,):
        return bool(validity[:1].all())
    return bool(validity.all())


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


def ends_in_nul(
    buffer: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> bool:
    """Does a value ``buffer[starts[i]:][:lengths[i]]`` end in NUL?

    Zero-padded prefix bytes tie such a value with the same string minus
    its trailing NULs, so a VARCHAR key segment holding one is inexact.
    """
    if np.count_nonzero(buffer) == len(buffer):
        return False  # no NUL byte at all
    live = lengths > 0
    return not buffer[(starts + lengths - 1)[live]].all()


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
    """A VARCHAR column's values as UTF-8: value ``i`` is
    ``buffer[starts[i]:][:lengths[i]]``; ``valid`` is the column's
    validity, and a NULL row has length 0.

    ``buffer`` is a heap the slots point into: the codec's (its bytes
    object ends in the zero pad :func:`_words_at` reads through), shared
    by every gather and slice of the column, or a spill payload's bytes.
    It may hold bytes no slot points to; a writer of heap bytes writes
    :meth:`packed`.  What depends on the values alone is computed at most
    once and kept: :meth:`prefix`, :meth:`nul_tail` and :meth:`classes`.
    Each is made in locals and published in one assignment, so threads
    sharing the column read it as they please.
    """

    __slots__ = (
        "buffer", "starts", "lengths", "valid", "_prefix", "_nul_tail",
        "_classes", "__weakref__",
    )

    def __init__(
        self,
        buffer: np.ndarray,
        lengths: np.ndarray,
        valid: np.ndarray,
        starts: np.ndarray | None = None,
    ) -> None:
        """``starts`` defaults to the values back to back from byte 0."""
        self.buffer, self.lengths, self.valid = buffer, lengths, valid
        self.starts = np.cumsum(lengths) - lengths if starts is None else starts
        self._prefix: bytes | None = None
        self._nul_tail: bool | None = None
        #: Prefix classes by the skipped bytes they answer.
        self._classes: dict[bytes, np.ndarray] = {}

    @classmethod
    def encode(
        cls, values, valid: np.ndarray, column: str = ""
    ) -> "EncodedStrings":
        """The codec's form of ``values``."""
        buffer, lengths = encode_utf8_column(values, valid, column)
        return cls(buffer, lengths, valid)

    def prefix(self) -> bytes:
        """The bytes every valid value starts with (:func:`common_prefix`;
        at least one value is valid)."""
        if self._prefix is None:
            valid = slice(None) if all_valid(self.valid) else self.valid
            self._prefix = common_prefix(
                self.buffer, self.starts[valid], self.lengths[valid]
            )
        return self._prefix

    def lead_word(self) -> np.ndarray:
        """Per row, the 8 bytes after :meth:`prefix` as a big-endian uint64,
        zero past the value's end: it never falls as the value rises.  A
        NULL row's is zero, and so is every row's when none is valid."""
        if not all_valid(self.valid) and not self.valid.any():
            return np.zeros(len(self.lengths), dtype=np.uint64)
        skip = len(self.prefix())
        word = _words_at(self.buffer)[self.starts + skip]
        word.byteswap(inplace=True)
        word &= TOP_BYTES[np.clip(self.lengths - skip, 0, 8)]
        return word

    def nul_tail(self) -> bool:
        """Does a value end in NUL (:func:`ends_in_nul`)?"""
        if self._nul_tail is None:
            self._nul_tail = ends_in_nul(self.buffer, self.starts, self.lengths)
        return self._nul_tail

    def classes(self, skipped: bytes) -> np.ndarray | None:
        """:func:`prefix_classes` against ``skipped``, computed at most
        once per ``skipped``; ``None`` when every valid value starts with
        it (nothing is skipped, or :meth:`prefix`, once known, starts
        with it)."""
        known = self._prefix
        if not skipped or (known is not None and known.startswith(skipped)):
            return None
        classes = self._classes.get(skipped)
        if classes is None:
            classes = prefix_classes(
                self.buffer, self.starts, self.lengths, skipped
            )
            self._classes[skipped] = classes
        return classes

    def take(self, ids: np.ndarray, valid: np.ndarray) -> "EncodedStrings":
        """Rows ``ids`` (their ``valid``): gathered slots, the same heap."""
        return self._part(self.lengths[ids], valid, self.starts[ids])

    def slice(self, start: int, stop: int) -> "EncodedStrings":
        """Rows ``[start, stop)``: views of the slots, the same heap."""
        rows = slice(start, stop)
        return self._part(self.lengths[rows], self.valid[rows], self.starts[rows])

    def _part(self, lengths, valid, starts) -> "EncodedStrings":
        """Some of the rows over the same heap; none ends in NUL when no
        value does."""
        part = EncodedStrings(self.buffer, lengths, valid, starts)
        if self._nul_tail is False:
            part._nul_tail = False
        return part

    def packed(self) -> np.ndarray:
        """The values' bytes back to back in row order: a view of the
        heap where the slots already lie so, else one gather."""
        lengths, starts = self.lengths, self.starts
        offsets = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        live = lengths > 0
        if not live.any():
            return self.buffer[:0]
        shift = starts[live] - offsets[live]
        if (shift == shift[0]).all():
            return self.buffer[int(shift[0]) :][:total]
        return self.buffer[np.repeat(starts - offsets, lengths) + np.arange(total)]

    @classmethod
    def concat(cls, parts: list) -> "EncodedStrings":
        """The parts' values in order: their slots over the one heap they
        share, else every part's own bytes joined into a new padded heap."""
        if len(parts) == 1:
            return parts[0]
        lengths = np.concatenate([part.lengths for part in parts])
        valid = np.concatenate([part.valid for part in parts])
        heap = parts[0].buffer
        if all(part.buffer is heap for part in parts):
            starts = np.concatenate([part.starts for part in parts])
            return cls(heap, lengths, valid, starts)
        joined = b"".join([*(part.packed() for part in parts), bytes(_PAD)])
        buffer = np.frombuffer(joined, np.uint8, count=len(joined) - _PAD)
        return cls(buffer, lengths, valid)
