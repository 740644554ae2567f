"""Building whole normalized keys from tables and sort specs.

A normalized key concatenates, for each ORDER BY column in order:

* one NULL indicator byte, chosen so the requested NULLS FIRST/LAST
  placement falls out of plain byte comparison, then
* the order-preserving encoding of the value (see
  :mod:`repro.keys.encoding`), inverted byte-wise for DESC.

Optionally a big-endian row-id suffix is appended.  The suffix makes any
sort of the keys stable with respect to the input order and doubles as the
gather index used to re-order the payload afterwards -- the "pointer packed
within the row" of the paper's ``OrderKey`` struct.

One encoder (:func:`_key_fields`) turns each segment into fields of
order codes, and two sinks lay them out.  :func:`key_words` packs them
into the key's uint64 *words* (word ``w`` of a row is bytes ``[8w, 8w +
8)`` of its key read big-endian, the last one zero-padded), so comparing
two rows' word lists is memcmp on their key bytes: the sort keeps a
resident run's keys in that form.  :func:`normalize_keys` writes them as
bytes and appends the row-id suffix: a dense ``(n, width)`` uint8 matrix,
what Top-N, GROUP BY, window, merge join, the reference sort and spill
files read.  Comparing two rows of the matrix with memcmp is exactly
``tuple_compare`` on the original values, except when a VARCHAR key
exceeds its prefix or ends in NUL; then the key is "inexact" and ties
must be broken on the full strings (``NormalizedKeys.prefix_exact`` tells
the sort operator whether that pass is needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KeyEncodingError
from repro.keys.encoding import (
    encode_scalar,
    encode_string_column,
    encode_utf8_column,
    ends_in_nul,
    fixed_column_codes,
    gather_windows,
    invert_bytes,
    prefix_classes,
)
from repro.table.table import Table
from repro.types.datatypes import DataType, TypeId
from repro.types.sortspec import SortKey, SortSpec

__all__ = [
    "DEFAULT_STRING_PREFIX",
    "MAX_STRING_PREFIX",
    "MODE_PLAIN",
    "MODE_NOBYTE",
    "MODE_FOLDED",
    "KeySegment",
    "KeyLayout",
    "NormalizedKeys",
    "build_layout",
    "key_words",
    "normalize_keys",
    "normalized_key_for_row",
    "words_to_bytes",
    "write_compressed_segment",
]

DEFAULT_STRING_PREFIX = 12
"""Default VARCHAR prefix length; the paper's DuckDB uses at most 12 bytes."""

MAX_STRING_PREFIX = 12
"""Upper bound DuckDB places on the runtime-chosen string prefix."""

MODE_PLAIN = "plain"
"""Full-width segment with a leading NULL indicator byte (today's layout)."""

MODE_NOBYTE = "nobyte"
"""Compressed segment: biased codes at minimal width, no NULL byte (the
column has no NULLs in any run seen so far)."""

MODE_FOLDED = "folded"
"""Compressed segment: biased codes at minimal width with the NULL
indicator folded into the value -- the extreme code point is reserved for
NULL (0 under NULLS FIRST, ``code_range`` under NULLS LAST)."""


@dataclass(frozen=True)
class KeySegment:
    """Where one sort key lives inside the normalized key row.

    Attributes:
        key: the sort key (column, direction, null placement).
        dtype: the column's logical type.
        offset: byte offset of this segment within the key row (the NULL
            byte for ``plain`` segments, the first value byte otherwise).
        value_width: bytes used by the encoded value (excludes the NULL byte).
        prefix_exact: True unless this is a VARCHAR segment whose window
            truncates some value or whose zero pad hides a trailing NUL
            (memcmp on the segment then needs a full-string tie-break).
        mode: ``plain`` (NULL byte + full-width encoding), ``nobyte`` or
            ``folded`` (see the module constants).  VARCHAR segments are
            always ``plain``.
        bias: for compressed modes, the minimum order-preserving code over
            the column's valid values; stored codes are relative to it
            (0 for a ``nobyte`` segment at its type's full width).
        code_range: for compressed modes, ``max_code - bias + 1`` -- the
            number of distinct valid codes the segment can hold
            (``2**(8 * width)`` at full width).  DESC is
            applied in this domain (``rel -> code_range - 1 - rel``) rather
            than by byte inversion.
        skipped: VARCHAR under a statistics layout
            (:class:`~repro.keys.compression.KeyStatsAccumulator`): bytes
            the sort's first strings all start with.  A value ``s`` that
            starts with them keeps ``s[len(skipped):][:value_width]``, the
            bytes that distinguish rows; one that does not is *escaped*:
            its window starts at byte 0 and its indicator byte says on
            which side of the sharing values it sorts (five classes: NULL
            if NULLS FIRST < below ``skipped`` < shares it < above it <
            NULL if NULLS LAST; DESC swaps the two escaped ones).  Empty
            everywhere else: the two-class NULL byte.
    """

    key: SortKey
    dtype: DataType
    offset: int
    value_width: int
    prefix_exact: bool = True
    mode: str = MODE_PLAIN
    bias: int = 0
    code_range: int = 1
    skipped: bytes = b""

    @property
    def total_width(self) -> int:
        return self.value_width + (1 if self.mode == MODE_PLAIN else 0)

    @property
    def has_null_byte(self) -> bool:
        return self.mode == MODE_PLAIN

    @property
    def null_byte_for_null(self) -> int:
        """NULL indicator byte used for NULL values."""
        if self.key.nulls_first:
            return 0x00
        return 0x03 if self.skipped else 0x01

    @property
    def null_byte_for_valid(self) -> int:
        """Indicator byte of present values (that start with ``skipped``)."""
        return (0x01 if self.key.nulls_first else 0x00) + bool(self.skipped)

    def null_byte_for_escaped(self, above):
        """Indicator byte of values sorting ``above`` (else below) the
        ones that start with ``skipped``; elementwise over an array."""
        step = (above != self.key.descending) * 2 - 1
        return self.null_byte_for_valid + step


@dataclass(frozen=True)
class KeyLayout:
    """The full normalized-key row layout for a sort spec.

    Attributes:
        segments: one :class:`KeySegment` per sort key, in spec order.
        key_width: bytes covered by the key segments (before any row id).
        row_id_width: bytes of the trailing row-id suffix (0 if none).
    """

    segments: tuple[KeySegment, ...]
    key_width: int
    row_id_width: int

    @property
    def total_width(self) -> int:
        return self.key_width + self.row_id_width

    @property
    def has_row_id(self) -> bool:
        return self.row_id_width > 0


def _string_prefix_for(
    column, requested: int | None, name: str = ""
) -> tuple[int, bool]:
    """Choose a VARCHAR prefix length and report whether it is exact.

    DuckDB chooses the prefix at runtime from string-length statistics,
    capped at 12 bytes.  We do the same: use the maximum UTF-8 length if it
    is <= MAX_STRING_PREFIX (making prefix comparison exact), else the cap.
    The lengths are :func:`repro.keys.encoding.encode_utf8_column`'s -- the
    codec :func:`encode_string_column` places its prefixes with, so the
    prefix choice and the encoding agree by construction.  A value ending
    in NUL makes the segment inexact whatever the width: the zero pad ties
    it with the string its trailing NULs extend.
    """
    buffer, lengths = encode_utf8_column(column.data, column.validity, name)
    max_len = max(1, int(lengths.max(initial=0)))
    if requested is not None:
        width = requested
    else:
        width = min(max_len, MAX_STRING_PREFIX)
    return width, max_len <= width and not ends_in_nul(buffer, lengths)


def build_layout(
    table: Table,
    spec: SortSpec,
    string_prefix: int | None = None,
    include_row_id: bool = True,
    row_id_width: int | None = None,
) -> KeyLayout:
    """Compute the key layout for sorting ``table`` by ``spec``.

    ``string_prefix`` forces a fixed VARCHAR prefix length; by default the
    prefix is chosen per column from the data (capped at 12, like DuckDB).
    ``row_id_width`` (4 or 8) overrides the automatic row-id width, which
    the sort operator uses so every run shares one layout.
    """
    segments = []
    offset = 0
    for key in spec.keys:
        col_def = table.schema.column(key.column)
        dtype = col_def.dtype
        exact = True
        if dtype.type_id is TypeId.VARCHAR:
            # One vectorized scan chooses the width AND settles exactness;
            # normalize_keys reuses the stored flag instead of rescanning.
            width, exact = _string_prefix_for(
                table.column(key.column), string_prefix, key.column
            )
        else:
            assert dtype.fixed_width is not None
            width = dtype.fixed_width
        segments.append(KeySegment(key, dtype, offset, width, exact))
        offset += 1 + width
    n = table.num_rows
    suffix_width = 0
    if include_row_id:
        if row_id_width is not None:
            if row_id_width not in (4, 8):
                raise KeyEncodingError(
                    f"row_id_width must be 4 or 8, got {row_id_width}"
                )
            suffix_width = row_id_width
        else:
            suffix_width = 4 if n <= 0xFFFFFFFF else 8
    return KeyLayout(tuple(segments), offset, suffix_width)


class NormalizedKeys:
    """The normalized keys of a table: an ``(n, width)`` uint8 matrix.

    Attributes:
        layout: byte layout of each key row.
        matrix: the key bytes; ``matrix[i]`` is row ``i``'s key.
        prefix_exact: True when memcmp order on ``matrix`` equals the exact
            tuple order (no VARCHAR value was truncated by its prefix).
    """

    __slots__ = ("layout", "matrix", "prefix_exact")

    def __init__(
        self, layout: KeyLayout, matrix: np.ndarray, prefix_exact: bool
    ) -> None:
        if matrix.dtype != np.uint8 or matrix.ndim != 2:
            raise KeyEncodingError("key matrix must be 2-D uint8")
        if matrix.shape[1] != layout.total_width:
            raise KeyEncodingError(
                f"matrix width {matrix.shape[1]} != layout width "
                f"{layout.total_width}"
            )
        self.layout = layout
        self.matrix = matrix
        self.prefix_exact = prefix_exact

    def __len__(self) -> int:
        return len(self.matrix)

    @property
    def width(self) -> int:
        return self.layout.total_width

    def row_bytes(self, index: int) -> bytes:
        """Row ``index``'s key, including any row-id suffix."""
        return self.matrix[index].tobytes()

    def key_bytes(self, index: int) -> bytes:
        """Row ``index``'s key *without* the row-id suffix."""
        return self.matrix[index, : self.layout.key_width].tobytes()

    def row_ids(self) -> np.ndarray:
        """Decode the row-id suffix of every key (in current matrix order)."""
        layout = self.layout
        if not layout.has_row_id:
            raise KeyEncodingError("keys were built without a row id")
        suffix = self.matrix[:, layout.key_width :]
        unsigned = np.uint32 if layout.row_id_width == 4 else np.uint64
        big_endian = np.dtype(unsigned).newbyteorder(">")
        flat = np.ascontiguousarray(suffix).view(big_endian).reshape(-1)
        return flat.astype(np.int64)


def _compressed_codes(
    segment: KeySegment, codes: np.ndarray, valid: np.ndarray | None
) -> np.ndarray:
    """A compressed (``nobyte``/``folded``) segment's stored values.

    ``codes`` are the uint64 order-preserving codes of the column
    (:func:`repro.keys.encoding.fixed_column_codes`); ``valid`` is the
    validity mask or None for an all-valid column.  Rows where ``valid``
    is False may hold arbitrary codes (the column's NULL filler): their
    relative code may wrap during the bias subtraction, which is harmless
    because they take the NULL code.  ``codes`` is never written to (it
    may be returned as it is).
    """
    rel = codes - np.uint64(segment.bias) if segment.bias else codes
    if segment.key.descending:
        rel = np.uint64(segment.code_range - 1) - rel
    if segment.mode == MODE_FOLDED:
        if segment.key.nulls_first:
            rel = rel + np.uint64(1)
            null_code = np.uint64(0)
        else:
            null_code = np.uint64(segment.code_range)
        if valid is not None and not valid.all():
            rel = np.where(valid, rel, null_code)
    return rel


def write_compressed_segment(
    matrix: np.ndarray,
    segment: KeySegment,
    codes: np.ndarray,
    valid: np.ndarray | None,
) -> None:
    """Write a compressed (``nobyte``/``folded``) segment's bytes: the
    layout-rebase path of :mod:`repro.keys.compression` (spilled runs)."""
    values = _compressed_codes(segment, codes, valid)
    _write_field(matrix, segment.offset, segment.value_width, values)


def _string_windows(
    segment: KeySegment,
    buffer: np.ndarray,
    lengths: np.ndarray,
    valid: np.ndarray,
    indicator: np.ndarray,
) -> np.ndarray:
    """A VARCHAR segment's ascending value bytes, cut from the encoded
    column; escaped rows' class is written into ``indicator``."""
    starts = np.cumsum(lengths) - lengths
    if segment.skipped:
        classes = prefix_classes(buffer, starts, lengths, segment.skipped)
        escaped = valid & (classes != 0)
        skip = len(segment.skipped)
        if escaped.any():
            indicator[escaped] = segment.null_byte_for_escaped(
                classes[escaped] > 0
            )
            skip = np.where(escaped, 0, skip)
        starts, lengths = starts + skip, lengths - skip
    width = segment.value_width
    return gather_windows(buffer, starts, np.clip(lengths, 0, width), width)


def _string_bytes(segment: KeySegment, column, pair) -> np.ndarray:
    """A VARCHAR segment's ``(n, 1 + value_width)`` bytes: the NULL (or
    escape class) indicator byte, then the window."""
    valid, width = column.validity, segment.value_width
    block = np.empty((len(column), 1 + width), dtype=np.uint8)
    indicator = block[:, 0]
    indicator[:] = np.where(
        valid, segment.null_byte_for_valid, segment.null_byte_for_null
    )
    name = segment.key.column
    if pair is None and not segment.skipped:
        value = encode_string_column(column.data, width, valid, name)
    else:
        value = _string_windows(
            segment,
            *(pair or encode_utf8_column(column.data, valid, name)),
            valid,
            indicator,
        )
    if segment.key.descending:
        np.subtract(0xFF, value, out=value)
    if column.has_nulls:
        value[~valid] = 0  # all NULLs tie
    block[:, 1:] = value
    return block


def _key_fields(table: Table, layout: KeyLayout, encoded: dict | None):
    """The key encoder: every segment of every row as ``(offset, width,
    values)`` fields, in byte order.

    ``values`` is a big-endian field of at most 8 bytes held as uint64
    order codes (an array, or one scalar for every row) -- a fixed-width
    segment is encoded in the code domain: bias, DESC and the folded NULL
    are arithmetic on its codes -- or the ``(n, width)`` uint8 bytes of a
    VARCHAR segment.  :func:`key_words` packs the fields into words and
    :func:`normalize_keys` writes them as bytes: two sinks of one encoder.
    """
    for segment in layout.segments:
        name = segment.key.column
        column = table.column(name)
        given = encoded.get(name) if encoded else None
        offset, width = segment.offset, segment.value_width
        if segment.dtype.type_id is TypeId.VARCHAR:
            yield offset, 1 + width, _string_bytes(segment, column, given)
            continue
        codes = given
        if codes is None:
            codes = fixed_column_codes(column.data, segment.dtype)
        valid = column.validity if column.has_nulls else None
        if not segment.has_null_byte:
            yield offset, width, _compressed_codes(segment, codes, valid)
            continue
        # Plain: the NULL indicator byte, then the code, byte-inverted for
        # DESC; NULL rows get zero value bytes so all NULLs tie.
        indicator = np.uint64(segment.null_byte_for_valid)
        if segment.key.descending:
            codes = np.uint64((1 << 8 * width) - 1) - codes
        if valid is not None:
            null = np.uint64(segment.null_byte_for_null)
            indicator = np.where(valid, indicator, null)
            codes = np.where(valid, codes, np.uint64(0))
        yield offset, 1, indicator
        yield offset + 1, width, codes


def _write_field(matrix: np.ndarray, offset: int, width: int, values) -> None:
    """The byte sink: one field into its columns of the key matrix."""
    if np.ndim(values) == 2:
        matrix[:, offset : offset + width] = values
    elif width == 1:
        matrix[:, offset] = values
    else:
        big = values.astype(">u8").view(np.uint8).reshape(-1, 8)
        matrix[:, offset : offset + width] = big[:, 8 - width :]


def _fold_field(words: list, offset: int, width: int, values) -> None:
    """The word sink: one field into the key words at byte ``offset``.

    A field of at most 8 bytes spans at most two words; a VARCHAR block
    is laid into the zeroed bytes of the words it spans and read back as
    big-endian words.  The first field to reach a word *becomes* it:
    either a fresh shifted array or, for a field that fills the word
    exactly, ``values`` itself (nothing else reaches that word, so it is
    never written to); later fields are OR-ed in.
    """
    if np.ndim(values) == 2:
        first, lead = divmod(offset, 8)
        span = -(-(lead + width) // 8)
        padded = np.zeros((len(values), 8 * span), dtype=np.uint8)
        padded[:, lead : lead + width] = values
        for index, word in enumerate(padded.view(">u8").T, first):
            _or_word(words, index, word.astype(np.uint64))
        return
    word, last = divmod(offset + width - 1, 8)
    shift = 8 * (7 - last)  # bits after the field's last byte in its word
    if offset < 8 * word:  # the field's leading bytes end the word before
        _or_word(words, word - 1, values >> np.uint64(64 - shift))
    _or_word(words, word, values << np.uint64(shift) if shift else values)


def _or_word(words: list, index: int, part) -> None:
    word = words[index]
    if word is None:
        words[index] = part
    elif isinstance(word, np.ndarray):
        word |= part
    else:  # a scalar so far: every field before was one
        words[index] = word | part


def key_words(
    table: Table, layout: KeyLayout, encoded: dict | None = None
) -> list[np.ndarray]:
    """The key of every row of ``table`` as uint64 word columns.

    Word ``w`` of row ``i`` is bytes ``[8w, 8w + 8)`` of row ``i``'s key
    (the ``layout.key_width`` bytes before any row id, the last word
    zero-padded) read big-endian; the columns come most significant
    first, so comparing rows' word lists is memcmp on their key bytes and
    each column sorts at native speed.  A fixed-width segment is shifted
    to its bit offset as codes, never written out as bytes; a column
    whose codes fill a word exactly is that word, uncopied.

    ``encoded`` maps key columns to what
    :meth:`~repro.keys.compression.KeyStatsAccumulator.update` made of
    them: a VARCHAR column's UTF-8 ``(buffer, lengths)`` (its windows are
    cut from that buffer, not a second encoding), a fixed-width column's
    uint64 order codes (not computed twice).  The words are read only.
    """
    words: list = [None] * ((layout.key_width + 7) // 8)
    for field in _key_fields(table, layout, encoded):
        _fold_field(words, *field)
    return [
        word if isinstance(word, np.ndarray)
        else np.full(table.num_rows, word, dtype=np.uint64)
        for word in words
    ]


def words_to_bytes(words, width: int) -> np.ndarray:
    """Key word columns back to ``(n, width)`` big-endian key bytes."""
    big = np.empty((len(words[0]), len(words)), dtype=">u8")
    for index, word in enumerate(words):
        big[:, index] = word
    return big.view(np.uint8)[:, :width]


def normalize_keys(
    table: Table,
    spec: SortSpec,
    string_prefix: int | None = None,
    include_row_id: bool = True,
    row_id_base: int = 0,
    row_id_width: int | None = None,
    layout: KeyLayout | None = None,
    encoded: dict | None = None,
) -> NormalizedKeys:
    """Encode the sort-key columns of ``table`` into normalized keys.

    This is the paper's Figure 7 applied column-by-column, vectorized with
    numpy: each key column contributes a NULL byte and its value encoding
    (inverted for DESC), and an optional big-endian row-id suffix follows.
    The key bytes are :func:`key_words`'s fields, written as bytes.
    ``row_id_base`` offsets the generated row ids (the sort operator gives
    each run a distinct base so ids are globally unique and stable).

    When ``layout`` is given it is used as-is -- this is how a compressed
    layout built from column statistics (:mod:`repro.keys.compression`)
    is applied; ``string_prefix``/``row_id_width`` are then ignored.
    Compressed segments must cover the table's values (``bias``/
    ``code_range`` from a stats pass that saw this table).  ``encoded``
    is :func:`key_words`'s.
    """
    if layout is None:
        layout = build_layout(
            table, spec, string_prefix, include_row_id, row_id_width
        )
    n = table.num_rows
    # Every key byte is written below; only the row ids remain.
    matrix = np.empty((n, layout.total_width), dtype=np.uint8)
    for field in _key_fields(table, layout, encoded):
        _write_field(matrix, *field)
    prefix_exact = all(segment.prefix_exact for segment in layout.segments)
    if layout.has_row_id:
        unsigned = np.uint32 if layout.row_id_width == 4 else np.uint64
        limit = 1 << (8 * layout.row_id_width)
        if row_id_base + n > limit:
            raise KeyEncodingError(
                f"row ids {row_id_base}..{row_id_base + n} overflow "
                f"{layout.row_id_width}-byte suffix"
            )
        ids = np.arange(row_id_base, row_id_base + n, dtype=unsigned)
        big_endian = ids.astype(np.dtype(unsigned).newbyteorder(">"))
        matrix[:, layout.key_width :] = (
            big_endian.view(np.uint8).reshape(n, layout.row_id_width)
        )
    return NormalizedKeys(layout, matrix, prefix_exact)


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
    """Scalar mirror of :func:`write_compressed_segment` for one value."""
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
