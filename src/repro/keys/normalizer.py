"""Building whole normalized keys from tables and sort specs.

A normalized key concatenates, for each ORDER BY column in order:

* one NULL indicator byte, chosen so the requested NULLS FIRST/LAST
  placement falls out of plain byte comparison, then
* the order-preserving encoding of the value (see
  :mod:`repro.keys.encoding`), inverted byte-wise for DESC.

Optionally a big-endian row-id suffix (the "pointer packed within the
row" of the paper's ``OrderKey`` struct) makes any sort of the keys stable.

One encoder (:func:`_key_fields`) turns each segment into fields of
order codes, and two sinks lay them out.  :func:`key_words` packs them
into the key's uint64 *words* (word ``w`` of a row is bytes ``[8w, 8w +
8)`` of its key read big-endian, the last one zero-padded), so comparing
two rows' word lists is memcmp on their key bytes: the sort's form
(:func:`pack_fields` is that sink; a stale run's rebase feeds it too).
:func:`normalize_keys` writes them as bytes plus the row-id suffix, the
``(n, width)`` uint8 matrix the paper face (``systems/``) reads.  Memcmp
order is ``tuple_compare`` order unless a VARCHAR key exceeds its prefix
or ends in NUL: then ties are broken on the full strings
(``NormalizedKeys.prefix_exact`` says whether that is needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import KeyEncodingError
from repro.keys.encoding import fixed_column_codes
from repro.table.strings import TOP_BYTES, EncodedStrings, _words_at
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
    "KeyWords",
    "NormalizedKeys",
    "build_layout",
    "key_words",
    "normalize_keys",
    "pack_fields",
    "words_to_bytes",
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


def build_layout(
    table: Table,
    spec: SortSpec,
    string_prefix: int | None = None,
    include_row_id: bool = True,
) -> KeyLayout:
    """Compute the key layout for sorting ``table`` by ``spec``.

    ``string_prefix`` forces a fixed VARCHAR prefix length; by default the
    prefix is chosen per column from the data, as DuckDB does: the longest
    UTF-8 value (the codec's lengths), capped at 12 bytes.  The segment is
    exact unless a value is cut or ends in NUL (the zero pad ties it with
    the string its NULs extend).  The row-id suffix is 4 bytes wide, or 8
    when the row count needs it.
    """
    segments = []
    offset = 0
    for key in spec.keys:
        dtype = table.schema.column(key.column).dtype
        exact = True
        if dtype.type_id is TypeId.VARCHAR:
            strings = table.column(key.column).strings(key.column)
            longest = max(1, int(strings.lengths.max(initial=0)))
            width = string_prefix
            if width is None:
                width = min(longest, MAX_STRING_PREFIX)
            exact = longest <= width and not strings.nul_tail()
        else:
            assert dtype.fixed_width is not None
            width = dtype.fixed_width
        segments.append(KeySegment(key, dtype, offset, width, exact))
        offset += 1 + width
    suffix_width = 0
    if include_row_id:
        suffix_width = 4 if table.num_rows <= 0xFFFFFFFF else 8
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
    """A compressed (``nobyte``/``folded``) segment's stored values, made
    of the encoder's own ``codes`` (uint64 order codes,
    :func:`repro.keys.encoding.fixed_column_codes`) in place.  ``valid``
    is the validity mask, None for an all-valid column; a NULL row's code
    (its filler's) may wrap under the bias, then takes the NULL code.
    """
    if segment.bias:
        codes -= np.uint64(segment.bias)
    if segment.key.descending:
        np.subtract(np.uint64(segment.code_range - 1), codes, out=codes)
    if segment.mode == MODE_FOLDED:
        if segment.key.nulls_first:
            codes += np.uint64(1)
        if valid is not None:
            null = 0 if segment.key.nulls_first else segment.code_range
            codes[~valid] = null
    return codes


def _fixed_fields(segment: KeySegment, codes, valid: np.ndarray | None):
    """A fixed-width segment's ``(offset, width, values)`` fields, from its
    order codes, which it consumes: bias, DESC and the NULL byte or folded
    NULL code are arithmetic on them in place (``valid`` as in
    :func:`_compressed_codes`)."""
    offset, width = segment.offset, segment.value_width
    if not segment.has_null_byte:
        yield offset, width, _compressed_codes(segment, codes, valid)
        return
    # Plain: the NULL indicator byte, then the code, byte-inverted for
    # DESC; NULL rows get zero value bytes so all NULLs tie.
    indicator = np.uint64(segment.null_byte_for_valid)
    if segment.key.descending:
        np.subtract(np.uint64((1 << 8 * width) - 1), codes, out=codes)
    if valid is not None:
        null = np.uint64(segment.null_byte_for_null)
        indicator = np.where(valid, indicator, null)
        codes[~valid] = 0
    yield offset, 1, indicator
    yield offset + 1, width, codes


def _string_fields(
    segment: KeySegment, column, strings: EncodedStrings, rows=None
):
    """A VARCHAR segment's fields: the NULL (or escape class) indicator
    byte, then the window in fields of at most 8 bytes.  Each is one word
    read at the row's window start (byte 0 for a row the prefix classes
    escape), byteswapped, its bytes past the row's ``take`` masked off and
    shifted down to the field's width; DESC is an XOR, NULL rows are 0.
    ``rows`` (None: every row) picks the rows from the column's slots."""
    nulls, width = column.has_nulls, segment.value_width
    valid = column.validity if nulls else np.True_
    classes = strings.classes(segment.skipped)
    starts, lengths = strings.starts, strings.lengths
    if rows is not None:
        starts, lengths = starts[rows], lengths[rows]
        valid = valid[rows] if nulls else valid
        classes = None if classes is None else classes[rows]
    skip, null = len(segment.skipped), np.uint64(segment.null_byte_for_null)
    indicator = np.uint64(segment.null_byte_for_valid)
    if nulls:
        indicator = np.where(valid, indicator, null)
    escaped = None if classes is None else valid & (classes != 0)
    if escaped is not None and escaped.any():
        above = classes[escaped] > 0
        indicator = np.where(escaped, np.uint64(0), indicator)
        indicator[escaped] = segment.null_byte_for_escaped(above)
        skip = np.where(escaped, 0, skip)
    yield segment.offset, 1, indicator
    starts = starts + skip
    take = np.clip(lengths - skip, 0, width)
    words = _words_at(strings.buffer)
    # A start is at most len(buffer) + MAX_SKIPPED, and the pad covers a
    # 24-byte window past that: only a wider forced one needs the clamp.
    last = len(words) - 1 - len(strings.buffer) - len(segment.skipped)
    for at in range(0, width, 8):
        index = starts + at if at else starts
        if at > last:
            index = np.minimum(index, len(words) - 1)
        value = words[index]
        value.byteswap(inplace=True)
        # Indexed by ``take``: the field's bytes before the row's end.
        value &= TOP_BYTES[np.clip(np.arange(width + 1) - at, 0, 8)][take]
        field = min(8, width - at)
        shift = np.uint64(64 - 8 * field)
        if shift:
            value >>= shift
        if segment.key.descending:  # NULL rows stay zero
            value ^= valid * np.uint64((1 << 64) - 1 >> int(shift))
        yield segment.offset + 1 + at, field, value


def _key_fields(table: Table, segments, encoded: dict | None, rows=None):
    """The key encoder: ``segments`` of every row (or of ``rows``, read
    from the key columns' values and UTF-8 slots) as ``(offset, width,
    values)`` fields, in byte order.

    ``values`` is a big-endian field of at most 8 bytes held as uint64
    (an array, or one scalar for every row): a fixed-width segment is
    encoded in the code domain (bias, DESC and the folded NULL are
    arithmetic on its codes), a VARCHAR segment's window is read from its
    UTF-8 bytes as words (:func:`_string_fields`; ``encoded`` may hold the
    column's form).  :func:`key_words` packs the fields into words and
    :func:`normalize_keys` writes them as bytes: two sinks of one encoder.
    """
    for segment in segments:
        name = segment.key.column
        column = table.column(name)
        if segment.dtype.type_id is TypeId.VARCHAR:
            strings = encoded.get(name) if encoded else None
            if strings is None:
                strings = column.strings(name)
            yield from _string_fields(segment, column, strings, rows)
            continue
        data, valid = column.data, None
        if column.has_nulls:
            valid = column.validity if rows is None else column.validity[rows]
        if rows is not None:
            data = data[rows]
        codes = fixed_column_codes(data, segment.dtype)  # the encoder's own
        yield from _fixed_fields(segment, codes, valid)


def _write_field(matrix: np.ndarray, offset: int, width: int, values) -> None:
    """The byte sink: one field into its columns of the key matrix."""
    if width == 1:
        matrix[:, offset] = values
    else:
        big = values.astype(">u8").view(np.uint8).reshape(-1, 8)
        matrix[:, offset : offset + width] = big[:, 8 - width :]


_BLOCK_ROWS = 1 << 14  # rows OR-ed at a time: the only temporary


def _fold_field(words: list, offset: int, width: int, values) -> None:
    """The word sink: one field into the key words at byte ``offset``.

    A field of at most 8 bytes spans at most two words.  ``values`` (an
    array the encoder owns, or one scalar for every row) is consumed: the
    first field to reach a word *becomes* it, shifted in place (after its
    leading bytes went to the word before); later ones are OR-ed in.
    """
    word, last = divmod(offset + width - 1, 8)
    shift = 8 * (7 - last)  # bits after the field's last byte in its word
    if offset < 8 * word:
        _or_word(words, word - 1, values, shift - 64)
    _or_word(words, word, values, shift)


def _or_word(words: list, index: int, values, shift: int) -> None:
    """OR ``values`` shifted left by ``shift`` bits (right, if negative)
    into word ``index``: ``None`` until a field reaches it, a scalar
    while only scalars did, then the first array that did."""
    word, bits = words[index], np.uint64(abs(shift))
    move = np.left_shift if shift >= 0 else np.right_shift
    if isinstance(word, np.ndarray) and isinstance(values, np.ndarray):
        for start in range(0, len(word), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            word[rows] |= move(values[rows], bits)
        return
    in_place = isinstance(values, np.ndarray) and shift >= 0
    if bits or not in_place:
        values = move(values, bits, out=values if in_place else None)
    if isinstance(word, np.ndarray):
        word |= values
        return
    if word is not None:
        values |= word
    words[index] = values


class KeyWords:
    """The key of every row of a table as uint64 word columns, each packed
    on first read (:func:`key_words`): a sort whose first pass decides
    every row reads word 0 alone.

    The words one segment straddles are packed together, so no field is
    encoded twice.  :meth:`take` reads a word for some rows only: while it
    is unpacked and they are under a quarter of the table (a later pass
    over tied rows), those rows are packed straight from the key columns'
    values and UTF-8 slots.  :meth:`own` hands a word to a caller that
    consumes it.
    """

    def __init__(
        self, table: Table, layout: KeyLayout, encoded: dict | None = None
    ) -> None:
        self.table, self._rows = table, table.num_rows
        self._encoded = dict(encoded or {})
        for segment in layout.segments:  # a VARCHAR column's form, once
            name = segment.key.column
            if segment.dtype.is_variable_width and name not in self._encoded:
                self._encoded[name] = table.column(name).strings(name)
        self._words: list = [None] * ((layout.key_width + 7) // 8)
        # Per word, ``(first, last, segments)``: the words its group of
        # straddling segments spans, and those segments.
        groups: list = []
        for segment in layout.segments:
            first = segment.offset // 8
            last = (segment.offset + segment.total_width - 1) // 8
            members = (segment,)
            if groups and first <= groups[-1][1]:
                first, _, shared = groups.pop()
                members = (*shared, segment)
            groups.append((first, last, members))
        self._groups = [g for g in groups for _ in range(g[0], g[1] + 1)]

    def __len__(self) -> int:
        return len(self._words)

    def __iter__(self):
        return (self[word] for word in range(len(self._words)))

    def __getitem__(self, word):
        if isinstance(word, slice):
            return [self[w] for w in range(len(self._words))[word]]
        column = self._words[word]
        if column is None:
            first, last, segments = self._groups[word]
            # A group's first read packs all of it; a word read again
            # (after :meth:`own`) is packed alone, no field after it made.
            if any(w is not None for w in self._words[first : last + 1]):
                last = word
            packed = self._pack(first, last, segments, None)
            for index, fresh in enumerate(packed, first):
                if self._words[index] is None:
                    self._words[index] = fresh
            column = self._words[word]
        return column

    def take(self, word: int, rows: np.ndarray) -> np.ndarray:
        """Word ``word`` of the rows at ``rows``: a new array."""
        if self._words[word] is not None or 4 * len(rows) > self._rows:
            return self[word][rows]
        first, _, segments = self._groups[word]
        return self._pack(first, word, segments, rows)[-1]

    def own(self, word: int) -> np.ndarray:
        """Word ``word``, the caller's to consume: forgotten here, and
        packed anew if read again.  A word a VARCHAR window reaches is
        copied instead: packing it again is a gather from the heap for
        every row a sort leaves tied (every row of ``tpcds_customer``)."""
        column = self[word]
        if any(
            s.dtype.is_variable_width and s.offset < 8 * word + 8
            and s.offset + s.total_width > 8 * word
            for s in self._groups[word][2]
        ):
            return column.copy()
        self._words[word] = None
        return column

    def _pack(self, first: int, stop: int, segments, rows) -> list:
        count = self._rows if rows is None else len(rows)
        fields = _key_fields(self.table, segments, self._encoded, rows)
        return pack_fields(fields, count, 8 * stop + 8, first)


def key_words(
    table: Table, layout: KeyLayout, encoded: dict | None = None
) -> KeyWords:
    """The key of every row of ``table`` as uint64 word columns, each
    packed on first read (:class:`KeyWords`).

    Word ``w`` of row ``i`` is bytes ``[8w, 8w + 8)`` of row ``i``'s key
    (the ``layout.key_width`` bytes before any row id, the last word
    zero-padded) read big-endian; the columns come most significant
    first, so comparing rows' word lists is memcmp on their key bytes and
    each column sorts at native speed.  A fixed-width segment is encoded
    from its column's values and shifted to its bit offset as codes, in
    place, never written out as bytes.

    ``encoded`` maps VARCHAR key columns to what
    :meth:`~repro.keys.compression.KeyStatsAccumulator.update` made of
    them, their own :class:`~repro.table.strings.EncodedStrings` (the
    windows are read from that heap as words, and its prefix classes are
    kept with it); a VARCHAR column left out is read from its column all
    the same.
    """
    return KeyWords(table, layout, encoded)


def pack_fields(
    fields, rows: int, key_width: int, first: int = 0
) -> list[np.ndarray]:
    """The word sink: ``(offset, width, values)`` fields in byte order
    (:func:`_key_fields`', or a rebase's) folded into the uint64 word
    columns of the first ``key_width`` key bytes, from word ``first`` on
    (the fields reach none before it); bytes no field reaches are zero.
    The fields are read up to the first that starts past those bytes."""
    count = (key_width + 7) // 8
    words: list = [None] * (count + 1)  # and the tail of a straddling field
    for field in fields:
        if field[0] >= key_width:
            break
        _fold_field(words, *field)
    return [
        word if isinstance(word, np.ndarray)
        else np.full(rows, word or 0, dtype=np.uint64)
        for word in words[first:count]
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
    layout: KeyLayout | None = None,
    encoded: dict | None = None,
) -> NormalizedKeys:
    """Encode the sort-key columns of ``table`` into normalized keys.

    This is the paper's Figure 7 applied column-by-column, vectorized with
    numpy: each key column contributes a NULL byte and its value encoding
    (inverted for DESC), and an optional big-endian row-id suffix (the
    row's index in ``table``) follows.  The key bytes are
    :func:`key_words`'s fields, written as bytes.

    When ``layout`` is given it is used as-is -- this is how a compressed
    layout built from column statistics (:mod:`repro.keys.compression`)
    is applied; ``string_prefix`` is then ignored.
    Compressed segments must cover the table's values (``bias``/
    ``code_range`` from a stats pass that saw this table).  ``encoded``
    is :func:`key_words`'s.
    """
    if layout is None:
        layout = build_layout(table, spec, string_prefix, include_row_id)
    n = table.num_rows
    # Every key byte is written below; only the row ids remain.
    matrix = np.empty((n, layout.total_width), dtype=np.uint8)
    for field in _key_fields(table, layout.segments, encoded):
        _write_field(matrix, *field)
    prefix_exact = all(segment.prefix_exact for segment in layout.segments)
    if layout.has_row_id:
        unsigned = np.uint32 if layout.row_id_width == 4 else np.uint64
        ids = np.arange(n, dtype=unsigned)
        big_endian = ids.astype(np.dtype(unsigned).newbyteorder(">"))
        matrix[:, layout.key_width :] = (
            big_endian.view(np.uint8).reshape(n, layout.row_id_width)
        )
    return NormalizedKeys(layout, matrix, prefix_exact)
