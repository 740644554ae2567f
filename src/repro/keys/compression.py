"""Runtime key compression: minimal-width order-preserving segments.

The paper (Section V) shrinks normalized keys from runtime statistics:
DuckDB scans each key column's min/max before sorting and encodes the
column at the narrowest byte width that distinguishes its values, biasing
to unsigned so e.g. an int64 column in ``[0, 200)`` costs a single byte.
When the narrow domain has headroom the NULL indicator byte is folded into
the value itself by reserving the extreme code point for NULL -- under
NULLS FIRST code ``0`` means NULL and valid codes shift up by one, under
NULLS LAST the code one past the valid maximum means NULL.

This module supplies the pieces the sort pipeline wires together:

* :class:`KeyStatsAccumulator` -- a monotone per-column stats pass
  (min/max code, NULL presence; VARCHAR: the bytes the first run's
  values all start with, fixed from then on, the longest tail after
  them and whether a value ends in NUL) that can be fed run by run: a
  later layout only ever *widens* an earlier one (``nobyte`` ->
  ``folded`` -> ``plain``, widths non-decreasing), so re-basing is
  cheap.  A NULL-free segment at its type's full width takes no bias,
  so a run that moves min or max leaves the layout, and earlier runs,
  alone.
* :func:`rebase_words` -- rewrite key words encoded under an earlier
  (narrower) layout into a later (wider) one, identical to encoding the
  original values directly under the wider layout (:func:`rebase_matrix`
  does the same to key bytes).
* :func:`key_carried_eligible` / :func:`decode_key_table` -- when every
  output column is a key column of a losslessly-decodable type, runs
  spill *keys only* and the decode reads each segment's codes straight
  from the key words (:func:`segment_codes`: a shift and a mask).

Compressed segments apply DESC in the code domain (``rel -> range-1-rel``)
instead of byte inversion, so one rule covers NULL folding and direction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import KeyEncodingError
from repro.keys.encoding import _WIDTH_TO_UNSIGNED, fixed_column_codes
from repro.keys.normalizer import (
    MAX_STRING_PREFIX,
    MODE_FOLDED,
    MODE_NOBYTE,
    MODE_PLAIN,
    KeyLayout,
    KeySegment,
    _BLOCK_ROWS,
    _fixed_fields,
    pack_fields,
    words_to_bytes,
)
from repro.table.column import ColumnVector
from repro.table.strings import EncodedStrings
from repro.table.table import Table
from repro.types.datatypes import DataType, TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortKey, SortSpec

__all__ = [
    "KeyStatsAccumulator",
    "rebase_matrix",
    "rebase_words",
    "segment_codes",
    "key_carried_eligible",
    "decode_key_table",
    "plain_key_width",
]


# ---------------------------------------------------------------------- #
# Statistics pass and layout construction
# ---------------------------------------------------------------------- #


class _ColumnAcc:
    """Running statistics of one key column, in the order-code domain."""

    __slots__ = (
        "min_code", "max_code", "has_nulls", "max_len", "nul_tail", "skipped"
    )

    def __init__(self, skip: bool = True) -> None:
        self.min_code: int | None = None
        self.max_code: int | None = None
        self.has_nulls = False
        self.max_len = 0  # longest VARCHAR window source, in bytes
        self.nul_tail = False  # some VARCHAR value ends in a NUL byte
        #: Bytes a VARCHAR segment skips: undecided (``None``) until a
        #: run holds a valid value, fixed from then on.
        self.skipped: bytes | None = None if skip else b""

    def fold_strings(self, strings: EncodedStrings) -> None:
        """Fold in one run's VARCHAR column: the first run with a valid
        value fixes the skipped bytes as the prefix its values share."""
        lengths = strings.lengths
        self.nul_tail = self.nul_tail or strings.nul_tail()
        if self.skipped is None and strings.valid.any():
            self.skipped = strings.prefix()
        if self.skipped:
            classes = strings.classes(self.skipped)
            shares = True if classes is None else classes == 0
            lengths = lengths - len(self.skipped) * shares  # NULLs: < 0
        self.max_len = max(self.max_len, int(lengths.max(initial=0)))


def _bytes_for(max_code: int) -> int:
    """Minimal byte width that can store ``max_code`` (at least 1)."""
    return max(1, (int(max_code).bit_length() + 7) // 8)


def _segment_for(
    key: SortKey,
    dtype: DataType,
    offset: int,
    acc: _ColumnAcc,
    string_prefix: int | None,
) -> KeySegment:
    """The narrowest segment the statistics seen so far permit."""
    if dtype.type_id is TypeId.VARCHAR:
        # Strings keep the indicator byte + a window after the skipped
        # bytes: the forced width, else the length scan is the
        # compression (longest tail, capped at 12).  The zero pad hides
        # a trailing NUL, so one makes byte order inexact even where
        # every value fits.
        width = string_prefix
        if width is None:
            width = min(max(1, acc.max_len), MAX_STRING_PREFIX)
        exact = acc.max_len <= width and not acc.nul_tail
        return KeySegment(
            key, dtype, offset, width, exact, skipped=acc.skipped or b""
        )
    lo = 0 if acc.min_code is None else acc.min_code
    hi = 0 if acc.max_code is None else acc.max_code
    code_range = hi - lo + 1
    if not acc.has_nulls:
        width = _bytes_for(code_range - 1)
        if width == dtype.fixed_width:
            # The type's full width anyway: a bias would save no byte,
            # and without one a later run that widens min or max leaves
            # the layout as it is (no stale run, nothing to rebase).
            lo, code_range = 0, 1 << (8 * width)
        return KeySegment(
            key, dtype, offset, width, True, MODE_NOBYTE, lo, code_range
        )
    if code_range < (1 << 64):  # headroom for the reserved NULL code
        return KeySegment(
            key, dtype, offset, _bytes_for(code_range), True,
            MODE_FOLDED, lo, code_range,
        )
    # Full-range column *with* NULLs: no spare code point exists, fall
    # back to the plain NULL byte + full-width encoding.
    assert dtype.fixed_width is not None
    return KeySegment(key, dtype, offset, dtype.fixed_width, True)


def _extrema(data: np.ndarray, valid: np.ndarray | None):
    """``[least, greatest]`` of ``data`` where ``valid`` (None: every row)
    in the order of their codes, or None when no value is valid.  A NaN
    is the greatest and the least only when every value is one (``fmin``
    skips it); -0.0 and 0.0 share a code.  A mask is read a block at a
    time: no temporary as long as the column."""
    least = np.fmin if data.dtype.kind == "f" else np.minimum
    if valid is not None:
        blocks = (
            data[start : start + _BLOCK_ROWS][valid[start : start + _BLOCK_ROWS]]
            for start in range(0, len(data), _BLOCK_ROWS)
        )
        reduce = (least.reduce, np.maximum.reduce)
        data = np.array(
            [f(block) for block in blocks if len(block) for f in reduce],
            data.dtype,
        )
    if not len(data):
        return None
    return np.array([least.reduce(data), np.maximum.reduce(data)], data.dtype)


class KeyStatsAccumulator:
    """Monotone per-column statistics over the tables fed to a sort.

    Feed every input chunk through :meth:`update`, then
    :meth:`build_layout` yields the narrowest :class:`KeyLayout` covering
    all data seen so far.  Layouts built after more updates only ever
    widen earlier ones (see the module docstring), so runs encoded early
    can be re-based with :func:`rebase_words` instead of re-encoded.
    ``string_prefix`` forces every VARCHAR segment's width instead of
    choosing it from the lengths seen, and nothing is skipped.
    """

    def __init__(
        self, schema: Schema, spec: SortSpec, string_prefix: int | None = None
    ) -> None:
        self.schema = schema
        self.spec = spec
        self.string_prefix = string_prefix
        self._columns: dict[str, _ColumnAcc] = {}
        for key in spec.keys:
            self._columns.setdefault(
                key.column, _ColumnAcc(skip=string_prefix is None)
            )

    def update(self, table: Table) -> dict:
        """Fold one table's key columns into the running statistics.

        A fixed-width column's extrema are read from its values (NULL
        rows skipped) and only they are encoded: the pass holds no array
        as long as the column.  Returns each VARCHAR key column's own
        :class:`~repro.table.strings.EncodedStrings` (made by the
        column's first request in its life; the key windows are read from
        its heap as words, its prefix classes against the sort's skipped
        bytes are kept with it), for
        :func:`~repro.keys.normalizer.key_words` to read.
        """
        encoded = {}
        for name, acc in self._columns.items():
            column = table.column(name)
            dtype = self.schema.column(name).dtype
            has_nulls = column.has_nulls
            acc.has_nulls = acc.has_nulls or has_nulls
            if dtype.type_id is TypeId.VARCHAR:
                encoded[name] = column.strings(name)
                acc.fold_strings(encoded[name])
                continue
            valid = column.validity if has_nulls else None
            extrema = _extrema(column.data, valid)
            if extrema is None:
                continue
            lo, hi = fixed_column_codes(extrema, dtype).tolist()
            acc.min_code = lo if acc.min_code is None else min(acc.min_code, lo)
            acc.max_code = hi if acc.max_code is None else max(acc.max_code, hi)
        return encoded

    def build_layout(
        self, include_row_id: bool = True, row_id_width: int = 8
    ) -> KeyLayout:
        """The compressed layout covering everything seen so far."""
        segments = []
        offset = 0
        for key in self.spec.keys:
            dtype = self.schema.column(key.column).dtype
            acc = self._columns[key.column]
            segment = _segment_for(key, dtype, offset, acc, self.string_prefix)
            segments.append(segment)
            offset += segment.total_width
        suffix = 0
        if include_row_id:
            if row_id_width not in (4, 8):
                raise KeyEncodingError(
                    f"row_id_width must be 4 or 8, got {row_id_width}"
                )
            suffix = row_id_width
        return KeyLayout(tuple(segments), offset, suffix)


def plain_key_width(layout: KeyLayout) -> int:
    """Key bytes per row the same spec costs without compression (a
    VARCHAR window as long, but starting at byte 0: skipped bytes count)."""
    total = 0
    for segment in layout.segments:
        if segment.dtype.fixed_width is None:
            total += 1 + len(segment.skipped) + segment.value_width
        else:
            total += 1 + segment.dtype.fixed_width
    return total


# ---------------------------------------------------------------------- #
# Decoding key words back to order codes, and re-basing
# ---------------------------------------------------------------------- #


def _field(words, offset: int, width: int) -> np.ndarray:
    """Key bytes ``[offset, offset + width)`` of every row as a uint64,
    read from the word columns (``width <= 8``: at most two words).

    The inverse of ``normalizer._fold_field``: a shift and a mask, or two
    shifts OR-ed together.  A field that fills its word is that word.
    """
    word, last = divmod(offset + width - 1, 8)
    shift = 8 * (7 - last)  # bits after the field's last byte in its word
    value = words[word] >> np.uint64(shift) if shift else words[word]
    if offset < 8 * word:  # leading bytes end the word before; shift > 0
        value |= words[word - 1] << np.uint64(64 - shift)
    if width < 8:
        value = value & np.uint64((1 << 8 * width) - 1)
    return value


def segment_codes(words, segment: KeySegment) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(order codes, null mask)`` of a fixed-width segment from
    key word columns (:func:`~repro.keys.normalizer.key_words`' form).

    The exact inverse of the encoder: read the field, un-fold the NULL
    code, undo DESC, add the bias back.  NULL rows get code 0 (their
    original filler value is not recoverable).  ``words`` is consumed:
    the codes of a segment that fills a word may be that word, zeroed at
    NULL rows in place.
    """
    if segment.dtype.type_id is TypeId.VARCHAR:
        raise KeyEncodingError("VARCHAR segments have no code domain")
    start = segment.offset
    width = segment.value_width
    if segment.mode == MODE_PLAIN:
        null_mask = _field(words, start, 1) == segment.null_byte_for_null
        codes = _field(words, start + 1, width)
        if segment.key.descending:
            codes = np.uint64((1 << 8 * width) - 1) - codes
        codes[null_mask] = 0
        return codes, null_mask
    stored = _field(words, start, width)
    code_range = segment.code_range
    if segment.mode == MODE_FOLDED:
        if segment.key.nulls_first:
            null_mask = stored == np.uint64(0)
            rel = stored - np.uint64(1)  # NULL rows wrap; masked below
        else:
            null_mask = stored == np.uint64(code_range)
            rel = stored
    else:
        null_mask = np.zeros(len(stored), dtype=bool)
        rel = stored
    if segment.key.descending:
        rel = np.uint64(code_range - 1) - rel
    codes = rel + np.uint64(segment.bias) if segment.bias else rel
    if segment.mode == MODE_FOLDED:
        codes[null_mask] = 0
    return codes, null_mask


def _rebase_fields(words, old: KeySegment, new: KeySegment):
    """One segment's fields under ``new`` (``(offset, width, uint64)``,
    :func:`~repro.keys.normalizer.pack_fields`' input), read from key
    words under ``old``."""
    if old.key != new.key or old.dtype is not new.dtype:
        raise KeyEncodingError("layouts do not describe the same sort spec")
    if old.skipped != new.skipped:
        # The skipped bytes are fixed by the first run holding a valid
        # value, so only all-NULL runs precede them.
        null_rows = _field(words, old.offset, 1) == old.null_byte_for_null
        if old.skipped or not null_rows.all():
            raise KeyEncodingError("a segment's skipped bytes may not change")
        yield new.offset, 1, np.uint64(new.null_byte_for_null)
        return
    if old.mode == MODE_PLAIN and new.mode == MODE_PLAIN:
        # (A fixed-width plain segment is always its type's width.)
        if old.value_width > new.value_width:
            raise KeyEncodingError("cannot narrow a plain segment")
        # The indicator byte and the window, copied.  A VARCHAR window
        # below the cap is as wide as the old runs' longest value, so the
        # bytes it widens by are padding: 0x00 (unwritten bytes are
        # zero), or 0xFF on valid rows under DESC (after inversion).
        copied, total = 1 + old.value_width, new.total_width
        # Read before the sink consumes a copied field that is a word.
        valid = _field(words, old.offset, 1) != old.null_byte_for_null
        for start in range(0, copied, 8):
            width = min(8, copied - start)
            value = _field(words, old.offset + start, width)
            yield new.offset + start, width, value
        if new.key.descending:
            for start in range(copied, total, 8):
                width = min(8, total - start)
                pad = valid * np.uint64((1 << 8 * width) - 1)
                yield new.offset + start, width, pad
        return
    if old.mode == MODE_PLAIN:
        raise KeyEncodingError("segment modes only widen toward plain")
    codes, null_mask = segment_codes(words, old)
    if null_mask.any() and new.mode == MODE_NOBYTE:
        raise KeyEncodingError("NULL rows need a folded or plain segment")
    yield from _fixed_fields(new, codes, ~null_mask if null_mask.any() else None)


def rebase_words(words, old: KeyLayout, new: KeyLayout) -> list[np.ndarray]:
    """Key word columns under ``old`` re-encoded into ``new``, a later
    layout of the same accumulator: :func:`~repro.keys.normalizer.key_words`
    of the rows under ``new`` (a key-carried decode's NULL rows' lost
    filler re-encodes as the NULL code anyway).  ``words`` is consumed
    (:func:`segment_codes`), and the result may share them."""
    if len(old.segments) != len(new.segments):
        raise KeyEncodingError("layouts have different segment counts")
    fields = (
        field
        for pair in zip(old.segments, new.segments)
        for field in _rebase_fields(words, *pair)
    )
    return pack_fields(fields, len(words[0]), new.key_width)


def rebase_matrix(
    matrix: np.ndarray, old_layout: KeyLayout, new_layout: KeyLayout
) -> np.ndarray:
    """:func:`rebase_words` on a key byte matrix, a row-id suffix carried
    over (no engine caller: the end-to-end probes bind it).  Returns
    ``matrix`` itself when the layouts agree."""
    if old_layout == new_layout:
        return matrix
    if old_layout.row_id_width != new_layout.row_id_width:
        raise KeyEncodingError("row-id width may not change across runs")
    old_width, width = old_layout.key_width, new_layout.key_width
    padded = np.zeros((len(matrix), -(-old_width // 8) * 8), dtype=np.uint8)
    padded[:, :old_width] = matrix[:, :old_width]
    words = np.ascontiguousarray(padded.view(">u8").T, dtype=np.uint64)
    words = rebase_words(words, old_layout, new_layout)
    out = np.empty((len(matrix), width + old_layout.row_id_width), np.uint8)
    out[:, :width] = words_to_bytes(words, width)
    out[:, width:] = matrix[:, old_width:]
    return out


# ---------------------------------------------------------------------- #
# Key-carried rows: reconstructing the payload from keys alone
# ---------------------------------------------------------------------- #


def key_carried_eligible(schema: Schema, spec: SortSpec) -> bool:
    """Can the sorted output be rebuilt from the normalized keys alone?

    True when every schema column is a sort-key column of a fixed-width
    non-float type: integer (and boolean/date) codes decode back to the
    exact stored value, so spilled runs need no row payload at all.
    Floats are excluded because encoding canonicalizes NaN payloads and
    ``-0.0``; VARCHAR because prefixes truncate.
    """
    if len(schema) == 0:
        return False
    key_names = set(spec.column_names)
    for col in schema:
        if col.name not in key_names:
            return False
        if col.dtype.fixed_width is None or col.dtype.is_float:
            return False
    return True


def decode_key_table(words, layout: KeyLayout, schema: Schema) -> Table:
    """Rebuild a table from its key word columns (key-carried sorts).

    ``words`` are uint64 columns in :func:`~repro.keys.normalizer.key_words`'
    form, and they are *consumed*: a column whose segment fills a word has
    its sign bit flipped in place and keeps that word's buffer, so the
    caller must own them.  NULL rows decode with a zero data filler --
    value-level equality with the source column holds, raw filler bytes
    may differ.
    """
    decoded: dict[str, ColumnVector] = {}
    for segment in layout.segments:
        name = segment.key.column
        if name in decoded:
            continue
        dtype = segment.dtype
        width = dtype.fixed_width
        if width is None or dtype.is_float:
            raise KeyEncodingError(
                f"column {name!r} ({dtype.name}) is not key-carried decodable"
            )
        codes, null_mask = segment_codes(words, segment)
        unsigned = _WIDTH_TO_UNSIGNED[width]
        bits = codes if width == 8 else codes.astype(unsigned)
        if dtype.is_signed:
            bits ^= unsigned(1) << unsigned(8 * width - 1)
        data = bits.view(np.dtype(dtype.numpy_dtype))
        validity = None
        if null_mask.any():
            data[null_mask] = 0
            validity = ~null_mask
        decoded[name] = ColumnVector(dtype, data, validity)
    try:
        columns = [decoded[name] for name in schema.names]
    except KeyError as exc:
        raise KeyEncodingError(
            f"schema column {exc.args[0]!r} is not covered by the key layout"
        ) from exc
    return Table(schema, columns)
