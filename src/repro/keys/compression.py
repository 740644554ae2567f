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
  them and whether a value ends in NUL) that can be fed run by run.
  Because min only decreases, max only increases and the flags only
  latch, the layout built after more data is always a *widening* of any
  earlier one (``nobyte`` -> ``folded`` -> ``plain``, widths
  non-decreasing), which makes cheap re-basing possible.  A
  NULL-free segment that needs its type's full width anyway takes no
  bias (``bias 0``, the whole code space): the bytes per key are the
  same, and a later run that moves min or max no longer changes the
  layout, so nothing encoded earlier has to be rebased.
* :func:`rebase_matrix` -- rewrite a key matrix encoded under an earlier
  (narrower) layout into a later (wider) one, byte-identical to encoding
  the original values directly under the wider layout.
* :func:`serialize_layout` / :func:`deserialize_layout` -- the compact
  geometry blob the spill-file header carries so a spilled run can be
  merged by a reader that only knows the sort spec and schema.
* :func:`key_carried_eligible` / :func:`decode_key_table` -- when every
  output column is a key column of a losslessly-decodable type, the sorted
  payload can be reconstructed from the keys alone and runs spill *keys
  only* (the paper's key-carried rows taken to its extreme).

Compressed segments apply DESC in the code domain (``rel -> range-1-rel``)
instead of byte inversion, so one rule covers NULL folding and direction.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import KeyEncodingError
from repro.keys.encoding import (
    _WIDTH_TO_UNSIGNED,
    common_prefix,
    encode_utf8_column,
    ends_in_nul,
    fixed_column_codes,
    prefix_classes,
)
from repro.keys.normalizer import (
    MAX_STRING_PREFIX,
    MODE_FOLDED,
    MODE_NOBYTE,
    MODE_PLAIN,
    KeyLayout,
    KeySegment,
    write_compressed_segment,
)
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import DataType, TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortKey, SortSpec

__all__ = [
    "KeyStatsAccumulator",
    "build_compressed_layout",
    "rebase_matrix",
    "segment_codes",
    "serialize_layout",
    "deserialize_layout",
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

    def fold_strings(
        self, buffer: np.ndarray, lengths: np.ndarray, valid: np.ndarray
    ) -> None:
        """Fold in one run's encoded VARCHAR column."""
        self.nul_tail = self.nul_tail or ends_in_nul(buffer, lengths)
        starts = np.cumsum(lengths) - lengths
        if self.skipped:
            shares = prefix_classes(buffer, starts, lengths, self.skipped) == 0
            lengths = lengths - len(self.skipped) * shares
        elif self.skipped is None and valid.any():
            self.skipped = common_prefix(buffer, starts[valid], lengths[valid])
            lengths = lengths - len(self.skipped)  # NULL rows go negative
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


class KeyStatsAccumulator:
    """Monotone per-column statistics over the tables fed to a sort.

    Feed every input chunk through :meth:`update`, then
    :meth:`build_layout` yields the narrowest :class:`KeyLayout` covering
    all data seen so far.  Layouts built after more updates only ever
    widen earlier ones (see the module docstring), so runs encoded early
    can be re-based with :func:`rebase_matrix` instead of re-encoded.
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

        Returns what the pass made of each key column, for
        :func:`~repro.keys.normalizer.key_words` to pack: a VARCHAR
        column's one UTF-8 encoding ``(buffer, lengths)`` (the key
        windows are cut from it and the row block takes it as its heap),
        a fixed-width column's uint64 order codes, NULL rows' filler
        included.
        """
        encoded = {}
        for name, acc in self._columns.items():
            column = table.column(name)
            dtype = self.schema.column(name).dtype
            has_nulls = column.has_nulls
            acc.has_nulls = acc.has_nulls or has_nulls
            if dtype.type_id is TypeId.VARCHAR:
                encoded[name] = encode_utf8_column(
                    column.data, column.validity, name
                )
                acc.fold_strings(*encoded[name], column.validity)
                continue
            codes = encoded[name] = fixed_column_codes(column.data, dtype)
            live = codes[column.validity] if has_nulls else codes
            if len(live) == 0:
                continue
            lo, hi = int(live.min()), int(live.max())
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


def build_compressed_layout(
    table: Table,
    spec: SortSpec,
    include_row_id: bool = True,
    row_id_width: int = 8,
) -> KeyLayout:
    """One-shot compressed layout for a single table."""
    acc = KeyStatsAccumulator(table.schema, spec)
    acc.update(table)
    return acc.build_layout(include_row_id, row_id_width)


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
# Decoding segment bytes back to order codes, and re-basing
# ---------------------------------------------------------------------- #


def _big_endian_codes(raw: np.ndarray) -> np.ndarray:
    """Big-endian (n, w) uint8 bytes -> writable uint64 codes."""
    n, width = raw.shape
    padded = np.zeros((n, 8), dtype=np.uint8)
    padded[:, 8 - width :] = raw
    return padded.view(">u8").reshape(n).astype(np.uint64)


def segment_codes(
    matrix: np.ndarray, segment: KeySegment
) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(order codes, null mask)`` from a fixed-width segment.

    The exact inverse of what :func:`repro.keys.normalizer.normalize_keys`
    wrote: un-fold the NULL code, undo DESC, add the bias back.  NULL rows
    get code 0 (their original filler value is not recoverable).
    """
    if segment.dtype.type_id is TypeId.VARCHAR:
        raise KeyEncodingError("VARCHAR segments have no code domain")
    start = segment.offset
    width = segment.value_width
    if segment.mode == MODE_PLAIN:
        null_mask = matrix[:, start] == segment.null_byte_for_null
        raw = matrix[:, start + 1 : start + 1 + width]
        if segment.key.descending:
            raw = 0xFF - raw
        codes = _big_endian_codes(raw)
        codes[null_mask] = 0
        return codes, null_mask
    stored = _big_endian_codes(matrix[:, start : start + width])
    code_range = segment.code_range
    if segment.mode == MODE_FOLDED:
        if segment.key.nulls_first:
            null_mask = stored == np.uint64(0)
            rel = stored - np.uint64(1)  # NULL rows wrap; masked below
        else:
            null_mask = stored == np.uint64(code_range)
            rel = stored
    else:
        null_mask = np.zeros(len(matrix), dtype=bool)
        rel = stored
    if segment.key.descending:
        rel = np.uint64(code_range - 1) - rel
    codes = rel + np.uint64(segment.bias)
    codes[null_mask] = 0
    return codes, null_mask


def _write_plain_fixed(
    out: np.ndarray,
    segment: KeySegment,
    codes: np.ndarray,
    null_mask: np.ndarray,
) -> None:
    """Write a plain fixed-width segment from order codes."""
    width = segment.dtype.fixed_width
    assert width is not None and width == segment.value_width
    start = segment.offset
    n = len(codes)
    out[:, start] = np.where(
        null_mask, segment.null_byte_for_null, segment.null_byte_for_valid
    )
    big = np.ascontiguousarray(codes.astype(">u8")).view(np.uint8)
    value = big.reshape(n, 8)[:, 8 - width :]
    if segment.key.descending:
        value = 0xFF - value
    out[:, start + 1 : start + 1 + width] = value
    if null_mask.any():
        out[null_mask, start + 1 : start + 1 + width] = 0


def _rebase_segment(
    src: np.ndarray, dst: np.ndarray, old: KeySegment, new: KeySegment
) -> None:
    if old.key != new.key or old.dtype is not new.dtype:
        raise KeyEncodingError("layouts do not describe the same sort spec")
    if old.skipped != new.skipped:
        # The skipped bytes are fixed by the first run holding a valid
        # value, so only all-NULL runs precede them.
        null_rows = src[:, old.offset] == old.null_byte_for_null
        if old.skipped or not null_rows.all():
            raise KeyEncodingError("a segment's skipped bytes may not change")
        dst[:, new.offset : new.offset + new.total_width] = 0
        dst[:, new.offset] = new.null_byte_for_null
        return
    if old.mode == MODE_PLAIN and new.mode == MODE_PLAIN:
        if old.value_width == new.value_width:
            dst[:, new.offset : new.offset + new.total_width] = src[
                :, old.offset : old.offset + old.total_width
            ]
            return
        if (
            old.dtype.type_id is not TypeId.VARCHAR
            or old.value_width > new.value_width
        ):
            raise KeyEncodingError("cannot narrow a plain segment")
        # VARCHAR prefix widening.  An old width below the cap equals the
        # old runs' exact maximum length, so every old value's bytes past
        # it are pure padding: extend with the padding byte (0xFF under
        # DESC after inversion, else 0x00), keeping NULL rows all-zero.
        copied = 1 + old.value_width
        dst[:, new.offset : new.offset + copied] = src[
            :, old.offset : old.offset + copied
        ]
        pad = 0xFF if new.key.descending else 0x00
        tail = slice(new.offset + copied, new.offset + 1 + new.value_width)
        dst[:, tail] = pad
        if pad:
            null_rows = src[:, old.offset] == old.null_byte_for_null
            dst[null_rows, tail] = 0
        return
    if old.mode == MODE_PLAIN:
        raise KeyEncodingError("segment modes only widen toward plain")
    codes, null_mask = segment_codes(src, old)
    if new.mode == MODE_PLAIN:
        _write_plain_fixed(dst, new, codes, null_mask)
        return
    if null_mask.any() and new.mode != MODE_FOLDED:
        raise KeyEncodingError("NULL rows need a folded or plain segment")
    valid = ~null_mask if null_mask.any() else None
    write_compressed_segment(dst, new, codes, valid)


def rebase_matrix(
    matrix: np.ndarray, old_layout: KeyLayout, new_layout: KeyLayout
) -> np.ndarray:
    """Re-encode a key matrix from ``old_layout`` into ``new_layout``.

    ``new_layout`` must be a widening of ``old_layout`` (both built from
    the same accumulator, the new one after at least as many updates).
    The result is byte-identical to normalizing the original rows under
    ``new_layout`` directly -- except NULL rows of key-carried decodes,
    whose unrecoverable filler re-encodes as the NULL code anyway.
    Returns ``matrix`` itself when the layouts already agree.
    """
    if old_layout == new_layout:
        return matrix
    if old_layout.row_id_width != new_layout.row_id_width:
        raise KeyEncodingError("row-id width may not change across runs")
    if len(old_layout.segments) != len(new_layout.segments):
        raise KeyEncodingError("layouts have different segment counts")
    out = np.empty((len(matrix), new_layout.total_width), dtype=np.uint8)
    for old_seg, new_seg in zip(old_layout.segments, new_layout.segments):
        _rebase_segment(matrix, out, old_seg, new_seg)
    if new_layout.row_id_width:
        out[:, new_layout.key_width :] = matrix[:, old_layout.key_width :]
    return out


# ---------------------------------------------------------------------- #
# Layout serialization (spill-file header payload)
# ---------------------------------------------------------------------- #

_LAYOUT_VERSION = 2
_LAYOUT_HEADER = struct.Struct("<BBH")  # version, row_id_width, num segments
# flags, mode, width, bias, range-1, count of skipped bytes (they follow)
_LAYOUT_SEGMENT = struct.Struct("<BBBQQB")
_MODE_CODES = {MODE_PLAIN: 0, MODE_NOBYTE: 1, MODE_FOLDED: 2}
_MODE_NAMES = {code: mode for mode, code in _MODE_CODES.items()}
_FLAG_DESC, _FLAG_NULLS_FIRST, _FLAG_PREFIX_EXACT = 1, 2, 4


def serialize_layout(layout: KeyLayout) -> bytes:
    """Pack a layout's geometry into the spill-header ``extra`` blob.

    Only geometry travels (column name, flags, mode, width, bias, code
    range, skipped bytes); identity -- the :class:`SortKey` and
    :class:`DataType` -- is reconstructed from the live spec and schema
    on read, which every merge participant already holds.  ``code_range`` can be ``2**64`` (a
    full-width nobyte segment) so its predecessor is stored instead.
    """
    parts = [
        _LAYOUT_HEADER.pack(
            _LAYOUT_VERSION, layout.row_id_width, len(layout.segments)
        )
    ]
    for segment in layout.segments:
        name = segment.key.column.encode("utf-8")
        flags = (
            (_FLAG_DESC if segment.key.descending else 0)
            | (_FLAG_NULLS_FIRST if segment.key.nulls_first else 0)
            | (_FLAG_PREFIX_EXACT if segment.prefix_exact else 0)
        )
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        parts.append(
            _LAYOUT_SEGMENT.pack(
                flags,
                _MODE_CODES[segment.mode],
                segment.value_width,
                segment.bias,
                segment.code_range - 1,
                len(segment.skipped),
            )
        )
        parts.append(segment.skipped)
    return b"".join(parts)


def deserialize_layout(blob: bytes, schema: Schema, spec: SortSpec) -> KeyLayout:
    """Rebuild a :class:`KeyLayout` from :func:`serialize_layout` output.

    Cross-checks the blob against the live ``spec`` (column order,
    direction, NULL placement): a mismatch means the spill file belongs
    to a different sort and raises :class:`KeyEncodingError`.
    """
    try:
        version, row_id_width, nsegs = _LAYOUT_HEADER.unpack_from(blob, 0)
        if version != _LAYOUT_VERSION:
            raise KeyEncodingError(f"unknown key-layout version {version}")
        if nsegs != len(spec.keys):
            raise KeyEncodingError(
                f"layout has {nsegs} segments, spec has {len(spec.keys)}"
            )
        cursor = _LAYOUT_HEADER.size
        segments = []
        offset = 0
        for key in spec.keys:
            (name_len,) = struct.unpack_from("<H", blob, cursor)
            cursor += 2
            name = bytes(blob[cursor : cursor + name_len]).decode("utf-8")
            if len(name.encode("utf-8")) != name_len:
                raise KeyEncodingError("truncated key-layout blob")
            cursor += name_len
            flags, mode_code, value_width, bias, top, skip = (
                _LAYOUT_SEGMENT.unpack_from(blob, cursor)
            )
            cursor += _LAYOUT_SEGMENT.size
            skipped = bytes(blob[cursor : cursor + skip])
            cursor += skip
            if len(skipped) != skip:
                raise KeyEncodingError("truncated key-layout blob")
            if name != key.column:
                raise KeyEncodingError(
                    f"layout column {name!r} != spec column {key.column!r}"
                )
            if (
                bool(flags & _FLAG_DESC) != key.descending
                or bool(flags & _FLAG_NULLS_FIRST) != key.nulls_first
            ):
                raise KeyEncodingError(
                    f"layout direction flags disagree with spec for {name!r}"
                )
            if mode_code not in _MODE_NAMES:
                raise KeyEncodingError(f"unknown segment mode {mode_code}")
            dtype = schema.column(name).dtype
            if skip and dtype.type_id is not TypeId.VARCHAR:
                raise KeyEncodingError(
                    f"skipped bytes on non-VARCHAR segment {name!r}"
                )
            segment = KeySegment(
                key,
                dtype,
                offset,
                value_width,
                bool(flags & _FLAG_PREFIX_EXACT),
                _MODE_NAMES[mode_code],
                bias,
                top + 1,
                skipped,
            )
            segments.append(segment)
            offset += segment.total_width
    except struct.error as exc:
        raise KeyEncodingError(f"malformed key-layout blob: {exc}") from exc
    if cursor != len(blob):
        raise KeyEncodingError("trailing bytes in key-layout blob")
    return KeyLayout(tuple(segments), offset, row_id_width)


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


def decode_key_table(
    matrix: np.ndarray, layout: KeyLayout, schema: Schema
) -> Table:
    """Rebuild a table from key bytes (key-carried sorts, vectorized).

    ``matrix`` rows must be (at least) ``layout.key_width`` wide; a
    trailing row-id suffix is ignored.  NULL rows decode with a zero data
    filler -- value-level equality with the source column holds, raw
    filler bytes may differ.
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
        codes, null_mask = segment_codes(matrix, segment)
        unsigned = _WIDTH_TO_UNSIGNED[width]
        bits = codes.astype(unsigned)
        if dtype.is_signed:
            bits = bits ^ (unsigned(1) << unsigned(8 * width - 1))
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
