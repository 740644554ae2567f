"""The checksummed on-disk format of external-sort spill runs.

A sort keeps one spill file per directory and appends each run to it as
an *extent* (:class:`repro.sort.faults.SpillIO` opens the file once and
maps run names to extents).  An extent is one sorted run's data and
nothing else: two contiguous sections, the sorted key words and then the
payload.  Every offset below is relative to the extent's start::

    spill file:  | run 0 extent | run 1 extent | run 2 extent | ...

    +--------------------------------------------------------------+
    | keys    section: num_rows x key_words native-endian uint64,  |
    |   row-major (a row's words most significant first)           |
    +--------------------------------------------------------------+
    | payload section: payload_bytes bytes (empty when the run is  |
    |   key-carried), each part below zero-padded to 8 bytes:      |
    |     positions: num_rows x int64                              |
    |     per column, in schema order:                             |
    |       validity: num_rows bytes                               |
    |       fixed-width: num_rows native-endian values             |
    |       VARCHAR: num_rows x int64 UTF-8 byte lengths (0 when   |
    |         NULL), then the bytes back to back                   |
    +--------------------------------------------------------------+

The keys are the words the merge compares
(:func:`repro.keys.normalizer.key_words`), so a block reads back with no
conversion, and the payload is what a resident run holds
(:class:`repro.sort.rungen.InMemoryRun`), so a run read back is a
resident run whose key words stream from disk.  The extent's geometry
and CRC32 table (:class:`SpillExtent`) stay in memory with the run that
wrote it: one CRC per ``block_rows`` key rows and one for the payload,
checked as they are read, so a mismatch or short read raises
:class:`repro.errors.SpillCorruptionError` naming the run.  The format's
rationale is in ``docs/sort-pipeline.md`` ("Spill file format").
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import SpillCorruptionError
from repro.table.column import ColumnVector
from repro.table.strings import EncodedStrings, decode_utf8_column
from repro.table.table import Table
from repro.types.schema import Schema

__all__ = [
    "SECTION_NAMES",
    "SpillExtent",
    "build_extent",
    "pack_payload",
    "unpack_payload",
]

SECTION_NAMES = ("keys", "payload")


@dataclass(frozen=True)
class SpillExtent:
    """A spilled run's extent: its geometry and block CRC table.

    ``block_crcs`` holds one CRC tuple per section, in
    :data:`SECTION_NAMES` order.  All byte offsets below are relative to
    the run's extent.
    """

    num_rows: int
    key_words: int
    payload_bytes: int
    block_rows: int
    block_crcs: tuple[tuple[int, ...], ...]

    def section_length(self, section: int) -> int:
        keys = self.num_rows * 8 * self.key_words
        return (keys, self.payload_bytes)[section]

    def block_bytes(self, section: int) -> int:
        """Bytes one CRC covers: a block of key rows, or the payload."""
        block = self.block_rows * 8 * self.key_words
        return (block, self.payload_bytes)[section]

    def section_offset(self, section: int) -> int:
        return sum(self.section_length(index) for index in range(section))


def build_extent(
    keys: np.ndarray, payload: list, block_rows: int
) -> SpillExtent:
    """The extent of a run about to be written, one CRC per block.

    ``keys`` is the run's ``(rows, words)`` uint64 key word rows,
    ``payload`` the flat byte buffers :func:`pack_payload` returns.
    """
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    rows, words = keys.shape
    step = block_rows * 8 * words or 1
    view = memoryview(keys.view(np.uint8).ravel())
    crcs = tuple(
        zlib.crc32(view[lo : lo + step]) for lo in range(0, len(view), step)
    )
    payload_crc = 0
    for part in payload:
        payload_crc = zlib.crc32(part, payload_crc)
    payload_bytes = sum(map(len, payload))
    return SpillExtent(
        rows, words, payload_bytes, block_rows,
        (crcs, (payload_crc,) if payload_bytes else ()),
    )


def pack_payload(table: Table, positions: np.ndarray) -> list:
    """A run's payload section as flat byte buffers, each padded to 8 bytes.

    Views of the run's arrays; a VARCHAR column is its UTF-8 form's
    lengths and its own values' bytes back to back
    (:meth:`EncodedStrings.packed`: a view, unless its slots were
    gathered from a larger heap).
    """
    parts = [np.ascontiguousarray(positions, dtype=np.int64)]
    for name, column in zip(table.schema.names, table.columns):
        parts.append(np.ascontiguousarray(column.validity))
        if column.dtype.is_variable_width:
            strings = column.strings(name)
            parts += [strings.lengths, strings.packed()]
        else:
            parts.append(np.ascontiguousarray(column.data))
    padded = []
    for part in parts:
        padded.append(part.view(np.uint8))
        if part.nbytes % 8:
            padded.append(bytes(-part.nbytes % 8))
    return padded


def unpack_payload(raw: bytes, schema: Schema, num_rows: int, path: str):
    """``(table, positions)`` of a payload :func:`pack_payload` wrote: a
    VARCHAR column is decoded to ``str`` and keeps the bytes it was read
    from as its UTF-8 form; every other array is a view of ``raw``.  A
    payload that does not hold ``schema``'s columns raises
    :class:`SpillCorruptionError` naming ``path``."""
    at = 0

    def take(dtype, count):
        nonlocal at
        array = np.frombuffer(raw, dtype, count, at)
        at += array.nbytes + -array.nbytes % 8
        return array

    try:
        positions = take(np.int64, num_rows)
        columns = []
        for column in schema:
            validity = take(np.bool_, num_rows)
            strings = None
            if column.dtype.is_variable_width:
                lengths = take(np.int64, num_rows)
                heap = take(np.uint8, int(lengths.sum()))
                strings = EncodedStrings(heap, lengths, validity)
                data = decode_utf8_column(
                    heap, strings.starts, lengths, validity
                )
            else:
                data = take(column.dtype.numpy_dtype, num_rows)
            columns.append(ColumnVector(column.dtype, data, validity, strings))
    except ValueError as error:
        raise SpillCorruptionError(f"payload: {error}", path) from error
    if at != len(raw):
        raise SpillCorruptionError(
            f"payload of {len(raw)} bytes holds {at} for the schema", path
        )
    return Table(schema, columns), positions
