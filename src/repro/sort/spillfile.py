"""The checksummed on-disk format of external-sort spill runs.

A sort keeps one spill file per directory and appends each run to it as
an *extent* (:class:`repro.sort.faults.SpillIO` opens the file once and
maps run names to extents).  An extent holds one sorted run as two
contiguous data sections (sorted key words, payload) preceded by a
versioned header; every offset below is relative to the extent's start,
so a header is re-read in place::

    spill file:  | run 0 extent | run 1 extent | run 2 extent | ...

    +--------------------------------------------------------------+
    | fixed header (44 bytes, little-endian)                       |
    |   magic "RSPL" | version | header_bytes | num_rows           |
    |   key_words | payload_bytes | block_rows | crc_count         |
    |   header_crc32                                               |
    +--------------------------------------------------------------+
    | block CRC32 table: crc_count x u32                           |
    |   (keys blocks, then the payload's one)                      |
    +--------------------------------------------------------------+
    | extra: header_bytes - 44 - 4*crc_count bytes, the run's      |
    |   serialized key layout                                      |
    +--------------------------------------------------------------+
    | keys    section: num_rows x key_words native-endian uint64,  |
    |   row-major (a row's words most significant first)           |
    | payload section: payload_bytes bytes (empty when the run is  |
    |   key-carried), each part below zero-padded to 8 bytes:      |
    |     positions: num_rows x int64                              |
    |     per column, in schema order:                             |
    |       validity: num_rows bytes                               |
    |       fixed-width: num_rows native-endian values             |
    |       VARCHAR: num_rows x int64 UTF-8 byte lengths (0 when   |
    |         NULL), then the bytes back to back                   |
    +--------------------------------------------------------------+

The key section is the run's key words as the merge compares them
(:func:`repro.keys.normalizer.key_words`: word ``w`` of a row is its key
bytes ``[8w, 8w + 8)`` read big-endian), in key order, so a block reads
back as words with no conversion; no row id rides beside them.  The
payload is what a resident run holds (:class:`repro.sort.rungen.
InMemoryRun`): its table's columns in arrival order, a VARCHAR column in
the form :class:`repro.keys.encoding.EncodedStrings` holds, and the
positions of its rows in key order -- so a run read back is a resident
run whose key words stream from disk.
The variable-length ``extra`` blob sits between the CRC table and the
data sections; readers locate it purely from ``header_bytes``.  It holds
the run's key layout (:func:`repro.keys.compression.serialize_layout`),
opaque to this module.  Spill files are private to the process that
wrote them (randomly named, removed on ``close``), so there is one
format version and :func:`read_header` rejects any other.

Integrity is block-granular: a block is ``block_rows`` rows of the key
section (the last may be short), each covered by one CRC32, and the
payload, read whole once per merge pass, is one block.  A block is what
the merge reads, so a merge read is one ``pread`` and one ``crc32``; a
read that is not aligned (a reopened run, a test) widens to the blocks
it covers and verifies each.
``header_crc32`` covers the fixed header (with the CRC field zeroed), the
block table and ``extra``, so a damaged header is detected before any
geometry derived from it is trusted.

Every mismatch raises :class:`repro.errors.SpillCorruptionError` naming
the run, instead of surfacing later as a numpy shape/decode error.
"""

from __future__ import annotations

import dataclasses
import itertools
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from repro.errors import SpillCorruptionError
from repro.keys.encoding import (
    EncodedStrings,
    decode_utf8_column,
    encode_utf8_column,
)
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.schema import Schema

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SECTION_NAMES",
    "SpillHeader",
    "build_header",
    "pack_payload",
    "read_header",
    "unpack_payload",
]

MAGIC = b"RSPL"
FORMAT_VERSION = 7

SECTION_NAMES = ("keys", "payload")

_FIXED = struct.Struct("<4sIIQIQIII")
"""magic, version, header_bytes, num_rows, key_words, payload_bytes,
block_rows, crc_count, header_crc32."""


@dataclass(frozen=True)
class SpillHeader:
    """Parsed (or freshly built) spill-run header.

    ``block_crcs`` holds one CRC tuple per section, in
    :data:`SECTION_NAMES` order.  All byte offsets below are relative to
    the run's extent.  ``extra`` is the run's serialized key layout; it
    is covered by ``header_crc32``.
    """

    num_rows: int
    key_words: int
    payload_bytes: int
    block_rows: int
    block_crcs: tuple[tuple[int, ...], ...]
    extra: bytes = b""

    @property
    def crc_count(self) -> int:
        return sum(len(crcs) for crcs in self.block_crcs)

    @property
    def header_bytes(self) -> int:
        return _FIXED.size + 4 * self.crc_count + len(self.extra)

    def section_length(self, section: int) -> int:
        keys = self.num_rows * 8 * self.key_words
        return (keys, self.payload_bytes)[section]

    def block_bytes(self, section: int) -> int:
        """Bytes one CRC covers: a block of key rows, or the payload."""
        block = self.block_rows * 8 * self.key_words
        return (block, self.payload_bytes)[section]

    def block_count(self, section: int) -> int:
        length = self.section_length(section)
        return -(-length // self.block_bytes(section)) if length else 0

    def section_offset(self, section: int) -> int:
        lengths = (self.section_length(index) for index in range(section))
        return self.header_bytes + sum(lengths)

    def pack(self) -> bytes:
        """Serialize header + block table, computing ``header_crc32``."""
        table = struct.pack(
            f"<{self.crc_count}I",
            *(crc for crcs in self.block_crcs for crc in crcs),
        )
        fixed_fields = (
            MAGIC,
            FORMAT_VERSION,
            self.header_bytes,
            self.num_rows,
            self.key_words,
            self.payload_bytes,
            self.block_rows,
            self.crc_count,
        )
        tail = table + self.extra
        crc = zlib.crc32(_FIXED.pack(*fixed_fields, 0) + tail)
        return _FIXED.pack(*fixed_fields, crc) + tail


def build_header(
    keys: np.ndarray,
    payload: list,
    block_rows: int,
    extra: bytes = b"",
) -> SpillHeader:
    """Header for a run about to be written, one CRC computed per block.

    ``keys`` is the run's ``(rows, words)`` uint64 key word rows,
    ``payload`` the flat byte buffers :func:`pack_payload` returns;
    ``extra`` is an opaque blob stored (and CRC-protected) in the header;
    the external sort puts the run's serialized key layout there.
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
    return SpillHeader(
        rows, words, payload_bytes, block_rows,
        (crcs, (payload_crc,) if payload_bytes else ()), bytes(extra),
    )


def read_header(io, path: str, base: int = 0) -> SpillHeader:
    """Read and validate the header of the spill run at ``path``.

    ``io`` is a :class:`repro.sort.faults.SpillIO`; ``base`` is the
    offset of the run's header in what ``path`` names (0 for a run the
    backend wrote, the extent's offset for a run reopened by file).
    Raises :class:`SpillCorruptionError` on a bad magic, unsupported
    version, truncated header, or header-CRC mismatch.
    """
    fixed = io.read(path, base, _FIXED.size)
    if len(fixed) != _FIXED.size:
        raise SpillCorruptionError(
            f"truncated spill header ({len(fixed)} of {_FIXED.size} bytes)",
            path,
        )
    (
        magic,
        version,
        header_bytes,
        num_rows,
        key_words,
        payload_bytes,
        block_rows,
        crc_count,
        header_crc,
    ) = _FIXED.unpack(fixed)
    if magic != MAGIC:
        raise SpillCorruptionError(
            f"bad spill magic {magic!r} (expected {MAGIC!r})", path
        )
    if version != FORMAT_VERSION:
        raise SpillCorruptionError(
            f"unsupported spill format version {version} "
            f"(this build reads version {FORMAT_VERSION})",
            path,
        )
    if block_rows <= 0 or header_bytes < _FIXED.size + 4 * crc_count:
        raise SpillCorruptionError(
            "inconsistent spill header geometry", path
        )
    extra_bytes = header_bytes - _FIXED.size - 4 * crc_count
    tail = io.read(path, base + _FIXED.size, 4 * crc_count + extra_bytes)
    if len(tail) != 4 * crc_count + extra_bytes:
        raise SpillCorruptionError("truncated spill block-CRC table", path)
    table, extra = tail[: 4 * crc_count], tail[4 * crc_count :]
    expected = zlib.crc32(fixed[:-4] + b"\x00" * 4 + tail)
    if expected != header_crc:
        raise SpillCorruptionError(
            f"spill header CRC mismatch (stored {header_crc:#010x}, "
            f"computed {expected:#010x})",
            path,
        )
    flat = struct.unpack(f"<{crc_count}I", table)
    header = SpillHeader(
        num_rows, key_words, payload_bytes, block_rows, (), bytes(extra)
    )
    counts = [header.block_count(section) for section in range(2)]
    if sum(counts) != crc_count:
        raise SpillCorruptionError(
            "spill block-CRC table does not match the section geometry",
            path,
        )
    ends = itertools.accumulate(counts)
    crcs = tuple(flat[end - count : end] for count, end in zip(counts, ends))
    return dataclasses.replace(header, block_crcs=crcs)


def pack_payload(table: Table, positions: np.ndarray, encoded: dict) -> list:
    """A run's payload section as flat byte buffers, each padded to 8 bytes.

    Views of the run's arrays: nothing is copied but a VARCHAR column
    ``encoded`` (its key statistics' :class:`EncodedStrings`) lacks, which
    the codec encodes here.
    """
    parts = [np.ascontiguousarray(positions, dtype=np.int64)]
    for name, column in zip(table.schema.names, table.columns):
        parts.append(np.ascontiguousarray(column.validity))
        if name in encoded:
            parts += [encoded[name].lengths, encoded[name].buffer]
        elif column.dtype.is_variable_width:
            buffer, lengths = encode_utf8_column(
                column.data, column.validity, name
            )
            parts += [lengths, buffer]
        else:
            parts.append(np.ascontiguousarray(column.data))
    padded = []
    for part in parts:
        padded.append(part.view(np.uint8))
        if part.nbytes % 8:
            padded.append(bytes(-part.nbytes % 8))
    return padded


def unpack_payload(raw: bytes, schema: Schema, num_rows: int, path: str):
    """``(table, positions, strings)`` of a payload :func:`pack_payload`
    wrote: ``strings`` maps each VARCHAR column to its
    :class:`EncodedStrings`; every array but a decoded ``str`` column is
    a view of ``raw``.  A payload that does not hold ``schema``'s columns
    raises :class:`SpillCorruptionError` naming ``path``."""
    at = 0

    def take(dtype, count):
        nonlocal at
        array = np.frombuffer(raw, dtype, count, at)
        at += array.nbytes + -array.nbytes % 8
        return array

    try:
        positions = take(np.int64, num_rows)
        columns, strings = [], {}
        for column in schema:
            validity = take(np.bool_, num_rows)
            if column.dtype.is_variable_width:
                lengths = take(np.int64, num_rows)
                encoded = EncodedStrings(
                    take(np.uint8, int(lengths.sum())), lengths
                )
                strings[column.name] = encoded
                data = decode_utf8_column(
                    encoded.buffer, encoded.starts, lengths, validity
                )
            else:
                data = take(column.dtype.numpy_dtype, num_rows)
            columns.append(ColumnVector(column.dtype, data, validity))
    except ValueError as error:
        raise SpillCorruptionError(f"payload: {error}", path) from error
    if at != len(raw):
        raise SpillCorruptionError(
            f"payload of {len(raw)} bytes holds {at} for the schema", path
        )
    return Table(schema, columns), positions, strings
