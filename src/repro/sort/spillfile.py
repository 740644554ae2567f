"""The checksummed on-disk format of external-sort spill runs.

A sort keeps one spill file per directory and appends each run to it as
an *extent* (:class:`repro.sort.faults.SpillIO` opens the file once and
maps run names to extents).  An extent holds one sorted run as three
contiguous data sections (sorted key words, payload row matrix, string
heap) preceded by a versioned header; every offset below is relative to
the extent's start, so a header is re-read in place::

    spill file:  | run 0 extent | run 1 extent | run 2 extent | ...

    +--------------------------------------------------------------+
    | fixed header (48 bytes, little-endian)                       |
    |   magic "RSPL" | version | header_bytes | num_rows           |
    |   key_words | row_width | heap_bytes | block_rows            |
    |   crc_count | header_crc32                                   |
    +--------------------------------------------------------------+
    | block CRC32 table: crc_count x u32                           |
    |   (keys blocks, then rows blocks, then the heap)             |
    +--------------------------------------------------------------+
    | extra: header_bytes - 48 - 4*crc_count bytes, the run's      |
    |   serialized key layout                                      |
    +--------------------------------------------------------------+
    | keys  section: num_rows x key_words native-endian uint64,    |
    |   row-major (a row's words most significant first)           |
    | rows  section: num_rows x row_width bytes                    |
    | heap  section: heap_bytes bytes                              |
    +--------------------------------------------------------------+

The key section is the run's key words as the merge compares them
(:func:`repro.keys.normalizer.key_words`: word ``w`` of a row is its key
bytes ``[8w, 8w + 8)`` read big-endian), so a block reads back as words
with no conversion; no row id rides beside them.
The variable-length ``extra`` blob sits between the CRC table and the
data sections; readers locate it purely from ``header_bytes``.  It holds
the run's key layout (:func:`repro.keys.compression.serialize_layout`),
opaque to this module.  Spill files are private to the process that
wrote them (randomly named, removed on ``close``), so there is one
format version and :func:`read_header` rejects any other.

Integrity is block-granular: a block is ``block_rows`` rows of the key
section, the same rows of the row section (the last block of a section
may be short), and the whole heap, each covered by one CRC32.  A block
is what the merge reads, so a merge read is one ``pread`` and one
``crc32``; a read that is not aligned (a reopened run, a test) widens to
the blocks it covers and verifies each.
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

from repro.errors import SpillCorruptionError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SECTION_NAMES",
    "SpillHeader",
    "build_header",
    "read_header",
]

MAGIC = b"RSPL"
FORMAT_VERSION = 6

SECTION_NAMES = ("keys", "rows", "heap")

_FIXED = struct.Struct("<4sIIQIIQIII")
"""magic, version, header_bytes, num_rows, key_words, row_width,
heap_bytes, block_rows, crc_count, header_crc32."""


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
    row_width: int
    heap_bytes: int
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
        return (
            self.num_rows * 8 * self.key_words,
            self.num_rows * self.row_width,
            self.heap_bytes,
        )[section]

    def block_bytes(self, section: int) -> int:
        """Bytes one CRC covers: a block of rows, or the whole heap."""
        rows = self.block_rows
        return (
            rows * 8 * self.key_words, rows * self.row_width, self.heap_bytes
        )[section]

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
            self.row_width,
            self.heap_bytes,
            self.block_rows,
            self.crc_count,
        )
        tail = table + self.extra
        crc = zlib.crc32(_FIXED.pack(*fixed_fields, 0) + tail)
        return _FIXED.pack(*fixed_fields, crc) + tail


def build_header(
    num_rows: int,
    key_words: int,
    row_width: int,
    sections: tuple,
    block_rows: int,
    extra: bytes = b"",
) -> SpillHeader:
    """Header for a run about to be written, one CRC computed per block.

    ``sections`` are the three sections' bytes (flat byte buffers);
    ``extra`` is an opaque blob stored (and CRC-protected) in the header;
    the external sort puts the run's serialized key layout there.
    """
    if block_rows <= 0:
        raise ValueError("block_rows must be positive")
    header = SpillHeader(
        num_rows, key_words, row_width, len(sections[2]), block_rows, (),
        bytes(extra),
    )
    crcs = []
    for index, section in enumerate(sections):
        step, view = header.block_bytes(index) or 1, memoryview(section)
        crcs.append(tuple(
            zlib.crc32(view[lo : lo + step])
            for lo in range(0, len(view), step)
        ))
    return dataclasses.replace(header, block_crcs=tuple(crcs))


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
        row_width,
        heap_bytes,
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
        num_rows, key_words, row_width, heap_bytes, block_rows, (),
        bytes(extra),
    )
    counts = [header.block_count(section) for section in range(3)]
    if sum(counts) != crc_count:
        raise SpillCorruptionError(
            "spill block-CRC table does not match the section geometry",
            path,
        )
    ends = itertools.accumulate(counts)
    crcs = tuple(flat[end - count : end] for count, end in zip(counts, ends))
    return dataclasses.replace(header, block_crcs=crcs)
