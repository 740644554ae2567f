"""The checksummed on-disk format of external-sort spill files.

A spill file holds one sorted run as three contiguous data sections
(sorted key words, payload row matrix, string heap) preceded by a
versioned header::

    +--------------------------------------------------------------+
    | fixed header (48 bytes, little-endian)                       |
    |   magic "RSPL" | version | header_bytes | num_rows           |
    |   key_words | row_width | heap_bytes | page_size             |
    |   crc_count | header_crc32                                   |
    +--------------------------------------------------------------+
    | page CRC32 table: crc_count x u32                            |
    |   (keys pages, then rows pages, then heap pages)             |
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

Integrity is page-granular *within* each section: section bytes are
covered by CRC32 checksums over ``page_size``-byte pages (the last page
of a section may be short), so a block read verifies exactly the pages it
touches -- no whole-file scan, and the merge's working set stays bounded.
``header_crc32`` covers the fixed header (with the CRC field zeroed), the
page table and ``extra``, so a damaged header is detected before any
geometry derived from it is trusted.

Every mismatch raises :class:`repro.errors.SpillCorruptionError` naming
the file, instead of surfacing later as a numpy shape/decode error.
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass

from repro.errors import SpillCorruptionError

__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "SECTION_NAMES",
    "SPILL_PAGE_SIZE",
    "SpillHeader",
    "VerifiedTailCache",
    "build_header",
    "read_header",
]

MAGIC = b"RSPL"
FORMAT_VERSION = 5

SPILL_PAGE_SIZE = 1 << 12
"""Default CRC page size (4 KiB).

Verified reads widen to page boundaries, so the page size bounds the
extra bytes a small read drags in (at most one page on either side).
4 KiB keeps that widening negligible even for the merge's narrow
payload-row gathers while the per-page ``zlib.crc32`` calls stay cheap;
the acceptance bar is the <10% end-to-end overhead asserted by
``benchmarks/bench_fault_overhead.py``.
"""

SECTION_NAMES = ("keys", "rows", "heap")

_FIXED = struct.Struct("<4sIIQIIQIII")
"""magic, version, header_bytes, num_rows, key_words, row_width,
heap_bytes, page_size, crc_count, header_crc32."""


class VerifiedTailCache:
    """The last CRC-verified page of each spill section, bytes included.

    Verified reads widen to page boundaries, so two consecutive block
    reads whose boundary straddles a page used to re-read *and*
    re-verify the shared page -- once as the first read's tail, once as
    the second read's head.  This cache keeps the bytes of the last page
    each section read (one page per section, 12 KiB total at the default
    page size): a follow-up read that starts inside the cached page is
    served the overlap from memory and only reads/verifies from the next
    page boundary on.  Because the cached bytes were themselves
    CRC-verified when first read, integrity guarantees are unchanged --
    nothing is ever trusted unverified, it is simply not re-fetched.

    Access is guarded by a lock: the prefetch layer
    (:mod:`repro.sort.prefetch`) reads key blocks from worker threads
    while the merge gathers payload rows on the consumer thread.  On a
    racing update the cache may simply miss -- correctness never depends
    on a hit.
    """

    __slots__ = ("_pages", "_lock")

    def __init__(self) -> None:
        self._pages: dict[int, tuple[int, bytes]] = {}
        self._lock = threading.Lock()

    def get(self, section: int, page_index: int) -> bytes | None:
        """The cached bytes of ``page_index``, or ``None`` on a miss."""
        with self._lock:
            entry = self._pages.get(section)
        if entry is not None and entry[0] == page_index:
            return entry[1]
        return None

    def put(self, section: int, page_index: int, data: bytes) -> None:
        """Remember ``data`` as the verified bytes of ``page_index``."""
        with self._lock:
            self._pages[section] = (page_index, data)


def _page_count(nbytes: int, page_size: int) -> int:
    return -(-nbytes // page_size) if nbytes else 0


def _page_crcs(data: bytes | memoryview, page_size: int) -> tuple[int, ...]:
    view = memoryview(data)
    return tuple(
        zlib.crc32(view[start : start + page_size])
        for start in range(0, len(view), page_size)
    )


@dataclass(frozen=True)
class SpillHeader:
    """Parsed (or freshly built) spill-file header.

    ``page_crcs`` holds one CRC tuple per section, in
    :data:`SECTION_NAMES` order.  All byte offsets below are absolute
    file offsets.  ``extra`` is the run's serialized key layout; it is
    covered by ``header_crc32``.
    """

    num_rows: int
    key_words: int
    row_width: int
    heap_bytes: int
    page_size: int
    page_crcs: tuple[tuple[int, ...], ...]
    extra: bytes = b""

    @property
    def crc_count(self) -> int:
        return sum(len(crcs) for crcs in self.page_crcs)

    @property
    def header_bytes(self) -> int:
        return _FIXED.size + 4 * self.crc_count + len(self.extra)

    def section_length(self, section: int) -> int:
        return (
            self.num_rows * 8 * self.key_words,
            self.num_rows * self.row_width,
            self.heap_bytes,
        )[section]

    def section_offset(self, section: int) -> int:
        lengths = (self.section_length(index) for index in range(section))
        return self.header_bytes + sum(lengths)

    def pack(self) -> bytes:
        """Serialize header + page table, computing ``header_crc32``."""
        table = struct.pack(
            f"<{self.crc_count}I",
            *(crc for crcs in self.page_crcs for crc in crcs),
        )
        fixed_fields = (
            MAGIC,
            FORMAT_VERSION,
            self.header_bytes,
            self.num_rows,
            self.key_words,
            self.row_width,
            self.heap_bytes,
            self.page_size,
            self.crc_count,
        )
        tail = table + self.extra
        crc = zlib.crc32(tail, zlib.crc32(_FIXED.pack(*fixed_fields, 0)))
        return _FIXED.pack(*fixed_fields, crc) + tail


def build_header(
    num_rows: int,
    key_words: int,
    row_width: int,
    sections: tuple[bytes | memoryview, bytes | memoryview, bytes],
    page_size: int = SPILL_PAGE_SIZE,
    extra: bytes = b"",
) -> SpillHeader:
    """Header for a run about to be written, CRCs computed per page.

    ``extra`` is an opaque blob stored (and CRC-protected) in the header;
    the external sort puts the run's serialized key layout there.
    """
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    return SpillHeader(
        num_rows=num_rows,
        key_words=key_words,
        row_width=row_width,
        heap_bytes=len(sections[2]),
        page_size=page_size,
        page_crcs=tuple(
            _page_crcs(section, page_size) for section in sections
        ),
        extra=bytes(extra),
    )


def read_header(io, path: str) -> SpillHeader:
    """Read and validate the header of the spill file at ``path``.

    ``io`` is a :class:`repro.sort.faults.SpillIO`.  Raises
    :class:`SpillCorruptionError` on a bad magic, unsupported version,
    truncated header, or header-CRC mismatch.
    """
    fixed = io.read(path, 0, _FIXED.size)
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
        page_size,
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
    if page_size <= 0 or header_bytes < _FIXED.size + 4 * crc_count:
        raise SpillCorruptionError(
            "inconsistent spill header geometry", path
        )
    extra_bytes = header_bytes - _FIXED.size - 4 * crc_count
    tail = io.read(path, _FIXED.size, 4 * crc_count + extra_bytes)
    if len(tail) != 4 * crc_count + extra_bytes:
        raise SpillCorruptionError("truncated spill page-CRC table", path)
    table, extra = tail[: 4 * crc_count], tail[4 * crc_count :]
    expected = zlib.crc32(tail, zlib.crc32(fixed[:-4] + b"\x00" * 4))
    if expected != header_crc:
        raise SpillCorruptionError(
            f"spill header CRC mismatch (stored {header_crc:#010x}, "
            f"computed {expected:#010x})",
            path,
        )
    flat = struct.unpack(f"<{crc_count}I", table)
    lengths = (num_rows * 8 * key_words, num_rows * row_width, heap_bytes)
    counts = [_page_count(length, page_size) for length in lengths]
    if sum(counts) != crc_count:
        raise SpillCorruptionError(
            "spill page-CRC table does not match the section geometry",
            path,
        )
    crcs: list[tuple[int, ...]] = []
    cursor = 0
    for count in counts:
        crcs.append(flat[cursor : cursor + count])
        cursor += count
    return SpillHeader(
        num_rows=num_rows,
        key_words=key_words,
        row_width=row_width,
        heap_bytes=heap_bytes,
        page_size=page_size,
        page_crcs=tuple(crcs),
        extra=bytes(extra),
    )
