"""Spill files are byte-identical across changes to the run format.

A resident run keeps its keys as uint64 word columns and its payload in
columns; key word rows, NSM rows and a heap exist only where a run is
written to a spill file.  For external sorts of the catalog scenarios,
including intermediate merge passes (whose runs mix spilled and resident
inputs), layout rebases and replacement selection, this pins the number
of files written, the sha256 of their key sections, and apart from it
the sha256 of their row and heap sections.  A change to any of these
changes the spill format.

The row and heap digests were recorded at spill format 4 and still hold.
The key digests were re-recorded for format 5: a key section became the
run's key words (native uint64, row-major) and lost its 8-byte row-id
suffix, which no merge read.  Its words are format 4's key bytes read
big-endian, word by word.  Format 6 (one CRC32 per merge block, runs as
extents of one file per sort per directory) changed only the header: the
sections and the count of ``write_file`` calls, one per run, still hold.
"""

from __future__ import annotations

import hashlib
import zlib

import pytest

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.errors import SpillCorruptionError
from repro.sort.external import ExternalSortOperator, SpilledRun
from repro.sort.faults import SpillIO
from repro.sort.operator import SortConfig
from repro.sort.spillfile import _FIXED, FORMAT_VERSION
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 5000
SEED = 7


class DigestingIO(SpillIO):
    """The real backend, hashing every written file's key section, and
    apart from it its row and heap sections (the header is left out)."""

    def __init__(self) -> None:
        super().__init__()
        self.files = 0
        self._keys = hashlib.sha256()
        self._rest = hashlib.sha256()

    def write_file(self, path, sections):
        self.files += 1
        for digest, section in zip(
            (self._keys, self._rest, self._rest), sections[1:]
        ):
            digest.update(len(section).to_bytes(8, "little"))
            digest.update(section)
        super().write_file(path, sections)

    def digests(self) -> tuple[int, str, str]:
        return self.files, self._keys.hexdigest(), self._rest.hexdigest()


# (scenario, config overrides) -> (files written, keys sha256, rows and
# heap sha256).  A merge fan-in of 2 spills intermediate runs (the last
# group merges the resident tail with a file); ``near_sorted`` at 1,024
# rows a run rebases layouts.  Key-carried files (``uniform``,
# ``near_sorted``) have empty row and heap sections.
NO_PAYLOAD_3 = "17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1"
NO_PAYLOAD_5 = "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8"
CASES = {
    ("uniform", ()): (
        3,
        "865d49e07bf1de406620ea1d55ab7dd93c61d37cbd2f3fcc047168f583553a97",
        NO_PAYLOAD_3,
    ),
    ("uniform", (("merge_fan_in", 2),)): (
        5,
        "4ff1eb47d104ce798b4864d2723ca27688ffb6e589117be4f28920e6e5fe0896",
        NO_PAYLOAD_5,
    ),
    ("uniform", (("replacement_selection", True),)): (
        2,
        "ade16fe1b19b1f02d0f78eff79687cba54fba9507185be63263a4a2d7aa1a879",
        "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
    ),
    ("near_sorted", (("run_threshold", 1024),)): (
        3,
        "2aad0e63e0543aaf70b883cb57ba88fef15ad0e3e8ba4e35aa0092066a90729d",
        NO_PAYLOAD_3,
    ),
    ("near_sorted", (("run_threshold", 1024), ("merge_fan_in", 2))): (
        5,
        "dec426f634445edd8f11545a59262eab32ea7aba3d4798607fe54d2a45b77d6e",
        NO_PAYLOAD_5,
    ),
    ("long_string", ()): (
        3,
        "7b3658b3be0591b9151d564f77f38aa79bb821a69f27c8a2a2acdfa7105d303e",
        "139d95fbe4818b55cc26845173cc8c41e121b72e1c965bf57f046c4943d9fc3f",
    ),
    ("mixed_null", ()): (
        3,
        "74a75e69a826967cd948b55c8b430f147133d676b7625271777a64ac54df20b6",
        "af9856333a835fd48091717428e0e6accfb9db71a6401956633873e1347bad41",
    ),
    ("tpcds_customer", (("merge_fan_in", 2),)): (
        5,
        "9d1e3a60d51fd9339bca93ffae3cbeac672946d7033e56c4cb21c93c778490a7",
        "e8ebecc48e0edd87013158436814f743a0f1c68c7da5a1d63f308293e64cc298",
    ),
}


def spill_digest(name: str, overrides: tuple, directory):
    scenario = SCENARIOS[name]
    table = scenario.table(ROWS, SEED)
    spec = SortSpec.of(*[p.strip() for p in scenario.order_by.split(",")])
    config = SortConfig(**{"run_threshold": 1500, **dict(overrides)})
    io = DigestingIO()
    with ExternalSortOperator(
        table.schema, spec, config, str(directory), io=io
    ) as operator:
        for chunk in chunk_table(table, 500):
            operator.sink(chunk)
        result = operator.finalize()
    assert_byte_identical(oracle_sort(table, spec), result)
    return io.digests()


@pytest.mark.parametrize(
    "case",
    list(CASES),
    ids=lambda c: "-".join([c[0], *(f"{k}={v}" for k, v in c[1])]),
)
def test_spill_sections_are_pinned(case, tmp_path):
    assert spill_digest(*case, tmp_path) == CASES[case]


def assert_old_format_refused(version, tmp_path):
    # A run whose header says an older format is refused typed, even
    # with a valid header CRC, by a reopen and by the merge.
    table = SCENARIOS["uniform"].table(ROWS, SEED)
    spec = SortSpec.of("a", "p")
    operator = ExternalSortOperator(
        table.schema, spec, SortConfig(run_threshold=1500), str(tmp_path)
    )
    with operator:
        for chunk in chunk_table(table, 500):
            operator.sink(chunk)
        run = operator._runs[1]
        file, offset = run.io.locate(run.path)
        with open(file, "r+b") as fh:
            fh.seek(offset)
            fields = list(_FIXED.unpack(fh.read(_FIXED.size)))
            tail = fh.read(fields[2] - _FIXED.size)
            fields[1], fields[9] = version, 0
            fields[9] = zlib.crc32(tail, zlib.crc32(_FIXED.pack(*fields)))
            fh.seek(offset)
            fh.write(_FIXED.pack(*fields))
        assert FORMAT_VERSION == 6
        with pytest.raises(SpillCorruptionError, match=f"version {version}"):
            SpilledRun.open(file, table.schema, spec, offset=offset)
        with pytest.raises(SpillCorruptionError, match=f"version {version}"):
            operator.finalize()
    assert list(tmp_path.iterdir()) == []


def test_a_format_4_header_is_refused(tmp_path):
    # Format 4: key bytes plus a row-id suffix.
    assert_old_format_refused(4, tmp_path)


def test_a_format_5_header_is_refused(tmp_path):
    # Format 5: one CRC32 per 4 KiB page of each section.
    assert_old_format_refused(5, tmp_path)
