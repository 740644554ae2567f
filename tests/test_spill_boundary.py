"""Spill files are byte-identical across changes to the run format.

A resident run keeps its keys as uint64 word columns and its payload in
columns; a spill file holds the key words in key order (row-major) and
the payload as the run holds it.  For external sorts of the catalog
scenarios, including intermediate merge passes (whose runs mix spilled
and resident inputs) and layout rebases, this
pins the number of files written, the sha256 of their key sections, and
apart from it the sha256 of their payload sections.  A change to any of
these changes the spill format.

A key section is the run's key words (native uint64, row-major, no
row id); a payload section is the run's positions, then its columns.
An extent holds these two sections and nothing else (its CRC table
stays in memory), so ``write_file`` receives the key section first and
the payload's parts after it, one call per run.
"""

from __future__ import annotations

import hashlib

import pytest

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.sort.external import ExternalSortOperator
from repro.sort.faults import SpillIO
from repro.sort.operator import SortConfig
from repro.table.chunk import chunk_table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 5000
SEED = 7


class DigestingIO(SpillIO):
    """The real backend, hashing every written file's key section, and
    apart from it its payload section."""

    def __init__(self) -> None:
        super().__init__()
        self.files = 0
        self._keys = hashlib.sha256()
        self._rest = hashlib.sha256()

    def write_file(self, path, sections):
        self.files += 1
        keys, payload = sections[0], sections[1:]
        self._keys.update(len(keys).to_bytes(8, "little"))
        self._keys.update(keys)
        self._rest.update(sum(map(len, payload)).to_bytes(8, "little"))
        for part in payload:
            self._rest.update(part)
        super().write_file(path, sections)

    def digests(self) -> tuple[int, str, str]:
        return self.files, self._keys.hexdigest(), self._rest.hexdigest()


# (scenario, config overrides) -> (files written, keys sha256, payload
# sha256).  A merge fan-in of 2 spills intermediate runs (the last group
# merges the resident tail with a file); ``near_sorted`` at 1,024 rows a
# run rebases layouts.  Key-carried files (``uniform``, ``near_sorted``)
# have empty payload sections.
NO_PAYLOAD_3 = "9d908ecfb6b256def8b49a7c504e6c889c4b0e41fe6ce3e01863dd7b61a20aa0"
NO_PAYLOAD_5 = "2c34ce1df23b838c5abf2a7f6437cca3d3067ed509ff25f11df6b11b582b51eb"
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
        "18fa27ec5c52381b4a8c52d4219640cb7711949049c1c8457098ad1fd8764dfd",
    ),
    ("mixed_null", ()): (
        3,
        "74a75e69a826967cd948b55c8b430f147133d676b7625271777a64ac54df20b6",
        "4694f8f2b2fe43cfd01790ad128ef0964375e61859fdccc27adb2e968922f573",
    ),
    ("tpcds_customer", (("merge_fan_in", 2),)): (
        5,
        "9d1e3a60d51fd9339bca93ffae3cbeac672946d7033e56c4cb21c93c778490a7",
        "5f6bb2b08ba57abd073a8c93f699565498e2a11d9be0fddbded87345ba4ae2d6",
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
