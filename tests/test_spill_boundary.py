"""Spill files are byte-identical across changes to the resident run format.

A resident run keeps its keys as uint64 word columns and its payload in
columns; key bytes with a row-id suffix, NSM rows and a heap exist only
where a run is written to a spill file.  The sha256 of every written
file's key, row and heap sections is pinned here for external sorts of
the catalog scenarios, including intermediate merge passes (whose runs
mix spilled and resident inputs), layout rebases and replacement
selection.  A change to any of these digests changes the spill format.
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
    """The real backend, hashing the key, row and heap section of every
    file written (the header, section 0, is left out)."""

    def __init__(self) -> None:
        self.files = 0
        self._digest = hashlib.sha256()

    def write_file(self, path, sections):
        self.files += 1
        for section in sections[1:]:
            self._digest.update(len(section).to_bytes(8, "little"))
            self._digest.update(section)
        super().write_file(path, sections)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


# (scenario, config overrides) -> (files written, sha256 of their sections),
# recorded when resident keys were still byte matrices.  A merge fan-in
# of 2 spills intermediate runs (the last group merges the resident tail
# with a file); ``near_sorted`` at 1,024 rows a run rebases layouts.
CASES = {
    ("uniform", ()): (
        3, "9bba2c6e79ff3ab28e4219f729f9ba89ce19b98010992e839c542c96385efae2"
    ),
    ("uniform", (("merge_fan_in", 2),)): (
        5, "e4c4bb2861c6da8d8443ccec597815635576dc93bed7a01f179fc39dfa3efe30"
    ),
    ("uniform", (("replacement_selection", True),)): (
        2, "f1f1bba73748ebcfc52dfcb511bd91c97246c3e07a454a3ee11aeeba1b43adb9"
    ),
    ("near_sorted", (("run_threshold", 1024),)): (
        3, "0547002565d7b6b7a1f3cf1566a01000cc55dd77eb2de4af7a4ff6e5ffd8bdd3"
    ),
    ("near_sorted", (("run_threshold", 1024), ("merge_fan_in", 2))): (
        5, "12a481008935bc550438890317f9480c8d5a97a4e67fe2c51f883b09b2c5de39"
    ),
    ("long_string", ()): (
        3, "f0c94bc7358a770f58979b439a504c448818206e2fd6f658750e22e9f1ed3964"
    ),
    ("mixed_null", ()): (
        3, "7012c697ca30cb9a327d527faddf7513725763a95a770874a0158ad574fcde86"
    ),
    ("tpcds_customer", (("merge_fan_in", 2),)): (
        5, "dbdb0e7d254dd2f04ce1881a11e3ce22264d42d9a2bb699ff5c5e2c013029c75"
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
    return io.files, io.hexdigest()


@pytest.mark.parametrize(
    "case",
    list(CASES),
    ids=lambda c: "-".join([c[0], *(f"{k}={v}" for k, v in c[1])]),
)
def test_spill_sections_are_pinned(case, tmp_path):
    assert spill_digest(*case, tmp_path) == CASES[case]
