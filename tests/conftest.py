"""Shared fixtures and reference implementations for the test suite."""

from __future__ import annotations

import functools
import os
import sys

import numpy as np
import pytest

# Allow running the tests from a source checkout without installation.
_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
if os.path.isdir(_SRC) and _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.sort.external import ExternalSortOperator  # noqa: E402
from repro.sort.kernels import _chunk_columns, kway_merge_blocks  # noqa: E402
from repro.sort.merger import RunMerger  # noqa: E402
from repro.sort.operator import SortConfig, SortStats  # noqa: E402
from repro.sort.rungen import RunGenerator  # noqa: E402
from repro.table.chunk import chunk_table  # noqa: E402
from repro.table.column import ColumnVector  # noqa: E402
from repro.table.table import Table  # noqa: E402
from repro.types.sortspec import SortSpec, tuple_compare  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_table() -> Table:
    """The paper's running example: customers with NULLs and strings."""
    return Table.from_pydict(
        {
            "c_birth_country": [
                "NETHERLANDS",
                "GERMANY",
                None,
                "GERMANY",
                "BELGIUM",
            ],
            "c_birth_year": [1992, 1968, 1990, None, 1968],
            "c_customer_sk": [1, 2, 3, 4, 5],
        }
    )


def reference_sort(table: Table, spec: SortSpec) -> Table:
    """Ground-truth sort: stable Python sort with tuple_compare.

    Every fast path in the library (normalized keys, radix, pdqsort,
    merges, external sort) is checked against this.
    """
    key_indices = [table.schema.index_of(name) for name in spec.column_names]
    rows = list(range(table.num_rows))

    def compare(i: int, j: int) -> int:
        left = tuple(table.row(i)[c] for c in key_indices)
        right = tuple(table.row(j)[c] for c in key_indices)
        return tuple_compare(left, right, spec)

    rows.sort(key=functools.cmp_to_key(compare))
    return table.take(np.array(rows, dtype=np.int64))


def stems_first(table: Table, column: str = "s") -> Table:
    """``table`` with byte 15 of each ``column`` string copied to its front.

    Byte 15 is where the catalog's ``long_string`` stems differ: the
    result's stems differ in their first byte and share the next 15, so
    its 12 key bytes tie whatever prefix the key statistics skip.
    """
    columns = list(table.columns)
    index = table.schema.names.index(column)
    old = columns[index]
    data = np.array(
        [v[15] + v if ok else v for v, ok in zip(old.data, old.validity)],
        dtype=object,
    )
    columns[index] = ColumnVector(old.dtype, data, old.validity)
    return Table(table.schema, columns)


def sort_resident_runs(table: Table, spec: SortSpec, runs: int, config=None):
    """Sort through ``runs`` resident runs; returns ``(result, stats)``.

    ``SortOperator`` cuts one run, so the k-way merge of *resident* runs
    (what the external sort's memory-fallback runs take) is reached by
    driving the two shared stages directly: one
    ``RunGenerator.encode`` / ``sort_run`` per slice of the table, one
    ``RunMerger.merge`` over the runs, each run its own frontier block.
    """
    stats = SortStats()
    generator = RunGenerator(
        table.schema, spec, config or SortConfig(), stats, lambda: None
    )
    resident = [
        generator.sort_run(*generator.encode([chunk]))
        for chunk in chunk_table(table, -(-table.num_rows // runs))
    ]
    block_rows = max(run.num_rows for run in resident)
    return RunMerger(generator, block_rows).merge(resident), stats


def sort_spilling(
    table: Table, spec, config=None, spill_directory: str | None = None
) -> Table:
    """One-shot ``ExternalSortOperator`` sort into a chosen directory.

    ``sort_table(..., SortConfig(external=True))`` is the public way to
    a sort that may spill; a test that wants its files under
    ``tmp_path`` builds the operator, here.
    """
    if isinstance(spec, str):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
    config = config or SortConfig()
    with ExternalSortOperator(
        table.schema, spec, config, spill_directory
    ) as operator:
        for chunk in chunk_table(table, config.vector_size):
            operator.sink(chunk)
        return operator.finalize()


def round_ids(order, spans):
    """``(run_ids, row_ids)`` per emitted row of one kernel round.

    ``kway_merge_blocks`` reports a round as one ``(run, lo, hi)`` span
    per contributing run plus the permutation over their concatenation.
    """
    run_ids = np.repeat(
        [run for run, _, _ in spans], [hi - lo for _, lo, hi in spans]
    )
    row_ids = np.concatenate([np.arange(lo, hi) for _, lo, hi in spans])
    return run_ids[order], row_ids[order]


def merge_run_indices(runs, block_rows: int = 4096):
    """``(run_ids, row_ids)`` of one k-way merge of sorted key matrices.

    Drives ``kernels.kway_merge_blocks`` directly: every non-empty run
    streams in ``block_rows`` blocks, each read as word columns, and the
    kernel's ids (which number its sources) are mapped back to positions
    in ``runs``.
    """

    def blocks(run):
        for start in range(0, len(run), block_rows):
            yield _chunk_columns(run[start : start + block_rows])

    alive = np.flatnonzero([len(run) for run in runs])
    sources = [blocks(runs[index]) for index in alive]
    rounds = [round_ids(*item) for item in kway_merge_blocks(sources)]
    if not rounds:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    run_ids, row_ids = (np.concatenate(parts) for parts in zip(*rounds))
    return alive[run_ids], row_ids


@pytest.fixture(autouse=True, scope="session")
def no_resource_leaks():
    """Session guard: tests must not leak spill dirs or threads.

    Any ``repro-spill-*`` directory under the system temp root created
    during the run and still present at teardown is a cleanup bug in an
    operator (or a test that bypassed ``tmp_path``), so the whole
    session fails.  The same goes for background threads: every
    ``repro-service-*`` worker or deadline timer and every
    ``spill-prefetch-*`` pool thread must have been joined by the
    service/operator that started it.
    """
    import glob
    import tempfile
    import threading

    spill_pattern = os.path.join(tempfile.gettempdir(), "repro-spill-*")
    before = set(glob.glob(spill_pattern))
    yield
    leaked = sorted(set(glob.glob(spill_pattern)) - before)
    assert not leaked, f"tests leaked spill directories: {leaked}"
    leaked_threads = sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("repro-service", "spill-prefetch"))
    )
    assert not leaked_threads, (
        f"tests leaked background threads: {leaked_threads}"
    )
