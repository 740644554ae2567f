"""What a resident sort holds: each array only while something reads it.

A fixed-width ORDER BY without a truncated VARCHAR prefix keeps at most
three arrays of 8 bytes per row alive at once: the key words the sort
reads while it sorts, then the order and the result columns while the
result is gathered (the key words are dropped first).  The statistics
pass holds no array as long as the table, a key word is packed when the
sort first reads it, and the first pass sorts word 0 in place: where it
decides every row, the run sort holds one array, which becomes the
order.  A column
without NULLs holds no mask bytes at all: its validity is the read-only
zero-stride view ``np.broadcast_to(True, (n,))``, and every gather,
slice, join or selection of it keeps that view.  A Top-N of the same
table holds one: the lead key words it cuts on.
"""

import numpy as np
import pytest

from conftest import peak_bytes
from repro.engine.database import Database
from repro.sort.operator import SortConfig, SortStats
from repro.sort.rungen import RunGenerator
from repro.table.chunk import DataChunk
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import BIGINT
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

ROWS = 250_000
MIB = 1 << 20


def zero_byte(mask: np.ndarray) -> bool:
    """Is ``mask`` a view that holds no byte per row?"""
    return mask.strides == (0,) and not mask.flags.writeable


def database(name: str, rows: int, seed: int = 7) -> Database:
    db = Database()
    db.register("t", SCENARIOS[name].table(rows, seed=seed))
    return db


@pytest.mark.parametrize("name", ["uniform", "near_sorted", "zipf_skew"])
def test_execute_holds_three_arrays_per_row(name):
    # The table is registered, and a first run made every cache the
    # engine keeps, before the count starts: what is counted is the
    # query's own working set.
    db, sql = database(name, ROWS), SCENARIOS[name].sql()
    want = db.execute(sql)
    peak, got = peak_bytes(lambda: db.execute(sql))
    assert got.equals(want)
    bound = 3 * 8 * ROWS + MIB // 2
    assert peak <= bound, (
        f"{name}: one execute held {peak / MIB:.2f} MiB at its peak, "
        f"more than three 8-byte arrays per row ({bound / MIB:.2f} MiB)"
    )


def test_run_sort_holds_one_array_per_row():
    # The lone resident run of ``uniform`` (encode, then sort): its
    # first pass decides every row, so word 0 is the one key word packed,
    # and it is sorted in place into the run's positions.
    table = SCENARIOS["uniform"].table(ROWS, seed=7)
    spec = SortSpec.of("a", "p")
    stats = SortStats()
    generator = RunGenerator(table.schema, spec, SortConfig(), stats, lambda: None)
    chunks = [DataChunk.from_table(table)]
    peak, run = peak_bytes(
        lambda: generator.sort_run(*generator.encode(chunks), consume=True)
    )
    assert (stats.sort_passes, stats.sort_tied_rows) == (1, 0)
    assert np.array_equal(np.sort(run.positions), np.arange(ROWS))
    bound = 8 * ROWS + MIB // 2
    assert peak <= bound, (
        f"the run sort held {peak / MIB:.2f} MiB at its peak, more than "
        f"one 8-byte array per row ({bound / MIB:.2f} MiB)"
    )


def test_top_n_holds_one_array_per_row():
    # Top-N over the scanned table, one batch: its lead words are the one
    # array as long as the table; the cut reads a sample of them and
    # partitions only the few hundred rows under the sample's cut.
    db = database("uniform", ROWS)
    sql = "SELECT * FROM t ORDER BY a, p LIMIT 100 OFFSET 7"
    want = db.execute(sql)
    peak, got = peak_bytes(lambda: db.execute(sql))
    assert got.equals(want) and got.num_rows == 100
    bound = 8 * ROWS + MIB // 2
    assert peak <= bound, (
        f"Top-N held {peak / MIB:.2f} MiB at its peak, more than one "
        f"8-byte array per row ({bound / MIB:.2f} MiB)"
    )


class TestZeroByteMasks:
    @pytest.fixture
    def column(self, rng):
        return ColumnVector.from_numpy(rng.integers(-50, 50, 1000))

    def test_a_sorted_result_holds_no_mask_bytes(self):
        db = database("uniform", 5000)
        result = db.execute(SCENARIOS["uniform"].sql())
        for column in result.columns:
            assert zero_byte(column.validity) and not column.has_nulls

    def test_take_slice_and_concat_keep_the_view(self, column, rng):
        derived = [
            column.take(rng.permutation(len(column))),
            column.take(column.data > 0),
            column.slice(10, 500),
            column.concat(column.slice(0, 3), column),
        ]
        for part in derived:
            assert zero_byte(part.validity)
            assert part.validity.all() and len(part.validity) == len(part)

    def test_a_where_selection_keeps_the_view(self):
        db = database("uniform", 5000)
        for sql in (
            "SELECT * FROM t WHERE a > 0",
            "SELECT * FROM t WHERE a > 0 ORDER BY a, p",
            "SELECT * FROM t WHERE a > 0 LIMIT 5",
        ):
            result = db.execute(sql)
            assert result.num_rows > 0
            for column in result.columns:
                assert zero_byte(column.validity), sql

    def test_an_all_true_mask_given_becomes_the_view(self, rng):
        data = rng.integers(0, 9, 100)
        column = ColumnVector(BIGINT, data, np.ones(100, dtype=bool))
        assert zero_byte(column.validity)
        # A mask with a NULL is kept as it is, and so are its gathers.
        mask = np.arange(100) % 7 != 0
        nulls = ColumnVector(BIGINT, data, mask)
        assert nulls.validity is mask and nulls.has_nulls
        assert nulls.take(np.arange(0, 100, 7)).null_count == 15
        assert zero_byte(nulls.take(np.arange(1, 7)).validity)
        # A zero-stride False is a mask of its own, with every row NULL.
        none = ColumnVector(BIGINT, data, np.broadcast_to(np.False_, (100,)))
        assert none.has_nulls and none.null_count == 100
        assert none.validity.strides == (1,)

    def test_writing_into_the_mask_raises(self, column):
        with pytest.raises(ValueError):
            column.validity[0] = False
        with pytest.raises(ValueError):
            column.validity[:] = True
        assert not column.has_nulls

    def test_has_nulls_reads_no_mask_element(self, column):
        class Unread(np.ndarray):
            """A mask whose elements must not be read."""

            def _scan(self, *args, **kwargs):
                raise AssertionError("has_nulls scanned the mask")

            all = any = sum = __getitem__ = __iter__ = __array__ = _scan

        masked = ColumnVector(
            BIGINT, column.data, np.arange(len(column)) % 3 != 0
        )
        for vector, nulls in ((column, False), (masked, True)):
            vector.validity = vector.validity.view(Unread)
            assert vector.has_nulls is nulls
        assert column.null_count == 0

    def test_tables_with_and_without_masks_compare_by_value(self, column):
        same = ColumnVector(BIGINT, column.data.copy(), np.ones(1000, bool))
        assert column.equals(same)
        other = ColumnVector(BIGINT, column.data, np.arange(1000) != 3)
        assert not column.equals(other) and not other.equals(column)
        table = Table.from_pydict({"a": [1, None, 3]})
        assert table.column("a").has_nulls
        taken = table.take(np.array([2, 0])).column("a")
        assert zero_byte(taken.validity)
