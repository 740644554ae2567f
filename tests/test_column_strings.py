"""A VARCHAR column is encoded to UTF-8 once in its life.

``ColumnVector.strings`` makes the column's form (one heap, a (start,
length) slot per row) on first request and keeps it; a gather, slice or
concatenation of encoded columns derives its slots from theirs.  So a
query repeated over a registered table makes no codec call, whatever
path sorts it, and each derived form must read exactly as a fresh
encoding of its own values would.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.engine.database import Database
from repro.errors import KeyEncodingError
from repro.service.core import SortService
from repro.sort.operator import SortConfig
from repro.table import strings
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import VARCHAR
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

# NULs and 2/3/4-byte code points, densely.
ALPHABET = "a\x00é日😀"


@pytest.fixture
def codec_calls(monkeypatch):
    """The row count of every codec call, wherever it is bound."""
    real, calls = strings.encode_utf8_column, []

    def counting(values, validity=None, column=""):
        calls.append(len(values))
        return real(values, validity, column)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and (
            getattr(module, "encode_utf8_column", None) is real
        ):
            monkeypatch.setattr(module, "encode_utf8_column", counting)
    return calls


def scenario_database(name: str, rows: int = 3000, config=None):
    table = SCENARIOS[name].table(rows, seed=17)
    database = Database(config)
    database.register("t", table)
    return database, table


def spec_of(order_by: str) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in order_by.split(",")])


class TestNoSecondEncoding:
    """The first query encodes each VARCHAR key column once; the same
    query again, or a filtered one, makes no codec call."""

    @pytest.mark.parametrize(
        "name, limit, columns",
        [("long_string", None, 1), ("tpcds_customer", None, 2),
         ("long_string", 10, 1)],
    )
    def test_a_repeated_query_makes_no_codec_call(
        self, codec_calls, name, limit, columns
    ):
        database, table = scenario_database(name)
        scenario = SCENARIOS[name]
        want = oracle_sort(table, spec_of(scenario.order_by))
        if limit is not None:
            want = want.slice(0, limit)
        sql = scenario.sql(limit)
        assert_byte_identical(want, database.execute(sql))
        assert codec_calls == [table.num_rows] * columns
        codec_calls.clear()
        assert_byte_identical(want, database.execute(sql))
        assert codec_calls == []

    @pytest.mark.parametrize("external", [False, True])
    def test_a_filtered_sort_after_an_unfiltered_one(
        self, codec_calls, external
    ):
        config = SortConfig(external=external, run_threshold=1024)
        database, table = scenario_database("long_string")
        database.execute("SELECT * FROM t ORDER BY s, p")
        cut = int(np.median(table.column("p").data))
        codec_calls.clear()
        sql = f"SELECT * FROM t WHERE p > {cut} ORDER BY s, p"
        passing = table.take(np.flatnonzero(table.column("p").data > cut))
        want = oracle_sort(passing, spec_of("s, p"))
        # Spilled, each run reads its slots of the table's heap.
        filtered = Database(config)
        filtered.register("t", table)
        assert_byte_identical(want, filtered.execute(sql))
        assert codec_calls == []

    def test_through_the_service(self, codec_calls):
        database, table = scenario_database("tpcds_customer")
        sql = SCENARIOS["tpcds_customer"].sql()
        cut = int(table.column("c_customer_sk").data[table.num_rows // 2])
        where = f" WHERE c_customer_sk > {cut} ORDER BY"
        filtered = sql.replace(" ORDER BY", where)
        with SortService(database, memory_budget=64 << 20, workers=2) as service:
            service.execute(sql, timeout=30)
            assert codec_calls == [table.num_rows] * 2
            codec_calls.clear()
            result = service.execute(filtered, timeout=30)
            assert codec_calls == []
        assert_byte_identical(database.execute(filtered), result)


class TestEncodingLifetime:
    def test_a_slice_of_an_unencoded_column_encodes_only_itself(
        self, codec_calls
    ):
        values = [f"v{i}" for i in range(100)]
        column = ColumnVector.from_values(values, VARCHAR)
        part = column.slice(10, 30)
        part.strings()
        assert codec_calls == [20]
        assert column.take(np.arange(5)).strings() is not None
        assert codec_calls == [20, 5]
        column.strings()
        column.slice(10, 30).strings()
        column.take(np.array([3, 3, 1])).strings()
        assert codec_calls == [20, 5, 100]

    def test_a_lone_surrogate_raises_on_every_request(self):
        column = ColumnVector.from_values(["a", "b\ud800", None], VARCHAR)
        for _ in range(2):
            with pytest.raises(KeyEncodingError, match=r"'s' row 1"):
                column.strings("s")

    def test_a_gather_outliving_its_source_encodes_itself(self, codec_calls):
        column = ColumnVector.from_values(["x", "yy", None, "zzz"], VARCHAR)
        column.strings()
        taken = column.take(np.array([3, 0]))
        del column
        assert taken.strings().lengths.tolist() == [3, 1]
        assert taken.strings() is taken.strings()
        assert codec_calls == [4, 2]


# ---------------------------------------------------------------------- #
# Derived forms read as fresh encodings of their values
# ---------------------------------------------------------------------- #


@st.composite
def string_columns(draw):
    """Values around one stem: NULLs, empty strings, values shorter than,
    equal to, sharing and diverging inside the stem."""
    stem = draw(st.text(alphabet=ALPHABET, min_size=0, max_size=12))
    tails = st.text(alphabet=ALPHABET, max_size=10)
    cut = st.integers(0, len(stem))
    value = st.one_of(
        st.none(),
        st.just(""),
        cut.map(lambda k: stem[:k]),
        tails.map(lambda tail: stem + tail),
        st.tuples(cut, st.sampled_from(ALPHABET), tails).map(
            lambda t: stem[: t[0]] + t[1] + t[2]
        ),
    )
    values = draw(st.lists(value, min_size=1, max_size=30))
    return ColumnVector.from_values(values, VARCHAR), stem.encode()


@settings(max_examples=80, deadline=None)
@given(string_columns(), st.integers(0, 29))
def test_the_lead_word_never_falls_as_the_value_rises(drawn, cut):
    # Top-N cuts a VARCHAR lead on this word: the 8 bytes after the
    # valid values' common prefix, zero past each value's end.
    column, _ = drawn
    part = column.slice(cut, len(column)) if cut < len(column) else column
    words = part.strings().lead_word()
    values = part.to_pylist()
    valid = [i for i, value in enumerate(values) if value is not None]
    ranked = sorted(valid, key=lambda i: values[i])
    assert all(words[a] <= words[b] for a, b in zip(ranked, ranked[1:]))
    assert all(words[i] == 0 for i, value in enumerate(values) if value is None)


def assert_reads_as_fresh(column: ColumnVector, stem: bytes) -> None:
    form = column.strings()
    fresh = ColumnVector(column.dtype, column.data, column.validity).strings()
    assert form.lengths.tolist() == fresh.lengths.tolist()
    assert form.valid.tolist() == fresh.valid.tolist()
    assert form.packed().tobytes() == fresh.buffer.tobytes()
    for start, length, want in zip(
        form.starts.tolist(), form.lengths.tolist(), column.to_pylist()
    ):
        got = form.buffer[start : start + length].tobytes()
        assert got == (want or "").encode()
    assert form.nul_tail() == fresh.nul_tail()
    valid = form.valid
    if valid.any():
        assert form.prefix() == fresh.prefix()
    for skipped in {stem, stem[:3], b"a", b"\x00", b"zz"}:
        mine, theirs = form.classes(skipped), fresh.classes(skipped)
        mine = np.zeros(len(valid), np.int8) if mine is None else mine
        theirs = np.zeros(len(valid), np.int8) if theirs is None else theirs
        assert mine[valid].tolist() == theirs[valid].tolist()


class TestDerivedForms:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), case=string_columns())
    def test_take_slice_and_concat(self, data, case):
        column, stem = case
        n = len(column)
        parent = column.strings()
        ids = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=40)))
        taken = column.take(ids.astype(np.int64))
        assert_reads_as_fresh(taken, stem)
        assert taken.strings().buffer is parent.buffer
        lo = data.draw(st.integers(0, n))
        hi = data.draw(st.integers(lo, n))
        sliced = column.slice(lo, hi)
        assert_reads_as_fresh(sliced, stem)
        # Parts over one heap join their slots; parts over two heaps
        # join their own bytes.
        shared = column.slice(lo, hi).concat(column.take(ids.astype(np.int64)))
        assert_reads_as_fresh(shared, stem)
        assert shared.strings().buffer is parent.buffer
        other = ColumnVector(column.dtype, column.data, column.validity)
        other.strings()
        mixed = taken.concat(other.slice(lo, hi), column)
        assert_reads_as_fresh(mixed, stem)
        # A gather of a gather (of a mask's), and a slice of a gather.
        again = taken.take(np.arange(len(taken))[::-1])
        assert_reads_as_fresh(again, stem)
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        masked = column.take(mask)
        assert_reads_as_fresh(masked.take(np.arange(len(masked))[::-1]), stem)
        assert_reads_as_fresh(column.take(ids.astype(np.int64)).slice(0, 2), stem)


class TestConcurrentReaders:
    ROUNDS = 20

    def test_two_sorts_share_one_encoding(self):
        # One skips the shared stem, one (a forced 4-byte window) skips
        # nothing: both encode and read the same column at once.  Each
        # round's table is fresh, so every round races its first encode.
        source = SCENARIOS["long_string"].table(4000, seed=17)
        want = oracle_sort(source, spec_of("s, p"))
        databases = [Database(SortConfig()), Database(SortConfig(string_prefix=4))]
        for number in range(self.ROUNDS):
            columns = [
                ColumnVector(c.dtype, c.data, c.validity) for c in source.columns
            ]
            table = Table(source.schema, columns)
            for database in databases:
                database.register(f"t{number}", table)
        clients = [0, 1, 0, 1]  # more threads than cores, two per database
        barrier = threading.Barrier(len(clients))
        results, errors = [[] for _ in clients], []

        def client(index: int) -> None:
            try:
                for number in range(self.ROUNDS):
                    barrier.wait(timeout=60)
                    sql = f"SELECT * FROM t{number} ORDER BY s, p"
                    results[index].append(databases[clients[index]].execute(sql))
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(clients))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [len(each) for each in results] == [self.ROUNDS] * len(clients)
        for result in (result for each in results for result in each):
            assert_byte_identical(want, result)


def test_a_table_of_encoded_columns_sorts_like_a_fresh_one():
    # The spill payload writes each run's own slots: a warm table's
    # spilled sort writes what a cold one's does.
    values = ["", None, "a\x00", "a", "日本", "😀x", "a\x00\x00"] * 300
    table = Table.from_pydict({"s": values, "k": list(range(len(values)))})
    config = SortConfig(external=True, run_threshold=1024)
    cold = Database(config)
    cold.register("t", table)
    first = cold.execute("SELECT * FROM t WHERE k > 100 ORDER BY s, k")
    table.column("s").strings()
    second = cold.execute("SELECT * FROM t WHERE k > 100 ORDER BY s, k")
    passing = table.take(np.arange(101, len(values)))
    assert_byte_identical(oracle_sort(passing, spec_of("s, k")), first)
    assert_byte_identical(first, second)
