"""A run's keys are uint64 words, and the merger hands them on as words.

``key_words`` and ``normalize_keys`` are the two sinks of one key
encoder: the words must equal the byte matrix read as big-endian words
(``kernels._chunk_columns``) for every segment shape, and the bytes must
equal the scalar reference encoder's.  ``segment_codes`` reads a
fixed-width segment back from the words, and must agree with the scalar
paper-face decoder (``scalar.decoder.decode_segment``) on the bytes.  A
resident sort then sorts the words and ends in one ``Table.take``: no
key bytes, no conversion to words and no key decode (call counts pinned
here).  ``key_words`` packs each word on first read: words read in any
order, for any rows, and sorted by ``argsort_words`` (owning word 0 or
not) equal the words packed at once.  A spilled sort writes and reads
key words too, converts none,
and decodes a key-carried result from native word columns; the string
repair finds its tie groups on words.
"""

from __future__ import annotations

import collections
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.keys import compression, normalizer
from repro.keys.compression import KeyStatsAccumulator, segment_codes
from repro.keys.encoding import fixed_column_codes
from repro.keys.normalizer import (
    MODE_FOLDED,
    MODE_NOBYTE,
    MODE_PLAIN,
    _key_fields,
    build_layout,
    key_words,
    normalize_keys,
    pack_fields,
)
from repro.scalar.decoder import decode_segment
from repro.scalar.encoder import normalized_key_for_row
from repro.sort import kernels, merger
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig, SortOperator, SortStats
from repro.table.chunk import DataChunk, chunk_table
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types import datatypes
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def spec_of(text: str) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in text.split(",")])


def stats_layout(tables, spec, string_prefix=None):
    """The statistics layout after ``tables``, and the last one's codes."""
    acc = KeyStatsAccumulator(tables[0].schema, spec, string_prefix)
    for table in tables:
        encoded = acc.update(table)
    return acc.build_layout(True, 8), encoded


def assert_words_are_the_bytes(table, spec, layout, encoded=None):
    words = key_words(table, layout, encoded)
    matrix = normalize_keys(table, spec, layout=layout, encoded=encoded).matrix
    key = matrix[:, : layout.key_width]
    expected = kernels._chunk_columns(key)
    assert len(words) == len(expected) == -(-layout.key_width // 8)
    for got, want in zip(words, expected):
        assert got.dtype == np.uint64 and got.shape == (table.num_rows,)
        assert np.array_equal(got, want)
    values = [table.column(k.column).to_pylist() for k in spec.keys]
    for index, row in enumerate(zip(*values)):
        want = normalized_key_for_row(row, spec, layout)
        assert key[index].tobytes() == want


def with_nulls(table: Table, name: str, every: int) -> Table:
    """``table`` with every ``every``-th value of ``name`` NULL (never the
    first two rows, which hold the extremes)."""
    columns = list(table.columns)
    index = table.schema.names.index(name)
    old = columns[index]
    valid = np.arange(table.num_rows) % every != every - 1
    columns[index] = ColumnVector(old.dtype, old.data, valid)
    return Table(table.schema, columns)


def spanning(rng, rows, count):
    """int64 values whose codes span exactly ``count`` values (the first
    two rows hold the extremes)."""
    lo = INT64_MIN if count > 2**62 else -12_345
    values = rng.integers(lo, lo + count - 1, rows, endpoint=True)
    values[:2] = lo, lo + count - 1
    return values.tolist()


def full_range(rng, rows, dtype):
    """Values of ``dtype`` spanning its whole range (uint8 is BOOLEAN)."""
    info = np.iinfo(dtype)
    lo, hi = (0, 1) if dtype == np.uint8 else (info.min, info.max)
    values = rng.integers(lo, hi, rows, endpoint=True, dtype=dtype)
    values[:2] = lo, hi
    return values


def assert_codes_are_the_scalar_decode(table, spec, layout, encoded=None):
    """``segment_codes`` over the words equals ``decode_segment`` over the
    bytes, row by row, for every fixed-width segment."""
    words = key_words(table, layout, encoded)
    key = normalize_keys(table, spec, layout=layout, encoded=encoded).matrix
    for segment in layout.segments:
        # The decoder consumes its words: hand it copies.
        codes, nulls = segment_codes([w.copy() for w in words], segment)
        assert codes.dtype == np.uint64 and len(codes) == table.num_rows
        dtype = np.dtype(segment.dtype.numpy_dtype)
        raw = key[:, segment.offset : segment.offset + segment.total_width]
        for row in range(table.num_rows):
            value = decode_segment(raw[row].tobytes(), segment)
            assert nulls[row] == (value is None)
            want = 0 if value is None else fixed_column_codes(
                np.array([value], dtype=dtype), segment.dtype
            )[0]
            assert codes[row] == want, (segment, row)


def ints(rng, rows, width, base=-12_345):
    """int64 values needing exactly ``width`` (1-8) bytes of code range:
    the extremes of the range are the first two rows."""
    if width == 8:
        lo, hi = INT64_MIN, INT64_MAX
    else:
        lo, hi = base, base + 2 ** (8 * width) - 1
    values = rng.integers(lo, hi, rows, endpoint=True)
    values[:2] = lo, hi
    return values.tolist()


class TestWordEncoderIsTheByteEncoder:
    @pytest.mark.parametrize("text", ["a, b", "b DESC, a DESC", "b, a DESC"])
    def test_nobyte_with_and_without_bias(self, rng, text):
        table = Table.from_pydict(
            {"a": ints(rng, 400, 8), "b": ints(rng, 400, 2)}
        )
        spec = spec_of(text)
        layout, encoded = stats_layout([table], spec)
        by_name = {s.key.column: s for s in layout.segments}
        assert by_name["a"].mode == by_name["b"].mode == MODE_NOBYTE
        assert by_name["a"].bias == 0 and by_name["b"].bias != 0
        assert_words_are_the_bytes(table, spec, layout, encoded)

    @pytest.mark.parametrize("nulls", ["NULLS FIRST", "NULLS LAST"])
    @pytest.mark.parametrize("direction", ["", "DESC"])
    def test_folded_nulls(self, rng, nulls, direction):
        table = Table.from_pydict(
            {"b": ints(rng, 400, 3), "a": ints(rng, 400, 8)}
        )
        table = with_nulls(table, "b", 7)
        spec = spec_of(f"b {direction} {nulls}, a")
        layout, encoded = stats_layout([table], spec)
        assert layout.segments[0].mode == MODE_FOLDED
        assert_words_are_the_bytes(table, spec, layout, encoded)

    @pytest.mark.parametrize("nulls", ["NULLS FIRST", "NULLS LAST"])
    @pytest.mark.parametrize("direction", ["", "DESC"])
    def test_plain_nine_byte_segments_with_nulls(self, rng, nulls, direction):
        # A full-range column with NULLs has no spare code: plain.
        table = Table.from_pydict(
            {"a": ints(rng, 400, 8), "b": ints(rng, 400, 8)}
        )
        table = with_nulls(with_nulls(table, "a", 5), "b", 3)
        spec = spec_of(f"a {direction} {nulls}, b {nulls}")
        layout, encoded = stats_layout([table], spec)
        assert [s.total_width for s in layout.segments] == [9, 9]
        assert all(s.has_null_byte for s in layout.segments)
        assert_words_are_the_bytes(table, spec, layout, encoded)

    @pytest.mark.parametrize("direction", ["", "DESC"])
    @pytest.mark.parametrize("width", range(1, 10))
    def test_segments_straddle_word_boundaries(self, rng, width, direction):
        # A leading segment of 1-8 bytes puts the second at every byte
        # offset of a word; 9 is a plain segment (NULL byte + 8).
        for lead in range(1, 9):
            table = Table.from_pydict(
                {
                    "a": ints(rng, 60, lead),
                    "b": ints(rng, 60, min(width, 8)),
                }
            )
            if width == 9:
                table = with_nulls(table, "b", 4)
            spec = spec_of(f"a, b {direction}")
            layout, encoded = stats_layout([table], spec)
            second = layout.segments[1]
            assert (second.offset, second.total_width) == (lead, width)
            assert_words_are_the_bytes(table, spec, layout, encoded)

    @pytest.mark.parametrize("text", ["s, k", "s DESC NULLS FIRST, k DESC"])
    def test_varchar_with_skipped_and_escaped_stems(self, rng, text):
        def strings(count, stem):
            tails = rng.integers(0, 1 << 40, count)
            return [f"{stem}{t:x}" for t in tails]

        first = Table.from_pydict(
            {"s": strings(200, "shared-stem-"), "k": ints(rng, 200, 1)}
        )
        escaped = ["a", "", "shared", "shared-stem", "zz", "shared-stem-\0"]
        later = strings(60, "shared-stem-") + escaped * 10
        second = Table.from_pydict(
            {"s": later, "k": ints(rng, len(later), 1)}
        )
        second = with_nulls(second, "s", 9)
        spec = spec_of(text)
        layout, encoded = stats_layout([first, second], spec)
        assert layout.segments[0].skipped == b"shared-stem-"
        assert_words_are_the_bytes(second, spec, layout, encoded)
        # The same rows under a forced prefix (nothing skipped), and
        # without the statistics pass's encodings.
        forced, _ = stats_layout([first, second], spec, string_prefix=5)
        assert forced.segments[0].skipped == b""
        assert_words_are_the_bytes(second, spec, forced)
        assert_words_are_the_bytes(second, spec, layout)

    @pytest.mark.parametrize("rows", [0, 1, 300])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_catalog_under_both_layouts(self, name, rows):
        scenario = SCENARIOS[name]
        table = scenario.table(rows, seed=5)
        spec = spec_of(scenario.order_by)
        layout, encoded = stats_layout([table], spec)
        assert_words_are_the_bytes(table, spec, layout, encoded)
        assert_words_are_the_bytes(table, spec, build_layout(table, spec))


class TestWordDecoderIsTheScalarDecoder:
    @pytest.mark.parametrize("nulls", ["NULLS FIRST", "NULLS LAST"])
    @pytest.mark.parametrize("direction", ["", "DESC"])
    @pytest.mark.parametrize("width", range(1, 9))
    def test_compressed_segments_at_every_offset(
        self, rng, width, direction, nulls
    ):
        # A lead of 1-8 bytes puts the second segment at every byte
        # offset of a word, so a 2-8 byte one straddles two words.
        for lead in range(1, 9):
            for mode in (MODE_NOBYTE, MODE_FOLDED):
                # A folded segment keeps a spare code for NULL.
                count = 2 ** (8 * width) - (mode == MODE_FOLDED)
                table = Table.from_pydict(
                    {"a": ints(rng, 48, lead), "b": spanning(rng, 48, count)}
                )
                if mode == MODE_FOLDED:
                    table = with_nulls(table, "b", 5)
                spec = spec_of(f"a {direction}, b {direction} {nulls}")
                layout, encoded = stats_layout([table], spec)
                second = layout.segments[1]
                assert (second.mode, second.offset) == (mode, lead)
                assert second.value_width == width
                assert_codes_are_the_scalar_decode(table, spec, layout, encoded)

    @pytest.mark.parametrize("nulls", ["NULLS FIRST", "NULLS LAST"])
    @pytest.mark.parametrize("direction", ["", "DESC"])
    @pytest.mark.parametrize("lead", [np.uint8, np.int16, np.int32, np.int64])
    def test_plain_segments(self, rng, lead, direction, nulls):
        # Plain: a NULL byte, then the type's full width (1, 2, 4, 8).
        for dtype in (np.uint8, np.int16, np.int32, np.int64):
            table = Table.from_numpy(
                {"a": full_range(rng, 48, lead), "b": full_range(rng, 48, dtype)}
            )
            table = with_nulls(with_nulls(table, "a", 3), "b", 4)
            spec = spec_of(f"a {direction} {nulls}, b {direction} {nulls}")
            layout = build_layout(table, spec, include_row_id=False)
            assert [s.mode for s in layout.segments] == [MODE_PLAIN] * 2
            assert_codes_are_the_scalar_decode(table, spec, layout)
        # The statistics layout's one plain case: full range with NULLs.
        table = with_nulls(
            Table.from_pydict({"b": ints(rng, 48, 8), "a": ints(rng, 48, 3)}),
            "b", 6,
        )
        spec = spec_of(f"a {direction}, b {direction} {nulls}")
        layout, encoded = stats_layout([table], spec)
        assert layout.segments[1].total_width == 9
        assert_codes_are_the_scalar_decode(table, spec, layout, encoded)


# ---------------------------------------------------------------------- #
# Words packed on first read are the words packed at once
# ---------------------------------------------------------------------- #

FIXED_TYPES = ["BIGINT", "INTEGER", "SMALLINT", "BOOLEAN", "DATE", "DOUBLE", "FLOAT"]
FLOAT_EDGES = [np.nan, -0.0, 0.0, np.inf, -np.inf]


@st.composite
def fixed_values(draw, rows: int):
    """A fixed-width column's type and values: integers over a range of
    any width (the type's extremes, now and then), floats with NaN, -0.0
    and the infinities."""
    name = draw(st.sampled_from(FIXED_TYPES))
    dtype = getattr(datatypes, name)
    if dtype.is_float:
        width = 8 * dtype.fixed_width
        value = st.one_of(
            st.floats(width=width), st.sampled_from(FLOAT_EDGES)
        )
    else:
        info = np.iinfo(dtype.numpy_dtype)
        bits = draw(st.integers(0, 8 * dtype.fixed_width))
        lo = draw(st.integers(int(info.min), int(info.max)))
        value = st.integers(lo, min(int(info.max), lo + 2**bits - 1))
        if draw(st.booleans()):
            value = st.one_of(value, st.sampled_from([info.min, info.max]))
        value = value.map(int)
    return dtype, draw(st.lists(value, min_size=rows, max_size=rows))


@st.composite
def string_values(draw, rows: int):
    """VARCHAR values around one stem: sharing it (a skipped stem), and
    not (escaped rows), short and long enough to straddle words."""
    alphabet = "ab\x00\xe9"
    stem = draw(st.text(alphabet=alphabet, max_size=14))
    tail = st.text(alphabet=alphabet, max_size=20)
    value = st.one_of(
        tail.map(lambda text: stem + text),
        tail,
        st.integers(0, len(stem)).map(lambda cut: stem[:cut]),
    )
    return datatypes.VARCHAR, draw(st.lists(value, min_size=rows, max_size=rows))


@st.composite
def keyed_tables(draw):
    """A table, its ORDER BY (DESC, NULLS FIRST/LAST at random) and a key
    layout: the statistics layout after its first rows and then all of
    them (later rows may escape the skipped stem), with a forced string
    prefix or not, or the plain layout."""
    rows = draw(st.integers(1, 80))
    columns, dtypes, keys = {}, {}, []
    for index in range(draw(st.integers(1, 4))):
        kind = fixed_values(rows) | string_values(rows)
        dtype, values = draw(kind)
        if draw(st.booleans()):
            nulls = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            values = [None if null else v for v, null in zip(values, nulls)]
        name = f"c{index}"
        columns[name], dtypes[name] = values, dtype
        direction = draw(st.sampled_from(["", " DESC"]))
        nulls = draw(st.sampled_from(["", " NULLS FIRST", " NULLS LAST"]))
        keys.append(name + direction + nulls)
    table = Table.from_pydict(columns, dtypes)
    spec = SortSpec.of(*keys)
    how = draw(st.sampled_from(["statistics", "forced", "plain"]))
    if how == "plain":
        return table, spec, build_layout(table, spec, include_row_id=False)
    forced = draw(st.integers(1, 20)) if how == "forced" else None
    acc = KeyStatsAccumulator(table.schema, spec, forced)
    acc.update(table.slice(0, draw(st.integers(1, rows))))
    acc.update(table)
    return table, spec, acc.build_layout(include_row_id=False)


def eager_words(table, layout, rows=None):
    """Every word of ``rows`` (None: all) packed at once."""
    fields = _key_fields(table, layout.segments, None)
    words = pack_fields(fields, table.num_rows, layout.key_width)
    return words if rows is None else [word[rows] for word in words]


class TestWordsPackedOnFirstRead:
    @settings(max_examples=150, deadline=None)
    @given(case=keyed_tables(), data=st.data())
    def test_words_read_in_any_order_for_any_rows(self, case, data):
        table, _, layout = case
        n, eager = table.num_rows, eager_words(table, layout)
        lazy = key_words(table, layout)
        assert len(lazy) == len(eager) == -(-layout.key_width // 8)
        reads = st.tuples(
            st.integers(0, len(eager) - 1),
            st.none() | st.lists(st.integers(0, n - 1), max_size=n // 3 + 1),
        )
        for word, rows in data.draw(st.lists(reads, min_size=1, max_size=8)):
            if rows is None:
                got, want = lazy[word], eager[word]
            else:
                rows = np.array(rows, dtype=np.int64)
                got, want = lazy.take(word, rows), eager[word][rows]
            assert got.dtype == np.uint64 and np.array_equal(got, want)
        # A word a caller owns is packed anew when read again.
        owned = lazy.own(0)
        assert np.array_equal(owned, eager[0]) and lazy[0] is not owned
        assert np.array_equal(lazy[0], eager[0])

    @settings(max_examples=150, deadline=None)
    @given(case=keyed_tables(), finish=st.sampled_from([1, 3, 1024]))
    def test_the_sort_reads_them_as_it_reads_packed_words(self, case, finish):
        # A small lexsort finish sends tie sets through packed passes,
        # which read the tied rows' words alone.
        table, _, layout = case
        runs = []
        with mock.patch.object(kernels, "LEXSORT_FINISH_ROWS", finish):
            for words, consume in (
                (eager_words(table, layout), False),
                (key_words(table, layout), False),
                (key_words(table, layout), True),
            ):
                stats = SortStats()
                order = kernels.argsort_words(words, stats, consume)
                runs.append((order.tolist(), stats.sort_passes, stats.sort_tied_rows))
        assert runs[0] == runs[1] == runs[2]


COUNTED = {
    "decode_key_table": [merger],
    "_MatrixWords": [kernels],
    "_chunk_columns": [kernels],
    # The module that defines it, and its one caller: the byte rebase
    # (``rebase_matrix``).
    "words_to_bytes": [normalizer, compression],
}


@pytest.fixture
def key_calls(monkeypatch):
    """Calls of the key-byte boundary's functions, and of ``Table.take``."""
    calls = collections.Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for name, modules in COUNTED.items():
        for module in modules:
            original = getattr(module, name)
            monkeypatch.setattr(module, name, counting(name, original))
    monkeypatch.setattr(Table, "take", counting("take", Table.take))
    return calls


def scenario_case(name: str):
    scenario = SCENARIOS[name]
    return scenario.table(10_000, seed=17), spec_of(scenario.order_by)


class TestResidentPathByCallCounts:
    @pytest.mark.parametrize(
        "name", ["uniform", "near_sorted", "tpcds_customer"]
    )
    def test_resident_sort_is_one_take(self, key_calls, name):
        table, spec = scenario_case(name)
        operator = SortOperator(table.schema, spec)
        for chunk in chunk_table(table, 1024):
            operator.sink(chunk)
        result = operator.finalize()
        assert key_calls == {"take": 1}
        assert_byte_identical(oracle_sort(table, spec), result)
        assert operator.stats.prefix_exact
        assert operator.stats.key_carried_runs == 0

    def test_string_repair_finds_ties_on_words(self, key_calls):
        # The resident string sort's one repair pass reads the merged
        # words, and its tied rows' words: no key byte is made.
        table, spec = scenario_case("long_string")
        config = SortConfig(string_prefix=4)  # the window truncates
        operator = SortOperator(table.schema, spec, config)
        operator.sink(DataChunk.from_table(table))
        result = operator.finalize()
        assert key_calls == {"take": 1}
        assert_byte_identical(oracle_sort(table, spec), result)
        assert operator.stats.full_key_compares > 0

    def test_spilled_sort_still_decodes(
        self, key_calls, monkeypatch, tmp_path
    ):
        received = []
        counted = merger.decode_key_table

        def recording(words, layout, schema):
            received.extend(
                (w.dtype, w.ndim, w.flags.c_contiguous) for w in words
            )
            return counted(words, layout, schema)

        monkeypatch.setattr(merger, "decode_key_table", recording)
        table, spec = scenario_case("uniform")
        with ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=3000), str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, 1000):
                operator.sink(chunk)
            result = operator.finalize()
        calls = dict(key_calls)
        assert_byte_identical(oracle_sort(table, spec), result)
        stats = operator.stats
        # Three files without payload and the resident tail: every run
        # is written and read as words, nothing converts them, and the
        # result is decoded from the merged words' native columns.
        assert stats.key_carried_runs == 3 and stats.runs_generated == 4
        assert calls == {"decode_key_table": 1}
        assert received == [(np.dtype(np.uint64), 1, True)] * 2


class TestSpilledPathByCallCounts:
    """A spilling sort makes no key bytes either: a stale block is
    rebased on its word columns, and the string repair reads words."""

    @staticmethod
    def sort_spilled(table, spec, config, directory):
        with ExternalSortOperator(
            table.schema, spec, config, str(directory)
        ) as operator:
            for chunk in chunk_table(table, 1000):
                operator.sink(chunk)
            return operator.finalize(), operator.stats

    def test_stale_runs_are_rebased_in_words(self, key_calls, tmp_path):
        # ``a`` ascends: every file but the last was written under a
        # narrower layout.
        table, spec = scenario_case("near_sorted")
        result, stats = self.sort_spilled(
            table, spec, SortConfig(run_threshold=2000), tmp_path
        )
        assert_byte_identical(oracle_sort(table, spec), result)
        assert stats.key_layout_rebases > 0
        assert key_calls["words_to_bytes"] == key_calls["_chunk_columns"] == 0

    def test_spilled_string_repair_reads_words(self, key_calls, tmp_path):
        table, spec = scenario_case("long_string")
        config = SortConfig(run_threshold=3000, string_prefix=4)
        result, stats = self.sort_spilled(table, spec, config, tmp_path)
        assert_byte_identical(oracle_sort(table, spec), result)
        assert stats.full_key_compares > 0 and stats.runs_generated == 4
        assert key_calls["words_to_bytes"] == key_calls["_chunk_columns"] == 0
