"""A resident run's keys are uint64 words; key bytes are the spill format.

``key_words`` and ``normalize_keys`` are the two sinks of one key
encoder: the words must equal the byte matrix read as big-endian words
(``kernels._chunk_columns``) for every segment shape, and the bytes must
equal the scalar reference encoder's.  A resident sort then sorts the
words and ends in one ``Table.take``: no key bytes, no conversion to
words and no key decode (call counts pinned here), while a spilled sort
still writes, reads and decodes key bytes.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.keys.compression import KeyStatsAccumulator
from repro.keys.normalizer import (
    MODE_FOLDED,
    MODE_NOBYTE,
    build_layout,
    key_words,
    normalize_keys,
    normalized_key_for_row,
)
from repro.sort import kernels, merger, rungen
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig, SortOperator
from repro.table.chunk import chunk_table
from repro.table.column import ColumnVector
from repro.table.table import Table
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


COUNTED = {
    "decode_key_table": [merger],
    "_MatrixWords": [kernels],
    "_chunk_columns": [kernels, merger],
    "words_to_bytes": [merger, rungen],
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

    def test_spilled_sort_still_decodes(self, key_calls, tmp_path):
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
        # Three files without payload and the resident tail: the tail's
        # key rows are made once, every block read becomes words once.
        assert stats.key_carried_runs == 3 and stats.runs_generated == 4
        assert calls == {
            "decode_key_table": 1, "words_to_bytes": 4, "_chunk_columns": 4
        }
