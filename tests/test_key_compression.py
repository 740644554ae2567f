"""Property tests of the runtime key-compression layer.

The two invariants every compressed layout must preserve:

1. **Order**: memcmp over the compressed key matrix equals
   ``tuple_compare`` over the original values -- the same ground truth
   the plain normalized keys are held to -- for every type mix,
   direction, NULL placement, and all-NULL columns.
2. **Identity**: the sort pipelines, in memory and external, produce
   output byte-identical to the tuple-key oracle and to the scalar
   reference sort, which encodes plain (uncompressed) keys.

Plus the machinery around them: width/mode selection, progressive layout
widening with per-run rebasing, and key-carried (keys-only) external
runs.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from conftest import reference_sort, sort_resident_runs, sort_spilling
from repro.errors import KeyEncodingError
from repro.keys.compression import (
    KeyStatsAccumulator,
    decode_key_table,
    key_carried_eligible,
    plain_key_width,
    rebase_matrix,
    rebase_words,
)
from repro.keys.encoding import fixed_column_codes
from repro.keys.normalizer import (
    MODE_FOLDED,
    MODE_NOBYTE,
    MODE_PLAIN,
    build_layout,
    key_words,
    normalize_keys,
)
from repro.scalar.decoder import decode_key_row
from repro.scalar.encoder import normalized_key_for_row
from repro.scalar.reference import reference_sort as scalar_reference_sort
from repro.sort.external import ExternalSortOperator
from repro.sort.merger import RunMerger
from repro.sort.operator import SortConfig, SortOperator, SortStats, sort_table
from repro.sort.rungen import RunGenerator
from repro.table.chunk import DataChunk, chunk_table
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types import datatypes
from repro.types.datatypes import BIGINT, VARCHAR
from repro.types.sortspec import SortSpec, tuple_compare

SPECS = [
    "a",
    "a DESC NULLS FIRST, s",
    "s NULLS FIRST, f DESC",
    "f DESC, a NULLS LAST, s DESC NULLS FIRST",
]


def mixed_table(rng, n, all_null_column=False):
    """Mixed types, narrow ranges, NULLs; optionally an all-NULL key."""
    ints = rng.integers(0, 12, n)
    strings = rng.integers(0, 40, n)
    data = {
        "a": [
            None
            if all_null_column or v % 9 == 0
            else int(v)
            for v in ints
        ],
        "s": [None if v % 13 == 0 else f"key{v % 37:02d}" for v in strings],
        "f": [float(v) for v in rng.choice([-1.5, 0.0, 2.25, 7.5], n)],
        "seq": list(range(n)),
    }
    return Table.from_pydict(data)


def assert_byte_identical(left, right):
    """Stronger than Table.equals: exact data bytes and validity masks."""
    assert left.schema.names == right.schema.names
    for name in left.schema.names:
        col_l, col_r = left.column(name), right.column(name)
        assert (col_l.validity == col_r.validity).all(), name
        if col_l.data.dtype == object:
            assert list(col_l.data) == list(col_r.data), name
        else:
            assert col_l.data.tobytes() == col_r.data.tobytes(), name


def spec_of(text):
    return SortSpec.of(*[part.strip() for part in text.split(",")])


def key_tuples(table, spec):
    indices = [table.schema.index_of(name) for name in spec.column_names]
    return [
        tuple(table.row(i)[c] for c in indices)
        for i in range(table.num_rows)
    ]


class TestMemcmpEqualsTupleCompare:
    """Invariant 1, directly on the compressed key bytes."""

    @pytest.mark.parametrize("spec_text", SPECS)
    @pytest.mark.parametrize("all_null", [False, True])
    def test_randomized(self, rng, spec_text, all_null):
        spec = SortSpec.of(*[s.strip() for s in spec_text.split(",")])
        table = mixed_table(rng, 300, all_null_column=all_null)
        acc = KeyStatsAccumulator(table.schema, spec)
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        assert layout.key_width <= plain_key_width(layout)
        keys = normalize_keys(
            table, spec, include_row_id=False, layout=layout
        )
        raw = [keys.key_bytes(i) for i in range(table.num_rows)]
        rows = key_tuples(table, spec)
        for i in range(0, table.num_rows, 7):
            for j in range(0, table.num_rows, 11):
                cmp = tuple_compare(rows[i], rows[j], spec)
                if cmp < 0:
                    assert raw[i] < raw[j]
                elif cmp > 0:
                    assert raw[i] > raw[j]
                else:
                    assert raw[i] == raw[j]

    @pytest.mark.parametrize("spec_text", SPECS)
    def test_scalar_encoder_matches_vectorized(self, rng, spec_text):
        spec = SortSpec.of(*[s.strip() for s in spec_text.split(",")])
        table = mixed_table(rng, 64)
        acc = KeyStatsAccumulator(table.schema, spec)
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        keys = normalize_keys(
            table, spec, include_row_id=False, layout=layout
        )
        indices = [table.schema.index_of(n) for n in spec.column_names]
        for i in range(table.num_rows):
            row = tuple(table.row(i)[c] for c in indices)
            assert keys.key_bytes(i) == normalized_key_for_row(
                row, spec, layout
            )


class TestWidthAndModeSelection:
    def test_narrow_int64_without_nulls_is_one_nobyte_byte(self):
        table = Table.from_numpy(
            {"a": np.arange(0, 200, 3, dtype=np.int64)}
        )
        acc = KeyStatsAccumulator(table.schema, SortSpec.of("a"))
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        (segment,) = layout.segments
        assert segment.mode == MODE_NOBYTE
        assert segment.value_width == 1
        assert segment.total_width == 1  # NULL byte folded away entirely
        assert layout.key_width == 1
        assert plain_key_width(layout) == 9

    def test_nulls_fold_into_value_byte_when_headroom_exists(self):
        table = Table.from_pydict({"a": [None, 0, 150, None]})
        acc = KeyStatsAccumulator(table.schema, SortSpec.of("a"))
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        (segment,) = layout.segments
        assert segment.mode == MODE_FOLDED
        assert segment.value_width == 1
        assert segment.total_width == 1

    def test_full_range_without_headroom_stays_plain(self):
        table = Table.from_pydict(
            {"a": [None, -(2**63), 2**63 - 1]}
        )
        acc = KeyStatsAccumulator(table.schema, SortSpec.of("a"))
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        (segment,) = layout.segments
        assert segment.mode == MODE_PLAIN
        assert segment.total_width == 9

    def test_full_width_segment_takes_no_bias(self):
        # A NULL-free segment that needs its type's whole width gains
        # nothing from a bias, and without one a run that moves min or
        # max leaves the layout as it is (nothing to rebase).
        spec = SortSpec.of("a DESC", "b", "c")
        first = Table.from_numpy(
            {
                "a": np.array([-(2**62), 2**62], dtype=np.int64),
                "b": np.array([-(2**30), 2**30], dtype=np.int32),
                "c": np.array([5, 2**40], dtype=np.int64),
            }
        )
        acc = KeyStatsAccumulator(first.schema, spec)
        acc.update(first)
        layout = acc.build_layout()
        a, b, c = layout.segments
        assert (a.mode, a.value_width, a.bias, a.code_range) == (
            MODE_NOBYTE, 8, 0, 1 << 64,
        )
        assert (b.mode, b.value_width, b.bias, b.code_range) == (
            MODE_NOBYTE, 4, 0, 1 << 32,
        )
        # Narrower than its type: the bias is what saves the bytes.
        assert (c.value_width, c.bias) == (5, (1 << 63) + 5)
        wider = Table.from_numpy(
            {
                "a": np.array([-(2**63), 2**63 - 1], dtype=np.int64),
                "b": np.array([-(2**31), 2**31 - 1], dtype=np.int32),
                "c": np.array([7, 2**40 - 1], dtype=np.int64),
            }
        )
        acc.update(wider)
        assert acc.build_layout() == layout

    def test_all_null_column_compresses_to_one_byte(self):
        table = Table.from_pydict({"a": [None, None, None]})
        acc = KeyStatsAccumulator(table.schema, SortSpec.of("a"))
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        (segment,) = layout.segments
        assert segment.mode == MODE_FOLDED
        assert segment.total_width == 1

    @pytest.mark.parametrize("nulls", ["NULLS FIRST", "NULLS LAST"])
    @pytest.mark.parametrize(
        "name", ["BOOLEAN", "SMALLINT", "INTEGER", "DATE", "BIGINT", "FLOAT", "DOUBLE"]
    )
    def test_extrema_read_from_values_are_the_codes_extrema(
        self, rng, name, nulls
    ):
        # The statistics pass encodes a column's least and greatest valid
        # value only.  Its layouts are the ones the min and max of every
        # valid row's code give, over empty, all-NULL and NULL-bearing
        # chunks (NULL rows hold values outside the valid ones' range,
        # and one chunk spans several of the pass's blocks).
        dtype = getattr(datatypes, name)
        kind = np.dtype(dtype.numpy_dtype)

        def chunk(rows, null_every=0, edges=()):
            if dtype.is_float:
                data = (rng.normal(size=rows) * 1e3).astype(kind)
            else:
                info = np.iinfo(kind)
                span = int(rng.integers(1, 64)) if kind.itemsize > 1 else 1
                lo = max(int(info.min), -(2 ** span))
                hi = min(int(info.max), 2**span)
                data = rng.integers(lo, hi, rows, endpoint=True).astype(kind)
            data[rng.integers(0, max(rows, 1), len(edges))] = edges
            valid = np.ones(rows, dtype=bool)
            if null_every:
                valid[:: null_every] = False
                data[~valid] = (
                    np.array(np.inf, kind) if dtype.is_float
                    else np.iinfo(kind).max
                )
            return ColumnVector(dtype, data, valid)

        floats = dtype.is_float
        chunks = [
            chunk(0),
            chunk(5, null_every=1),
            chunk(7, edges=[np.nan] * 3 if floats else []),
            chunk(40_000, null_every=3, edges=[np.nan, -0.0] if floats else []),
            chunk(300, edges=[-0.0, 0.0] if floats else []),
            chunk(200, null_every=2, edges=[-np.inf] if floats else []),
        ]
        spec = SortSpec.of(f"a {nulls}")
        first = Table.from_pydict({"a": []}, {"a": dtype})
        acc = KeyStatsAccumulator(first.schema, spec)
        want = KeyStatsAccumulator(first.schema, spec)
        column = want._columns["a"]
        for vector in chunks:
            acc.update(Table(first.schema, [vector]))
            codes = fixed_column_codes(vector.data, dtype)[vector.validity]
            column.has_nulls |= vector.has_nulls
            if len(codes):
                seen = [int(codes.min()), int(codes.max())]
                if column.min_code is not None:
                    seen += [column.min_code, column.max_code]
                column.min_code, column.max_code = min(seen), max(seen)
            assert acc.build_layout() == want.build_layout()

    def test_forced_string_prefix_feeds_the_layout(self, rng, tmp_path):
        # The forced width replaces min(max_len, 12) and nothing else:
        # the integer beside it is still narrowed, and runs still rebase.
        table = mixed_table(rng, 500)
        table = table.concat(
            Table.from_pydict(
                {"a": [70_000], "s": ["key-long-0"], "f": [0.0], "seq": [500]}
            )
        )
        spec = SortSpec.of("s", "a")
        config = SortConfig(run_threshold=200, string_prefix=8)
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as op:
            for chunk in chunk_table(table, 100):
                op.sink(chunk)
            assert op.spilled_runs == 2
            s, a = op._runs[0].layout.segments
            assert (s.value_width, s.prefix_exact) == (8, True)
            assert a.mode == MODE_FOLDED and a.total_width == 1
            result = op.finalize()
        s, a = op._generator.layout.segments
        assert (s.value_width, s.prefix_exact) == (8, False)
        assert a.total_width == 3 < a.dtype.fixed_width
        assert op.stats.key_width_used == 12 < op.stats.key_width_full == 14
        assert op.stats.key_layout_rebases == 2
        assert_byte_identical(result, reference_sort(table, spec))

    @pytest.mark.parametrize("prefix", [2, 4, 8, 12])
    @pytest.mark.parametrize("direction", ["", " DESC NULLS FIRST"])
    def test_forced_prefix_segment_equals_the_plain_encoders(
        self, prefix, direction
    ):
        # Law: under a forced width the statistics layout writes the
        # VARCHAR segment normalize_keys(string_prefix=) writes.
        values = ["", "ab", None, "abcd", "abcdefgh", "éé"]
        table = Table.from_pydict({"s": values, "a": list(range(6))})
        spec = SortSpec.of(f"s{direction}", "a")
        acc = KeyStatsAccumulator(table.schema, spec, string_prefix=prefix)
        acc.update(table)
        stats = normalize_keys(
            table, spec, layout=acc.build_layout(include_row_id=False)
        )
        plain = normalize_keys(
            table, spec, string_prefix=prefix, include_row_id=False
        )
        ours, theirs = stats.layout.segments[0], plain.layout.segments[0]
        assert (ours.offset, ours.total_width) == (0, 1 + prefix)
        assert (ours.value_width, ours.prefix_exact) == (
            theirs.value_width,
            theirs.prefix_exact,
        )
        assert ours.prefix_exact == (prefix >= 8)
        assert (
            stats.matrix[:, : 1 + prefix].tobytes()
            == plain.matrix[:, : 1 + prefix].tobytes()
        )


# Shared first-run prefixes: none, every length around the 12-byte window
# and the 16-byte scan chunk, past the 255-byte cap, one that ends inside a
# 3-byte code point, one holding a NUL.
SKIP_CASES = {
    "none": "",
    "1": "p",
    "11": "p" * 11,
    "12": "p" * 12,
    "13": "p" * 13,
    "40": "shared-" * 5 + "stem-",
    "300": "0123456789" * 30,
    "mid-code-point": "caf\u65e5",
    "nul": "a\x00b\x00",
    "single-row": "only-row-of-its-run",
    "all-null": None,
}


class TestSkippedPrefix:
    """A VARCHAR segment skips what the first run's values share; later
    rows that do not share it are escaped, never re-based."""

    @staticmethod
    def runs(case):
        stem = SKIP_CASES[case]
        tails = ["", "a", "ab", "b" * 12, "b" * 13, "c" * 30, "\u65e5x", "a"]
        if case == "mid-code-point":
            # The stems agree up to the code point's first byte only.
            first = [stem + t for t in tails] + ["caf\u6728", None]
        elif case == "single-row":
            first = [stem]
        elif case == "all-null":
            first, stem = [None, None], "shared-prefix-0"
        else:
            first = [stem + t for t in tails] + [None]
        later = [stem + t for t in tails] + [
            None, "", stem[:-1], stem[: len(stem) // 2], stem + "\x01",
            "\x00", "a", "a" * 14, "t" * 5, "\U0001f600", stem[:-1] + "\x7f",
        ]
        tables = []
        for base, values in ((0, first), (100, later)):
            ids = list(range(base, base + len(values)))
            tables.append(
                Table.from_pydict({"s": values, "a": ids}, {"s": VARCHAR})
            )
        return tables

    @pytest.mark.parametrize("case", sorted(SKIP_CASES))
    @pytest.mark.parametrize("nulls", ["FIRST", "LAST"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_laws(self, case, direction, nulls):
        first, later = self.runs(case)
        spec = SortSpec.of(f"s {direction} NULLS {nulls}", "a")
        acc = KeyStatsAccumulator(first.schema, spec)
        encoded = acc.update(first)
        early = acc.build_layout(include_row_id=False)
        acc.update(later)
        layout = acc.build_layout(include_row_id=False)
        segment = layout.segments[0]

        # The first run holding a valid value decides, for good.
        decider = later if case == "all-null" else first
        raws = [v.encode() for v in decider.column("s").to_pylist() if v is not None]
        assert segment.skipped == os.path.commonprefix(raws)[:255]
        assert early.segments[0].skipped in (b"", segment.skipped)
        assert plain_key_width(layout) == (
            1 + len(segment.skipped) + segment.value_width
            + 1 + layout.segments[1].dtype.fixed_width
        )

        # One encoding, handed over, cuts the same windows; an earlier
        # run rebases onto the final layout byte for byte.
        under_early = normalize_keys(first, spec, layout=early, encoded=encoded)
        assert np.array_equal(
            under_early.matrix, normalize_keys(first, spec, layout=early).matrix
        )
        assert np.array_equal(
            rebase_matrix(under_early.matrix, early, layout),
            normalize_keys(first, spec, layout=layout).matrix,
        )

        table = first.concat(later)
        keys = normalize_keys(table, spec, layout=layout)
        assert keys.prefix_exact == segment.prefix_exact
        rows = key_tuples(table, spec)
        raw = [keys.key_bytes(i) for i in range(table.num_rows)]
        width, skipped = segment.value_width, segment.skipped
        for row, key in zip(rows, raw):
            assert key == normalized_key_for_row(row, spec, layout)
            value = row[0]
            decoded = decode_key_row(key, layout)
            assert decoded[1] == row[1]
            if value is None:
                assert decoded[0] is None
                continue
            start = len(skipped) if value.encode().startswith(skipped) else 0
            window = value.encode()[start : start + width].rstrip(b"\x00")
            kept = value.encode()[:start] + window
            assert decoded[0] == kept.decode("utf-8", "replace")
        # memcmp on the segment never contradicts the string order (it
        # may tie where the window truncates); exact, on the whole key.
        only_s = SortSpec.of(f"s {direction} NULLS {nulls}")
        end = segment.total_width
        for i, left in enumerate(rows):
            for j, right in enumerate(rows):
                cmp = tuple_compare(left[:1], right[:1], only_s)
                if cmp < 0:
                    assert raw[i][:end] <= raw[j][:end]
                elif cmp == 0:
                    assert raw[i][:end] == raw[j][:end]
                if segment.prefix_exact and tuple_compare(left, right, spec) < 0:
                    assert raw[i] < raw[j]

    def test_forced_prefix_skips_nothing(self):
        first, _ = self.runs("40")
        spec = SortSpec.of("s", "a")
        acc = KeyStatsAccumulator(first.schema, spec, string_prefix=12)
        acc.update(first)
        assert acc.build_layout().segments[0].skipped == b""


class TestProgressiveWidening:
    def chunked_widening_table(self, n_per_run):
        """Each later slice needs strictly wider key bytes than the last."""
        values = (
            [int(v) for v in range(n_per_run)]  # fits 1 byte? no: < 2^8*...
            + [int(v) * 300 for v in range(n_per_run)]  # needs 2-3 bytes
            + [int(v) * 20_000_000 for v in range(n_per_run)]  # needs 4+
        )
        return Table.from_pydict({"a": values, "seq": list(range(len(values)))})

    def test_in_memory_rebases_runs_to_final_layout(self):
        # Resident runs under widening layouts: the stages driven
        # directly, since SortOperator cuts one run (one layout).
        table = self.chunked_widening_table(300)
        result, stats = sort_resident_runs(table, SortSpec.of("a DESC"), 3)
        assert stats.runs_generated == 3
        assert stats.key_layout_rebases >= 1
        assert_byte_identical(
            result, reference_sort(table, SortSpec.of("a DESC"))
        )

    def test_external_rebases_blocks_during_merge(self, tmp_path):
        table = self.chunked_widening_table(400)
        spec = SortSpec.of("a DESC")
        with ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(run_threshold=400),
            str(tmp_path),
        ) as op:
            for chunk in chunk_table(table, 200):
                op.sink(chunk)
            result = op.finalize()
        assert op.stats.key_layout_rebases >= 1
        assert result.equals(reference_sort(table, spec))

    def test_rebase_matrix_matches_direct_encoding(self, rng):
        spec = SortSpec.of("a DESC NULLS FIRST", "s")
        narrow = mixed_table(rng, 200)
        acc = KeyStatsAccumulator(narrow.schema, spec)
        acc.update(narrow)
        narrow_layout = acc.build_layout(row_id_width=8)
        keys = normalize_keys(narrow, spec, layout=narrow_layout)
        wide = Table.from_pydict(
            {
                "a": [100_000, -40],
                "s": ["zzzzzzzzz", None],
                "f": [0.0, 1.0],
                "seq": [0, 1],
            }
        )
        acc.update(wide)
        wide_layout = acc.build_layout(row_id_width=8)
        assert wide_layout.key_width > narrow_layout.key_width
        rebased = rebase_matrix(keys.matrix, narrow_layout, wide_layout)
        direct = normalize_keys(narrow, spec, layout=wide_layout)
        assert rebased.tobytes() == direct.matrix.tobytes()


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def layouts_after(tables, spec):
    """The layout one accumulator builds after each of ``tables``."""
    acc = KeyStatsAccumulator(tables[0].schema, spec)
    layouts = []
    for table in tables:
        acc.update(table)
        layouts.append(acc.build_layout(include_row_id=False))
    return layouts


def assert_words_equal(got, want):
    assert len(got) == len(want)
    for index, (left, right) in enumerate(zip(got, want)):
        assert left.tolist() == right.tolist(), f"word {index}"


class TestRebaseWords:
    """``rebase_words`` from every layout a table was encoded under to
    every later one equals packing the table under the later one."""

    @staticmethod
    def assert_rebases_like_packing(tables, spec):
        layouts = layouts_after(tables, spec)
        for k, table in enumerate(tables):
            for i, early in enumerate(layouts[k:], k):
                for new in layouts[i:]:
                    rebased = rebase_words(key_words(table, early), early, new)
                    assert_words_equal(rebased, key_words(table, new))
        return layouts

    @pytest.mark.parametrize("nulls", ["FIRST", "LAST"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_nobyte_folded_plain_and_a_moved_bias(self, direction, nulls):
        # ``b`` after ``a``: every widening of ``a`` moves ``b`` and
        # ``c`` across word boundaries.
        tables = [
            Table.from_pydict(
                {"a": a, "b": [7, -3, 12, 0][: len(a)], "c": [1, 2, 3, 4][: len(a)]},
                {"a": BIGINT, "b": BIGINT, "c": BIGINT},
            )
            for a in (
                [100, 150, 199],
                [50, 399, 120],
                [-70_000, None, 3, 10**9],
                [INT64_MIN, None, INT64_MAX, 0],
            )
        ]
        spec = SortSpec.of(f"a {direction} NULLS {nulls}", "b DESC", "c")
        layouts = self.assert_rebases_like_packing(tables, spec)
        segments = [layout.segments[0] for layout in layouts]
        assert [s.mode for s in segments] == [
            MODE_NOBYTE, MODE_NOBYTE, MODE_FOLDED, MODE_PLAIN
        ]
        assert segments[0].bias != segments[1].bias
        assert [s.value_width for s in segments] == [1, 2, 4, 8]

    @pytest.mark.parametrize("nulls", ["FIRST", "LAST"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_varchar_widening_with_nulls(self, direction, nulls):
        tables = [
            Table.from_pydict({"s": s, "a": list(range(len(s)))}, {"s": VARCHAR})
            for s in (
                ["ab", None, "a", "ac"],
                ["abcd", None, "b"],
                ["a" + "z" * 20, "abcdefgh", None, "日"],
            )
        ]
        # Alone, an ASC widening reaches no byte of the key's last word.
        spec = SortSpec.of(f"s {direction} NULLS {nulls}")
        self.assert_rebases_like_packing(tables, spec)
        spec = SortSpec.of(f"s {direction} NULLS {nulls}", "a DESC")
        layouts = self.assert_rebases_like_packing(tables, spec)
        segments = [layout.segments[0] for layout in layouts]
        assert [s.value_width for s in segments] == [1, 3, 12]
        assert {s.skipped for s in segments} == {b"a"}

    @pytest.mark.parametrize("nulls", ["FIRST", "LAST"])
    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_skipped_bytes_decided_after_an_all_null_run(
        self, direction, nulls
    ):
        tables = [
            Table.from_pydict({"s": s, "a": [3, 1, 2][: len(s)]}, {"s": VARCHAR})
            for s in (
                [None, None],
                ["shared-x", None, "shared-yy"],
                ["shared-" + "q" * 30, "other"],
            )
        ]
        spec = SortSpec.of(f"s {direction} NULLS {nulls}", "a")
        layouts = self.assert_rebases_like_packing(tables, spec)
        assert [layout.segments[0].skipped for layout in layouts] == [
            b"", b"shared-", b"shared-"
        ]

    @pytest.mark.parametrize("direction", ["ASC", "DESC"])
    def test_escaped_strings(self, direction):
        # The first run decides the skipped bytes; the second holds
        # values that do not start with them, and the third widens.
        tables = [
            Table.from_pydict({"s": s, "a": list(range(len(s)))}, {"s": VARCHAR})
            for s in (
                ["stem-a", "stem-b"],
                ["", "a", "stem", "zzz", None, "stem-ab", "\U0001f600"],
                ["stem-" + "x" * 11, "stem\x7f"],
            )
        ]
        spec = SortSpec.of(f"s {direction}", "a")
        layouts = self.assert_rebases_like_packing(tables, spec)
        assert layouts[0].segments[0].skipped == b"stem-"
        assert [layout.segments[0].value_width for layout in layouts] == [
            1, 4, 11
        ]

    def test_typed_errors(self):
        strings = [
            Table.from_pydict({"s": s}, {"s": VARCHAR})
            for s in ([None], ["stem-a", "stem-bcd"], ["other"])
        ]
        spec = SortSpec.of("s")
        undecided, decided, wider = layouts_after(strings, spec)
        with pytest.raises(KeyEncodingError, match="narrow"):
            words = key_words(strings[1], wider)
            rebase_words(words, wider, decided)
        # Valid rows under undecided skipped bytes: not a widening.
        with pytest.raises(KeyEncodingError, match="skipped"):
            rebase_words(key_words(strings[1], undecided), undecided, decided)
        ints = [
            Table.from_pydict({"a": a}, {"a": BIGINT})
            for a in ([1, 2], [INT64_MIN, None, INT64_MAX])
        ]
        compressed, plain = layouts_after(ints, SortSpec.of("a"))
        assert plain.segments[0].mode == MODE_PLAIN
        with pytest.raises(KeyEncodingError, match="toward plain"):
            rebase_words(key_words(ints[1], plain), plain, compressed)

    def test_a_merge_rebases_row_runs_without_writing_them(self):
        # The stale run's one key word is a folded 8-byte segment with
        # no bias: its codes are that word, zeroed at NULL rows in place,
        # so the rebase must work on words of its own, never the run's.
        spec = SortSpec.of("a NULLS LAST")
        tables = [
            Table.from_pydict({"a": a}, {"a": BIGINT})
            for a in ([INT64_MIN + 2**60, None, INT64_MIN], [INT64_MAX, None, 5])
        ]
        stats = SortStats()
        generator = RunGenerator(
            tables[0].schema, spec, SortConfig(), stats, lambda: None
        )
        runs = [
            generator.sort_run(*generator.encode([DataChunk.from_table(t)]))
            for t in tables
        ]
        stale = runs[0].layout.segments[0]
        assert (stale.mode, stale.value_width, stale.bias) == (MODE_FOLDED, 8, 0)
        before = [[word.copy() for word in run.words] for run in runs]
        result = RunMerger(generator, block_rows=2).merge(runs)
        assert stats.key_layout_rebases == 1
        for run, words in zip(runs, before):
            assert all(map(np.array_equal, run.words, words))
        expected = reference_sort(tables[0].concat(tables[1]), spec)
        assert_byte_identical(result, expected)


class TestPipelineIdentity:
    """Invariant 2: compression changes bytes spilled, never bytes sorted."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_in_memory(self, rng, spec):
        table = mixed_table(rng, 4000)
        result = sort_table(table, spec, SortConfig(run_threshold=900))
        assert_byte_identical(result, reference_sort(table, spec_of(spec)))

    @pytest.mark.parametrize("spec", SPECS)
    def test_external_kernel_merge(self, rng, tmp_path, spec):
        table = mixed_table(rng, 4000)
        result = sort_spilling(
            table, spec, SortConfig(run_threshold=700), str(tmp_path)
        )
        assert_byte_identical(result, reference_sort(table, spec_of(spec)))

    def test_external_scalar_merge(self, rng, tmp_path):
        # Against the scalar reference, which normalizes once,
        # uncompressed.
        table = mixed_table(rng, 2500)
        spec = SortSpec.of("a DESC NULLS FIRST", "s")
        result = sort_spilling(
            table, spec, SortConfig(run_threshold=600), str(tmp_path)
        )
        assert_byte_identical(result, scalar_reference_sort(table, spec))

    def test_all_null_key_column_full_pipelines(self, rng, tmp_path):
        table = mixed_table(rng, 1500, all_null_column=True)
        spec = "a NULLS FIRST, s DESC"
        in_memory = sort_table(table, spec, SortConfig(run_threshold=400))
        external = sort_spilling(
            table, spec, SortConfig(run_threshold=400), str(tmp_path)
        )
        expected = reference_sort(table, spec_of(spec))
        assert_byte_identical(in_memory, expected)
        assert_byte_identical(external, expected)


class TestKeyCarriedExternal:
    def int_table(self, rng, n):
        return Table.from_pydict(
            {
                "a": [int(v) for v in rng.integers(0, 150, n)],
                "b": [
                    None if v % 11 == 0 else int(v)
                    for v in rng.integers(-1000, 1000, n)
                ],
            }
        )

    def test_eligibility(self, rng):
        ints = self.int_table(rng, 10)
        assert key_carried_eligible(
            ints.schema, SortSpec.of("a", "b DESC")
        )
        # A non-key column, a float, or a string breaks eligibility.
        assert not key_carried_eligible(ints.schema, SortSpec.of("a"))
        mixed = mixed_table(rng, 10)
        assert not key_carried_eligible(
            mixed.schema, SortSpec.of("a", "s", "f", "seq")
        )

    def test_spills_keys_only_and_matches(self, rng, tmp_path):
        table = self.int_table(rng, 6000)
        spec = SortSpec.of("a", "b DESC NULLS FIRST")
        with ExternalSortOperator(
            table.schema,
            spec,
            SortConfig(run_threshold=1000),
            str(tmp_path),
        ) as op:
            for chunk in chunk_table(table, 500):
                op.sink(chunk)
            spilled = op.spilled_bytes
            runs = list(op._runs)
            result = op.finalize()
        assert op.stats.key_carried_runs == op.stats.runs_generated
        for run in runs:
            assert run.payload_bytes == 0
        # a in [0, 150) is one byte, b in [-1000, 1000) with NULLs two:
        # one key word, no row id, so a file is 8 bytes a row.
        assert [run.key_words for run in runs] == [1] * 6
        assert spilled == sum(run.num_rows * 8 for run in runs)
        # Value-level equality: key-carried NULL rows decode with a zero
        # filler, so raw data bytes under NULL slots may differ.
        assert result.equals(reference_sort(table, spec))

    @pytest.mark.parametrize("direction", ["", " DESC"])
    def test_bias_free_segments_round_trip_at_the_extremes(self, direction):
        int64, int32 = np.iinfo(np.int64), np.iinfo(np.int32)
        table = Table.from_numpy(
            {
                "a": np.array(
                    [0, int64.max, -1, int64.min, 1, int64.max - 1],
                    dtype=np.int64,
                ),
                "b": np.array(
                    [int32.max, 0, int32.min, -1, 1, int32.min + 1],
                    dtype=np.int32,
                ),
            }
        )
        spec = SortSpec.of(f"a{direction}", f"b{direction}")
        acc = KeyStatsAccumulator(table.schema, spec)
        acc.update(table)
        layout = acc.build_layout()
        assert [s.bias for s in layout.segments] == [0, 0]
        assert layout.key_width == 12
        words = key_words(table, layout)
        decoded = decode_key_table(words, layout, table.schema)
        assert_byte_identical(decoded, table)
        keys = normalize_keys(table, spec, layout=layout)
        order = np.lexsort(keys.matrix[:, : layout.key_width].T[::-1])
        assert_byte_identical(table.take(order), reference_sort(table, spec))

    def test_decode_key_table_round_trip(self, rng):
        table = self.int_table(rng, 500)
        spec = SortSpec.of("a DESC", "b NULLS LAST")
        acc = KeyStatsAccumulator(table.schema, spec)
        acc.update(table)
        layout = acc.build_layout()
        words = key_words(table, layout)
        decoded = decode_key_table(words, layout, table.schema)
        assert decoded.equals(table)


class TestStatsCounters:
    def test_width_counters_report_compression(self, rng):
        table = mixed_table(rng, 2000)
        config = SortConfig(run_threshold=600)
        op = SortOperator(table.schema, SortSpec.of("a", "s"), config)
        for chunk in chunk_table(table, 300):
            op.sink(chunk)
        op.finalize()
        assert 0 < op.stats.key_width_used < op.stats.key_width_full

    def test_vector_path_counters_record_dispatch(self, rng):
        table = mixed_table(rng, 2000)
        op = SortOperator(
            table.schema, SortSpec.of("a"), SortConfig(run_threshold=600)
        )
        for chunk in chunk_table(table, 300):
            op.sink(chunk)
        op.finalize()
        # One-byte compressed key, twelve values and NULL over 2,000
        # rows: one pass per run sorts the byte, every row ties with a
        # full duplicate, and the duplicates check ends the sort there.
        assert op.stats.key_width_used == 1
        assert op.stats.sort_passes == op.stats.runs_generated
        assert op.stats.sort_tied_rows == 2000

    def test_uncompressed_layout_matches_legacy_builder(self, rng):
        # The plain encoder (Top-N, refine, the reference sort) writes
        # the seed layout bit-for-bit.
        table = mixed_table(rng, 300)
        spec = SortSpec.of("a DESC NULLS FIRST", "s")
        legacy = normalize_keys(table, spec)
        explicit = normalize_keys(
            table, spec, layout=build_layout(table, spec)
        )
        assert legacy.matrix.tobytes() == explicit.matrix.tobytes()
        assert all(
            segment.mode == MODE_PLAIN for segment in legacy.layout.segments
        )
