"""Exact string sorting on the vector path.

Randomized byte-identity checks of every sort path -- in-memory,
external, Top-N -- against the tuple-compare oracle on string
workloads the key prefix cannot decide (long strings, shared prefixes,
duplicate-heavy distributions, NULLs, DESC / NULLS FIRST).

Every workload here truncates its prefix: the stats assertions pin that
the tie repair ran (``full_key_compares > 0``) while the outputs stay
byte-identical to the oracle.
"""

from __future__ import annotations

import collections
import random
import sys

import numpy as np
import pytest

from conftest import reference_sort, sort_resident_runs, sort_spilling
from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.aggregate.groupby import Aggregate, group_by
from repro.engine.database import Database
from repro.join.merge_join import merge_join
from repro.keys.compression import KeyStatsAccumulator
from repro.keys.normalizer import MAX_STRING_PREFIX, key_words, normalize_keys
from repro.service.core import SortService
from repro.rows.block import RowBlock, string_slots
from repro.scalar.reference import reference_sort as scalar_reference_sort
from repro.sort.external import ExternalSortOperator
from repro.sort.incremental import IncrementalSorter
from repro.sort.kernels import ovc_codes
from repro.sort.operator import SortConfig, SortOperator, SortStats, sort_table
from repro.sort.stringsort import (
    CHUNK_WIDTH,
    inexact_prefix_end,
    refine_key_order,
    refine_table_order,
)
from repro.sort.topn import top_n
from repro.table.chunk import chunk_table
from repro.workloads.scenarios import SCENARIOS
from repro.table.table import Table
from repro.types.sortspec import SortKey, SortSpec
from repro.window.functions import WindowFunction, WindowSpec, window

SPECS = [
    "s",
    "s DESC",
    "s DESC NULLS LAST, i DESC",
    "i, s",
    "s NULLS FIRST, i",
]


def string_table(seed: int, n: int, *, null_rate=0.08, dup_heavy=False):
    """Strings the 12-byte key prefix cannot decide.

    Long shared prefixes, tails of varying length (including tails that
    are prefixes of each other), NULLs, and -- with ``dup_heavy`` -- a
    tiny value domain so almost every key byte comparison ties.
    """
    rng = random.Random(seed)
    prefixes = [
        "shared_prefix_alpha_______",
        "shared_prefix_beta________",
        "zz",
        "",
    ]
    if dup_heavy:
        # Two stems that differ in the first byte: the key statistics
        # find no prefix to skip, and the 12 key bytes tie.
        domain = [
            first + "shared_prefix_alpha_______" + tail
            for first in "mn"
            for tail in ("", "a", "aa", "b")
        ]

        def one():
            return rng.choice(domain)

    else:

        def one():
            tail_len = rng.randrange(0, 40)
            tail = "".join(
                rng.choice("abcxyz019") for _ in range(tail_len)
            )
            return rng.choice(prefixes) + tail

    svals = [
        None if rng.random() < null_rate else one() for _ in range(n)
    ]
    ivals = [rng.randrange(0, 5) for _ in range(n)]
    return Table.from_pydict({"s": svals, "i": ivals})


def spec_of(spec_str: str) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in spec_str.split(",")])


def assert_matches_oracle(result: Table, table: Table, spec: SortSpec):
    expected = reference_sort(table, spec)
    for name in table.schema.names:
        assert (
            result.column(name).to_pylist()
            == expected.column(name).to_pylist()
        ), name


class TestInMemoryExact:
    @pytest.mark.parametrize("spec_str", SPECS)
    @pytest.mark.parametrize("dup_heavy", [False, True])
    def test_byte_identity_vs_oracle(self, spec_str, dup_heavy):
        table = string_table(3, 4000, dup_heavy=dup_heavy)
        spec = spec_of(spec_str)
        operator = SortOperator(
            table.schema, spec, SortConfig(run_threshold=1000)
        )
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        result = operator.finalize()
        assert_matches_oracle(result, table, spec)
        # The whole point: inexact prefixes stay on the kernel path.
        assert operator.stats.merge_passes == 1
        assert operator.stats.kernel_kway_merges == 1
        assert not operator.stats.prefix_exact
        assert operator.stats.full_key_compares > 0

    def test_reencode_work_scales_with_ties_only(self):
        # Unique short strings: nothing ties past the prefix, so the
        # adaptive re-encoding must not run at all.
        table = Table.from_pydict(
            {"s": [f"v{i:04d}" for i in range(2000)]}
        )
        operator = SortOperator(table.schema, SortSpec.of("s"), SortConfig())
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        operator.finalize()
        assert operator.stats.reencoded_rows == 0
        assert operator.stats.full_key_compares == 0

    @pytest.mark.parametrize("spec_str", ["s, i", "s DESC NULLS LAST, i DESC"])
    def test_non_ascii_strings_with_embedded_nuls(self, spec_str, tmp_path):
        # 2/3/4-byte code points and NULs inside the strings, behind a
        # shared prefix longer than the key prefix: heap offsets are byte
        # offsets, the decoded text's are character offsets.  A fifth of
        # the tails end in NUL, which the zero key pad hides.
        rng = random.Random(23)

        def one():
            tail = "".join(rng.choice("aé日😀\x00") for _ in range(rng.randrange(24)))
            return rng.choice(["共有プレフィックス-", "é" * 7, ""]) + tail

        n = 3000
        table = Table.from_pydict(
            {
                "s": [None if rng.random() < 0.05 else one() for _ in range(n)],
                "i": [rng.randrange(4) for _ in range(n)],
            }
        )
        spec = spec_of(spec_str)
        config = SortConfig(run_threshold=700)
        assert_matches_oracle(sort_table(table, spec, config), table, spec)
        spilled = sort_spilling(table, spec, config, str(tmp_path))
        assert_matches_oracle(spilled, table, spec)
        expected = reference_sort(table, spec)
        assert top_n(table, spec, limit=50, offset=3).equals(
            expected.slice(3, 53)
        )

    def test_forced_prefix_still_sorts_exactly(self):
        # A forced (short) prefix changes the key bytes, not the result:
        # tie-group refinement repairs the ties the narrow prefix leaves.
        table = string_table(5, 1500)
        spec = spec_of("s DESC")
        result = sort_table(table, spec, SortConfig(string_prefix=4))
        assert_matches_oracle(result, table, spec)


class TestExternalExact:
    @pytest.mark.parametrize("spec_str", SPECS)
    @pytest.mark.parametrize("forced_prefix", [True, False])
    def test_byte_identity_vs_oracle(self, spec_str, forced_prefix, tmp_path):
        table = string_table(7, 5000)
        spec = spec_of(spec_str)
        config = SortConfig(
            run_threshold=1000, string_prefix=8 if forced_prefix else None
        )
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, 512):
                operator.sink(chunk)
            result = operator.finalize()
        assert operator.spilled_runs >= 4
        assert_matches_oracle(result, table, spec)
        assert operator.stats.kernel_kway_merges == 1
        assert not operator.stats.prefix_exact
        assert operator.stats.full_key_compares > 0

    def test_duplicate_heavy_kway_uses_ovc(self, tmp_path):
        table = string_table(9, 6000, dup_heavy=True)
        spec = SortSpec.of("s")
        config = SortConfig(run_threshold=1000)
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, 512):
                operator.sink(chunk)
            result = operator.finalize()
        # Nearly all frontier rows tie on every key word: the merge's
        # earlier-run-first tie handling alone must order them.
        assert_matches_oracle(result, table, spec)

    def test_scalar_merge_oracle_agrees(self):
        # The scalar reference must produce the identical exact order
        # with its segment-wise full-string comparator.
        table = string_table(11, 3000)
        spec = spec_of("s DESC NULLS LAST, i DESC")
        assert_matches_oracle(scalar_reference_sort(table, spec), table, spec)

    @pytest.mark.parametrize("long_first", [False, True])
    def test_plain_layout_truncation_is_remembered_across_runs(
        self, tmp_path, long_first
    ):
        # Under a forced prefix every run's VARCHAR segment has the same
        # width and only ``prefix_exact`` can differ; a run of short
        # strings beside a run that truncates must still get the
        # merge-time tie repair (DESC: the 12-byte string sorts *after*
        # the longer ones it prefixes).
        short = ["x" * MAX_STRING_PREFIX] * 10 + [f"s{i:03d}" for i in range(40)]
        long_ = [f"{'x' * MAX_STRING_PREFIX}{i * 37 % 50:03d}" for i in range(50)]
        values = long_ + short if long_first else short + long_
        table = Table.from_pydict({"s": values})
        config = SortConfig(run_threshold=50, string_prefix=MAX_STRING_PREFIX)
        for result in (
            sort_spilling(table, "s DESC", config, str(tmp_path)),
            sort_table(table, "s DESC", config),
        ):
            assert result.column("s").to_pylist() == sorted(
                values, reverse=True
            )


class TestEscapedRows:
    """The first run's strings share ``shared-prefix-0``; later runs hold
    rows below it, above it, equal to it and NULL.  Their keys escape the
    skipped prefix through the indicator byte: no run is re-based."""

    RUN = 1024
    STEM = "shared-prefix-0"
    SPECS = [
        "s, k",
        "s DESC NULLS FIRST, k DESC",
        "s NULLS FIRST",
        "s DESC NULLS LAST",
    ]

    @classmethod
    def table(cls, tail: int) -> Table:
        """Three runs' worth of rows; tails of ``tail`` bytes drawn from a
        small pool, so full strings repeat across runs (stability) and
        the 12-byte window truncates iff ``tail > 12``."""
        rng = random.Random(tail)
        pool = [
            cls.STEM + "".join(rng.choice("ab") for _ in range(tail))
            for _ in range(40)
        ]
        outside = [
            None, "", "a", "a" * 12, "shared-pre", "shared-pref1", cls.STEM,
            "shared-prey", "t", "tt" * 6,
        ]
        svals = [rng.choice(pool) for _ in range(cls.RUN)]
        svals += [
            rng.choice(pool if rng.random() < 0.5 else outside)
            for _ in range(2 * cls.RUN)
        ]
        rows = len(svals)
        return Table.from_pydict(
            {"s": svals, "k": [i % 5 for i in range(rows)], "p": list(range(rows))}
        )

    def config(self, **extra) -> SortConfig:
        return SortConfig(external=True, run_threshold=self.RUN, **extra)

    def expected(self, table, spec):
        expected = oracle_sort(table, spec)
        assert_byte_identical(expected, scalar_reference_sort(table, spec))
        return expected

    @pytest.mark.parametrize("tail", [12, 13], ids=["exact", "truncated"])
    @pytest.mark.parametrize("spec_str", SPECS)
    def test_sort_paths(self, tmp_path, spec_str, tail):
        table, spec = self.table(tail), spec_of(spec_str)
        expected = self.expected(table, spec)
        assert_byte_identical(expected, sort_table(table, spec))
        assert_byte_identical(expected, sort_table(table, spec, self.config()))
        resident, stats = sort_resident_runs(table, spec, 3)
        assert_byte_identical(expected, resident)
        assert stats.key_layout_rebases == 0
        with ExternalSortOperator(
            table.schema, spec, self.config(merge_fan_in=2), str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, self.RUN):
                operator.sink(chunk)
            layouts = {run.layout for run in operator._runs}
            assert_byte_identical(expected, operator.finalize())
        stats = operator.stats
        assert stats.runs_generated == 3 and stats.key_layout_rebases == 0
        assert [seg.skipped for seg in layouts.pop().segments][0] == (
            self.STEM.encode()
        )
        assert not layouts  # one layout, first run to last
        # An intermediate pass ran unless the final repair forbids one.
        assert stats.prefix_exact == (tail == 12)
        assert stats.merge_passes == (2 if tail == 12 else 1)
        assert (stats.full_key_compares > 0) == (tail == 13)

    def test_refinement_starts_where_each_rows_window_ended(self):
        # Sharing rows tie on the 12 bytes after a 40-byte stem, escaped
        # rows on their first 12; each group differs in the next byte.
        stem = "s" * 40
        sharing = [stem + "w" * 12 + c for c in "dcba"]
        values = sharing + ["e" * 12 + c for c in "zyx"] + sharing[::-1]
        table = Table.from_pydict({"s": values + [stem], "p": list(range(12))})
        result, stats = sort_resident_runs(table, SortSpec.of("s"), 3)
        assert result.column("s").to_pylist() == sorted(values + [stem])
        assert result.column("p").to_pylist()[-2:] == [0, 10]  # stable
        assert stats.full_key_compares == 11
        assert stats.reencode_rounds == 1  # one byte past each window

    @pytest.mark.parametrize("spec_str", SPECS)
    def test_database_incremental_and_service(self, spec_str):
        table, spec = self.table(13), spec_of(spec_str)
        expected = self.expected(table, spec)
        db = Database(self.config())
        db.register("t", table)
        sql = f"SELECT s, k, p FROM t ORDER BY {spec_str}"
        assert_byte_identical(expected, db.execute(sql))
        with SortService(db, memory_budget=8 << 20, workers=1) as service:
            assert_byte_identical(expected, service.execute(sql, timeout=30))
        sorter = IncrementalSorter(table.schema, spec, compact_threshold=2)
        for start in range(0, table.num_rows, self.RUN):
            sorter.insert(table.slice(start, start + self.RUN))
        assert_byte_identical(expected, sorter.view())
        assert sorter.stats.compactions >= 1
        assert sorter.stats.sort.key_layout_rebases == 0


class TestEncodeOnce:
    """A run crosses from ``str`` to UTF-8 once per VARCHAR key column:
    the statistics pass encodes, the key windows and the row heap read."""

    @pytest.fixture
    def codec_calls(self, monkeypatch):
        from repro.table import strings

        real, calls = strings.encode_utf8_column, []

        def counting(values, validity=None, column=""):
            calls.append(column)
            return real(values, validity, column)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "encode_utf8_column", None) is real
            ):
                monkeypatch.setattr(module, "encode_utf8_column", counting)
        return calls

    @pytest.mark.parametrize("spilled", [False, True])
    @pytest.mark.parametrize(
        "name, columns", [("long_string", 1), ("tpcds_customer", 2)]
    )
    def test_one_call_per_key_column_per_run(
        self, codec_calls, tmp_path, name, columns, spilled
    ):
        scenario = SCENARIOS[name]
        table, spec = scenario.table(3000, seed=17), spec_of(scenario.order_by)
        config = SortConfig(external=spilled, run_threshold=1000)
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) if spilled else SortOperator(table.schema, spec, config) as operator:
            for chunk in chunk_table(table, 500):
                operator.sink(chunk)
            result = operator.finalize()
        assert_byte_identical(oracle_sort(table, spec), result)
        runs = operator.stats.runs_generated
        assert runs == (3 if spilled else 1)
        assert len(codec_calls) == columns * runs

    def test_long_string_needs_no_refinement(self):
        # The catalog's 15 shared bytes are skipped; the next 12 decide.
        table = SCENARIOS["long_string"].table(62_500, seed=17)
        operator = SortOperator(table.schema, SortSpec.of("s", "p"))
        for chunk in chunk_table(table, 4096):
            operator.sink(chunk)
        result = operator.finalize()
        assert result.column("s").to_pylist() == sorted(
            table.column("s").to_pylist()
        )
        stats = operator.stats
        assert (stats.reencoded_rows, stats.full_key_compares) == (0, 0)
        assert (stats.key_width_used, stats.key_width_full) == (21, 37)


class TestTrailingNuls:
    """Strings that differ only by trailing NULs tie in zero-padded key
    bytes; the shorter is the smaller, before any later ORDER BY column."""

    STEM = "x" * (MAX_STRING_PREFIX - 1)
    VALUES = [
        "a\0", "a", "a", "a\0",  # ROADMAP item F's example
        "", "\0", None, "\0\0", "",
        "abc\0", "abc", "abc\0\0",  # 4 and 5 bytes: string_prefix=4
        STEM + "\0", STEM, STEM + "\0\0",  # 12 and 13: the default cap
    ]

    def table(self):
        # k descends as the strings grow: falling through to it puts
        # every NUL-extended string before the one it extends.
        return Table.from_pydict(
            {"s": self.VALUES, "k": [20 - len(v or "") for v in self.VALUES]}
        )

    @pytest.mark.parametrize(
        "order_by", ["s, k", "s DESC NULLS FIRST, k DESC", "s DESC"]
    )
    def test_every_sort_path_matches_the_oracle(self, order_by, tmp_path):
        table, spec = self.table(), spec_of(order_by)
        expected = reference_sort(table, spec)
        n = table.num_rows
        database = Database()
        database.register("t", table)
        sorter = IncrementalSorter(table.schema, spec, compact_threshold=2)
        for start in range(0, n, 2):
            sorter.insert(table.slice(start, start + 2))
        results = {
            "resident": sort_table(table, spec),
            "string_prefix=4": sort_table(table, spec, SortConfig(string_prefix=4)),
            "spilled": sort_spilling(
                table, spec, SortConfig(run_threshold=2), str(tmp_path)
            ),
            "spilled string_prefix=4": sort_spilling(
                table,
                spec,
                SortConfig(run_threshold=4, string_prefix=4),
                str(tmp_path),
            ),
            "sql": database.execute(f"SELECT s, k FROM t ORDER BY {order_by}"),
            "top_n": top_n(table, spec, limit=n),
            "top_n slice": top_n(table, spec, limit=5, offset=2),
            "incremental": sorter.view(),
            "reference_sort": scalar_reference_sort(table, spec),
        }
        for path, result in results.items():
            want = expected.slice(2, 7) if path == "top_n slice" else expected
            assert result.to_pydict() == want.to_pydict(), path

    def test_top_n_cutoff_keeps_a_hidden_smaller_string(self, monkeypatch):
        # The cutoff filter compares key bytes: a later batch's "a"
        # ties with the held "a\0" and must still get in.
        from repro.sort import topn

        monkeypatch.setattr(topn, "BATCH_ROWS", 4)
        values = ["a\0"] * 4 + ["b"] * 4 + ["a"] * 4
        table = Table.from_pydict({"s": values, "k": list(range(12))})
        operator = topn.TopNOperator(table.schema, SortSpec.of("s"), limit=2)
        for chunk in chunk_table(table, 4):
            operator.sink(chunk)
        assert operator.finalize().to_pydict() == {"s": ["a", "a"], "k": [8, 9]}

    def test_group_by_and_merge_join_keep_them_apart(self):
        table = self.table()
        grouped = group_by(table, ["s"], [Aggregate("count", None)])
        distinct = sorted({v for v in self.VALUES if v is not None})
        assert grouped.column("s").to_pylist() == distinct + [None]
        assert grouped.column("count_star").to_pylist() == [
            self.VALUES.count(v) for v in distinct
        ] + [1]
        joined = merge_join(table, table, ["s"], ["s"])
        ordered = reference_sort(table, SortSpec.of("s"))
        rows = [r for r in zip(*ordered.to_pydict().values()) if r[0] is not None]
        assert list(zip(*joined.to_pydict().values())) == [
            left + right for left in rows for right in rows if left[0] == right[0]
        ]


class TestTopNAndParallel:
    @pytest.mark.parametrize("spec_str", ["s", "s DESC, i"])
    def test_topn_matches_oracle_head(self, spec_str):
        table = string_table(19, 2000)
        spec = spec_of(spec_str)
        expected = reference_sort(table, spec)
        result = top_n(table, spec, limit=37, offset=5)
        for name in table.schema.names:
            assert (
                result.column(name).to_pylist()
                == expected.column(name).to_pylist()[5:42]
            )


class TestOffsetValueCoding:
    def wide_sorted_matrix(self, rng, n, width, distinct):
        pool = rng.integers(0, distinct, size=(n, width), dtype=np.uint8)
        pool[:, : width // 2] = 7  # shared leading bytes
        order = np.lexsort(tuple(pool.T[::-1]))
        return np.ascontiguousarray(pool[order])

    def test_ovc_codes_match_definition(self, rng):
        matrix = self.wide_sorted_matrix(rng, 500, 20, 3)
        codes = ovc_codes(matrix)
        words = -(-matrix.shape[1] // 8)
        padded = np.zeros((len(matrix), words * 8), dtype=np.uint8)
        padded[:, : matrix.shape[1]] = matrix
        assert codes[0] == 0
        for i in range(1, len(matrix)):
            expected = words  # all words equal => duplicate marker
            for w in range(words):
                if not np.array_equal(
                    padded[i, w * 8 : w * 8 + 8],
                    padded[i - 1, w * 8 : w * 8 + 8],
                ):
                    expected = w
                    break
            assert codes[i] == expected, i


class TestGroupingConsumers:
    LONG_A = "group_key_shared_prefix_variant_A"
    LONG_B = "group_key_shared_prefix_variant_B"

    def table(self):
        return Table.from_pydict(
            {
                "g": [
                    self.LONG_A,
                    self.LONG_B,
                    self.LONG_A,
                    self.LONG_B,
                    self.LONG_A,
                    None,
                ],
                "v": [1, 2, 3, 4, 5, 6],
            }
        )

    def test_group_by_splits_long_string_keys(self):
        result = group_by(self.table(), ["g"], [Aggregate("sum", "v")])
        got = dict(
            zip(
                result.column("g").to_pylist(),
                result.column("sum_v").to_pylist(),
            )
        )
        assert got == {self.LONG_A: 9, self.LONG_B: 6, None: 6}

    def test_window_partitions_long_string_keys(self):
        spec = WindowSpec(partition_by=("g",), order_by=(SortKey("v"),))
        result = window(
            self.table(), spec, [WindowFunction("row_number")]
        )
        per_group = {}
        for g, v, number in zip(
            result.column("g").to_pylist(),
            result.column("v").to_pylist(),
            result.column("row_number").to_pylist(),
        ):
            per_group.setdefault(g, []).append((v, number))
        assert per_group[self.LONG_A] == [(1, 1), (3, 2), (5, 3)]
        assert per_group[self.LONG_B] == [(2, 1), (4, 2)]
        assert per_group[None] == [(6, 1)]


class TestRefineKeyOrderUnit:
    def test_inexact_prefix_end(self):
        table = Table.from_pydict({"s": ["x" * 30], "i": [1]})
        keys = normalize_keys(
            table,
            SortSpec.of("s", "i"),
            string_prefix=MAX_STRING_PREFIX,
            include_row_id=False,
        )
        end = inexact_prefix_end(keys.layout)
        segment = keys.layout.segments[0]
        assert end == segment.offset + segment.total_width
        exact = normalize_keys(
            table, SortSpec.of("i"), include_row_id=False
        )
        assert inexact_prefix_end(exact.layout) is None

    def test_refine_returns_none_when_prefix_decides(self):
        table = Table.from_pydict({"s": ["b" * 20, "a" * 20]})
        spec = SortSpec.of("s")
        keys = normalize_keys(
            table, spec, string_prefix=MAX_STRING_PREFIX,
            include_row_id=False,
        )
        order = np.argsort(
            [row.tobytes() for row in keys.matrix], kind="stable"
        )
        words = [word[order] for word in key_words(table, keys.layout)]

        def fetch(tied):
            raise AssertionError("no ties to fetch")

        assert refine_key_order(words, keys.layout, fetch) is None

    @pytest.mark.parametrize("spec_str", SPECS)
    def test_refine_from_row_slots_and_heap(self, spec_str):
        """The byte contract answered the merger's way -- ``(offset,
        length)`` slots into a heap, no ``str`` -- gives the permutation
        ``refine_table_order`` gets by encoding the decoded table."""
        rng = random.Random(5)
        deep = "shared_prefix_" + "=" * (3 * CHUNK_WIDTH)  # > 2 chunk rounds
        svals = [
            rng.choice([None, "", "shared_prefix_é日😀", deep + "a", deep + "b", deep])
            for _ in range(200)
        ]
        base = string_table(11, 200)
        table = base.concat(
            Table.from_pydict({"s": svals, "i": [i % 3 for i in range(200)]})
        )
        spec = spec_of(spec_str)
        keys = normalize_keys(
            table, spec, string_prefix=MAX_STRING_PREFIX, include_row_id=False
        )
        order = np.argsort(
            [row.tobytes() for row in keys.matrix], kind="stable"
        )
        words = key_words(table, keys.layout)
        expected_stats, stats = SortStats(), SortStats()
        expected = refine_table_order(
            table, words, keys.layout, order, expected_stats
        )
        block = RowBlock.from_table(table).take(order)
        heap = np.frombuffer(block.heap, dtype=np.uint8)

        def fetch(tied):
            def get(name):
                offsets, lengths = string_slots(
                    block.rows[tied], block.layout.slot(name)
                )
                return heap, offsets.astype(np.int64), lengths.astype(np.int64)

            return get

        sorted_words = [word[order] for word in words]
        perm = refine_key_order(sorted_words, keys.layout, fetch, stats)
        assert perm is not None
        assert order[perm].tolist() == expected.tolist()
        assert stats.reencode_rounds > 2
        assert (stats.full_key_compares, stats.reencoded_rows) == (
            expected_stats.full_key_compares,
            expected_stats.reencoded_rows,
        )
        assert_matches_oracle(table.take(order[perm]), table, spec)


class TestMaskedPrefixWord:
    """``ORDER BY i, s, x`` where the string's key bytes end mid-word.

    A one-byte ``i``, then ``s``'s indicator byte and 12-byte window, end
    at key byte 14; ``x``'s first two bytes share that word.  The strings
    tie on their windows within a stem, and ``x`` runs opposite to their
    full order, so a tie compare that read the whole last word would let
    ``x`` split the groups and decide the order.
    """

    SPEC = "i, s, x"

    @pytest.fixture(scope="class")
    def table(self):
        rng = random.Random(29)
        stems = ["a" + "m" * 20, "b" + "m" * 20]
        svals = [
            rng.choice(stems)
            + "".join(rng.choice("0123456789") for _ in range(rng.randrange(5)))
            for _ in range(3000)
        ]
        rank = {s: r for r, s in enumerate(sorted(set(svals)))}
        xvals = [2**63 - 1 - rank[s] * 2**50 - rng.randrange(2**40) for s in svals]
        ivals = [rng.randrange(2) for _ in svals]
        return Table.from_pydict({"i": ivals, "s": svals, "x": xvals})

    def test_layout_ends_the_string_mid_word(self, table):
        acc = KeyStatsAccumulator(table.schema, spec_of(self.SPEC))
        acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        assert [(s.offset, s.total_width) for s in layout.segments] == [
            (0, 1), (1, 13), (14, 8),
        ]
        assert inexact_prefix_end(layout) == 14

    def test_resident(self, table):
        spec = spec_of(self.SPEC)
        assert_matches_oracle(sort_table(table, spec), table, spec)

    def test_spilled_with_groups_across_merge_blocks(self, table, tmp_path):
        spec = spec_of(self.SPEC)
        block_rows = 128
        with ExternalSortOperator(
            table.schema, spec, SortConfig(run_threshold=1024),
            str(tmp_path), merge_block_rows=block_rows,
        ) as operator:
            for chunk in chunk_table(table, 512):
                operator.sink(chunk)
            result = operator.finalize()
        assert_matches_oracle(result, table, spec)
        stats = operator.stats
        # Every (i, stem) tie group outgrows the most one round can emit.
        groups = collections.Counter(
            zip(table.column("i").to_pylist(),
                (s[0] for s in table.column("s").to_pylist()))
        )
        assert min(groups.values()) > stats.runs_generated * block_rows
        assert stats.full_key_compares == table.num_rows

    def test_top_n(self, table):
        spec = spec_of(self.SPEC)
        got = top_n(table, spec, 200, offset=7)
        want = reference_sort(table, spec).slice(7, 207)
        for name in table.schema.names:
            assert got.column(name).to_pylist() == want.column(name).to_pylist()


class TestKeyBetweenTruncatedStrings:
    """``ORDER BY s, a DESC, t`` with both strings truncated: once ``s``
    is refined, its groups must split where ``a`` (and ``t``'s window)
    changes before ``t``'s full strings are consulted, or ``t`` would
    reorder rows whose ``a`` differs."""

    SPEC = "s, a DESC, t"
    CONFIG = SortConfig(string_prefix=4, run_threshold=700)

    @pytest.fixture(scope="class")
    def table(self):
        rng = random.Random(41)
        return Table.from_pydict({
            "s": [f"stem-{rng.randrange(3)}" for _ in range(2000)],
            "a": [rng.randrange(3) for _ in range(2000)],
            "t": [rng.choice(("tail", "tall")) + f"-{rng.randrange(3)}"
                  for _ in range(2000)],
        })

    def test_resident(self, table):
        spec = spec_of(self.SPEC)
        operator = SortOperator(table.schema, spec, self.CONFIG)
        for chunk in chunk_table(table, 512):
            operator.sink(chunk)
        assert_matches_oracle(operator.finalize(), table, spec)
        assert operator.stats.full_key_compares == table.num_rows

    def test_spilled(self, table, tmp_path):
        spec = spec_of(self.SPEC)
        result = sort_spilling(table, spec, self.CONFIG, str(tmp_path))
        assert_matches_oracle(result, table, spec)
