"""Top-N as cuts on the key: the boundaries the cuts created.

The per-row heap compared every row exactly; the vectorized operator
keeps the rows whose key is at most the ``capacity``-th smallest (cut on
a lead word, on the whole key word by word, or both) and sorts only
those, so what needs pinning is everything that happens *at* that cut:
equal keys arriving later, truncated-VARCHAR tie groups straddling it,
later batches whose layout differs from the first one's, inputs where
nothing or everything is dropped, a sample that misleads the lead cut,
and degenerate capacities and vector sizes.  Every case is checked
against the tuple-key ``sorted()`` oracle or ``reference_sort``, byte
for byte.

The operator absorbs every ``topn.BATCH_ROWS`` rows (eight default
vectors).  The inputs here are a few thousand rows, so :func:`batches_of`
shrinks the constant -- to eight of the *test's* vectors unless a case
says otherwise -- and most of the input arrives after the first absorb.
A batch of ``4 * topn.SAMPLE_WORDS`` rows (16,384) or more reads its lead
cut from a sample; :func:`samples_of` shrinks that constant too, so that
small inputs land on both sides of it.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_external_kway import assert_byte_identical
from test_oracle import oracle_sort
from repro.engine.database import Database
from repro.engine.operators import ScanOperator, TopNExecOperator
from repro.keys.normalizer import MAX_STRING_PREFIX, normalize_keys
from repro.scalar.reference import reference_sort
from repro.sort.stringsort import inexact_prefix_end
from repro.sort import topn
from repro.sort.topn import TopNOperator
from repro.table.chunk import DataChunk, chunk_table
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS


def spec_of(order_by: str) -> SortSpec:
    return SortSpec.of(*[part.strip() for part in order_by.split(",")])


def batches_of(rows: int):
    """Absorb every ``rows`` sunk rows instead of every ``BATCH_ROWS``."""
    return mock.patch.object(topn, "BATCH_ROWS", rows)


def samples_of(words: int):
    """Sample ``words`` lead words in a batch of ``4 * words`` rows or
    more, instead of ``SAMPLE_WORDS`` in one of 16,384."""
    return mock.patch.object(topn, "SAMPLE_WORDS", words)


def run_topn(table, spec, limit, offset=0, vector_size=1024):
    operator = TopNOperator(table.schema, spec, limit, offset)
    with batches_of(8 * vector_size):
        for chunk in chunk_table(table, vector_size):
            operator.sink(chunk)
        return operator.finalize(), operator


def assert_matches_oracle(table, spec, limit, offset, vector_size, context=""):
    expected = oracle_sort(table, spec).slice(offset, offset + limit)
    actual, _ = run_topn(table, spec, limit, offset, vector_size)
    try:
        assert actual.num_rows == expected.num_rows
        assert_byte_identical(expected, actual)
    except AssertionError as exc:
        raise AssertionError(
            f"Top-N diverged from the oracle ({context} rows={table.num_rows} "
            f"limit={limit} offset={offset} vector_size={vector_size}): {exc}"
        ) from exc


def assert_sorts_bounded(operator, rows, batch):
    """No survivor sort took more than ``2 * capacity + batch`` rows: one
    per absorb (one per ``batch`` sunk rows) and finalize's."""
    absorbs = -(-rows // batch) + 1
    capacity = operator.limit + operator.offset
    assert operator.stats.rows_sorted <= absorbs * (2 * capacity + batch)


def straddled_capacity(table, spec) -> int:
    """A capacity whose cutoff row sits inside a truncated-prefix tie group.

    Returns ``i`` such that oracle rows ``i - 1`` (the cutoff) and ``i``
    (the first row that must lose) are equal on the key bytes up to the
    end of the first truncated VARCHAR segment.
    """
    ordered = oracle_sort(table, spec)
    keys = normalize_keys(
        ordered, spec, string_prefix=MAX_STRING_PREFIX, include_row_id=False
    )
    end = inexact_prefix_end(keys.layout)
    assert end is not None, "scenario no longer truncates its strings"
    prefix = keys.matrix[:, :end]
    tied = np.flatnonzero(np.all(prefix[1:] == prefix[:-1], axis=1)) + 1
    # Past the first vector, so the cutoff exists before later chunks.
    late = tied[tied > 64]
    assert len(late), "no tie group away from the head of the order"
    return int(late[0])


def first_byte_stems(rows: int, seed: int) -> Table:
    """Strings ``<a|b|c> + 20 x + digits``, ``a`` and ``b`` rare.

    The rows a small capacity keeps start with ``a`` or ``b``: they share
    no byte for the key to skip, and their 12 key bytes tie inside each
    first byte, so their order comes from the full strings.
    """
    rng = np.random.default_rng(seed)
    firsts = rng.permutation(["a"] * 20 + ["b"] * 60 + ["c"] * (rows - 80))
    return Table.from_pydict(
        {
            "s": [f + "x" * 20 + str(rng.integers(10**6)) for f in firsts],
            "p": rng.integers(0, 50, rows).tolist(),
        }
    )


class TestTiesAtTheCutoff:
    def test_cutoff_duplicates_in_later_chunks_keep_arrival_order(self):
        keys = SCENARIOS["dup_heavy"].table(5000, seed=3).column("a").data
        table = Table.from_numpy(
            {"a": keys, "seq": np.arange(len(keys), dtype=np.int64)}
        )
        # 16 distinct keys over 5000 rows: the cutoff key has hundreds
        # of duplicates, most of them in chunks after the cutoff is set.
        for limit, offset in ((400, 0), (50, 300), (1, 0)):
            result, operator = run_topn(
                table, spec_of("a"), limit, offset, vector_size=256
            )
            stable = np.argsort(keys, kind="stable")[offset : offset + limit]
            assert result.column("seq").data.tolist() == stable.tolist()
            assert result.column("a").data.tolist() == keys[stable].tolist()
        assert_sorts_bounded(operator, table.num_rows, 8 * 256)

    @pytest.mark.parametrize(
        "name,order_by",
        [
            ("long_string", "s, p"),
            ("mixed_null", "a NULLS FIRST, f DESC, s"),
        ],
    )
    @pytest.mark.parametrize("vector_size", [97, 1024])
    def test_truncated_tie_group_straddles_cutoff(
        self, name, order_by, vector_size
    ):
        table = SCENARIOS[name].table(3000, seed=11)
        spec = spec_of(order_by)
        capacity = straddled_capacity(table, spec)
        for limit, offset in ((capacity, 0), (5, capacity - 5)):
            assert_matches_oracle(
                table, spec, limit, offset, vector_size, f"scenario={name}"
            )

    @pytest.mark.parametrize("vector_size", [97, 1024])
    def test_stems_tied_past_the_key_straddle_cutoff(self, vector_size):
        table = first_byte_stems(3000, seed=11)
        spec = spec_of("s, p")
        capacity = straddled_capacity(table, spec)
        for limit, offset in ((capacity, 0), (5, capacity - 5)):
            assert_matches_oracle(table, spec, limit, offset, vector_size)
        _, operator = run_topn(table, spec, capacity, 0, vector_size)
        assert operator.stats.full_key_compares > 0

    def test_later_column_never_preempts_a_truncated_string(self):
        stem = "m" * MAX_STRING_PREFIX
        # Sorted by (s, k DESC): 'ma' rows beat 'mb' rows whatever k is,
        # yet their key bytes differ only in the k segment.
        strings = [stem + "b"] * 6 + [stem + "a"] * 6 + ["zz"] * 4
        ks = [9, 8, 7, 6, 5, 4, 1, 2, 3, 1, 2, 3, 0, 0, 0, 0]
        table = Table.from_pydict(
            {"s": strings, "k": ks, "seq": list(range(len(ks)))}
        )
        for limit in range(1, 9):
            assert_matches_oracle(
                table, spec_of("s, k DESC"), limit, 0, vector_size=6
            )


class TestDecisivePrefixShrinks:
    def test_exact_chunk_then_truncating_chunk(self):
        stem = "m" * MAX_STRING_PREFIX
        first = ["b", "c", stem, "q", "r", "s", "t", "u"]
        second = [stem + "a", stem[:-1], stem, "zzz", "a", stem + "0", "d", "e"]
        table = Table.from_pydict(
            {
                "s": first + second,
                "k": [5, 5, 5, 5, 5, 5, 5, 5, 9, 1, 7, 1, 1, 0, 1, 1],
            }
        )
        spec = spec_of("s, k DESC")
        operator = TopNOperator(table.schema, spec, 3)
        chunks = list(chunk_table(table, 8))
        # One vector per batch: the second absorb's rows truncate where
        # the first's fit their window, and each gets its own layout.
        with batches_of(8):
            operator.sink(chunks[0])
            operator.sink(chunks[1])
            expected = oracle_sort(table, spec).slice(0, 3)
            assert_byte_identical(expected, operator.finalize())
        for limit in range(1, 10):
            for offset in (0, 2):
                assert_matches_oracle(table, spec, limit, offset, 8)


class TestSkippedPrefix:
    """Each absorb skips the string bytes its own rows share: a later
    batch whose strings lack the first batch's stem gets a layout of its
    own, and nothing is escaped or rebased."""

    @pytest.mark.parametrize("direction", ["", " DESC"])
    def test_later_batches_without_the_prefix(self, direction):
        rng = np.random.default_rng(3)
        first = [
            "shared-prefix-" + "".join(rng.choice(list("ab"), 14))
            for _ in range(40)
        ]
        later = [None, "", "a", "shared-pre", "shared-prefix-", "t" * 14]
        later.append("😀")
        strings = first + later * 6 + first[:10]
        table = Table.from_pydict(
            {"s": strings, "k": [i % 3 for i in range(len(strings))]}
        )
        spec = spec_of(f"s{direction}, k")
        operator = TopNOperator(table.schema, spec, 5)
        with batches_of(40):
            for chunk in chunk_table(table, 40):
                operator.sink(chunk)
            expected = oracle_sort(table, spec).slice(0, 5)
            assert_byte_identical(expected, operator.finalize())
        for limit in (1, 5, 30, 100):
            for offset in (0, 3):
                assert_matches_oracle(table, spec, limit, offset, 5)

    @pytest.mark.parametrize("direction", ["", " DESC"])
    def test_later_batches_widen_the_statistics(self, direction):
        # The first batch: stemmed strings and small non-NULL ints.  Later
        # batches bring NULLs, ints outside the first batch's range and
        # strings without its stem, on both the lead key and a later one.
        rng = np.random.default_rng(5)
        stems = [
            "stem-shared-" + "".join(rng.choice(list("xy"), 16))
            for _ in range(64)
        ]
        later = [None, "", "a", "stem-", "stem-shared-x", "zz" * 9, "😀"]
        strings = stems + [later[i % 7] for i in range(448)]
        ints = [int(i % 5) for i in range(64)] + [
            None if i % 11 == 0 else int(rng.integers(-(10**12), 10**12))
            for i in range(448)
        ]
        table = Table.from_pydict(
            {"a": ints, "s": strings, "keep": [1] * len(ints)}
        )
        db = Database()
        db.register("t", table)
        for order_by in (f"s{direction}, a", f"a{direction} NULLS FIRST, s"):
            spec = spec_of(order_by)
            for limit, offset in ((1, 0), (7, 3), (70, 0), (600, 0)):
                assert_matches_oracle(table, spec, limit, offset, 8)
                # A filter over a scan is one chunk (every row passes
                # here: the scan's own), sunk as one batch.
                expected = oracle_sort(table, spec).slice(offset, offset + limit)
                filtered = db.execute(
                    f"SELECT * FROM t WHERE keep = 1 "
                    f"ORDER BY {order_by} LIMIT {limit} OFFSET {offset}"
                )
                assert_byte_identical(expected, filtered)

    def test_lead_filter_keeps_rows_tied_on_the_lead(self):
        # Every row ties on the leading key: a cut on it keeps them all,
        # and the later keys decide.
        table = Table.from_pydict(
            {
                "a": [7] * 600,
                "b": list(range(600, 0, -1)),
                "c": list(range(600)),
            }
        )
        for limit in (1, 9, 50):
            assert_matches_oracle(table, spec_of("a, b"), limit, 2, 16)


class TestPruningExtremes:
    def test_reverse_input_every_row_survives(self):
        table = SCENARIOS["reverse"].table(4000, seed=0)
        spec = spec_of("a, p")
        assert_matches_oracle(table, spec, 100, 7, 64, "scenario=reverse")
        _, operator = run_topn(table, spec, 100, 7, 64)
        # Every batch beats the rows held before it, yet no sort takes
        # more than the held rows and one batch.
        assert_sorts_bounded(operator, table.num_rows, 8 * 64)

    def test_sorted_input_prunes_everything_after_the_first_compaction(self):
        values = np.arange(5000, dtype=np.int64)
        table = Table.from_numpy({"a": values, "p": values[::-1].copy()})
        result, operator = run_topn(table, spec_of("a"), 10, 2, 500)
        assert result.column("a").data.tolist() == list(range(2, 12))
        assert_sorts_bounded(operator, table.num_rows, 8 * 500)

    @pytest.mark.parametrize("vector_size", [1, 7, 1024])
    def test_buffer_stays_below_twice_capacity(self, vector_size):
        table = SCENARIOS["uniform"].table(3000, seed=5)
        capacity = 40
        batch = 8 * vector_size
        operator = TopNOperator(table.schema, spec_of("a, p"), 33, 7)
        with batches_of(batch):
            for chunk in chunk_table(table, vector_size):
                operator.sink(chunk)
                assert operator._pending_rows < batch
                assert operator._held.num_rows <= 2 * capacity


class TestDegenerateShapes:
    @pytest.mark.parametrize("vector_size", [1, 7, 1024])
    @pytest.mark.parametrize(
        "limit,offset",
        [(0, 0), (0, 5), (1, 0), (1, 1), (300, 0), (10, 295), (10, 400)],
    )
    def test_limits_offsets_and_vector_sizes(self, limit, offset, vector_size):
        table = SCENARIOS["mixed_null"].table(300, seed=9)
        spec = spec_of("a NULLS FIRST, f DESC, s")
        assert_matches_oracle(table, spec, limit, offset, vector_size)

    def test_zero_limit_touches_nothing(self):
        table = SCENARIOS["uniform"].table(2000, seed=1)
        result, operator = run_topn(table, spec_of("a"), 0, 9)
        assert result.num_rows == 0
        assert result.schema.names == table.schema.names
        assert operator.stats.rows_sorted == 0

    def test_empty_input(self):
        table = SCENARIOS["uniform"].table(10, seed=1).slice(0, 0)
        result, _ = run_topn(table, spec_of("a"), 5)
        assert result.num_rows == 0
        assert result.schema.names == table.schema.names


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 1500),
    limit=st.integers(0, 200),
    offset=st.integers(0, 60),
    vector_size=st.sampled_from([7, 64, 256, 1024]),
)
def test_differential_against_oracle(name, seed, rows, limit, offset, vector_size):
    scenario = SCENARIOS[name]
    table = scenario.table(rows, seed=seed)
    assert_matches_oracle(
        table,
        spec_of(scenario.order_by),
        limit,
        offset,
        vector_size,
        f"scenario={name} seed={seed}",
    )


class TestEngineSurface:
    def test_a_breakers_result_is_one_chunk(self):
        table = SCENARIOS["uniform"].table(2000, seed=2)
        spec = spec_of("a, p")
        operator = TopNExecOperator(
            ScanOperator(table),
            spec,
            limit=250,
        )
        [chunk] = operator.chunks()
        assert len(chunk) == 250 and chunk.selection is None
        assert chunk.to_table().equals(oracle_sort(table, spec).slice(0, 250))

    def test_stats_reach_execute_detailed(self):
        db = Database()
        db.register("t", SCENARIOS["long_string"].table(3000, seed=4))
        result, stats = db.execute_detailed(
            "SELECT * FROM t ORDER BY s, p LIMIT 20 OFFSET 3"
        )
        assert result.num_rows == 20
        assert len(stats) == 1
        topn = stats[0]
        assert topn.rows_sorted > 0
        # The survivors' sort leaves no prefix tie for the kernel: the
        # shared stem is skipped as constant words.
        assert topn.sort_passes >= 1
        assert topn.sort_tied_rows == 0
        # The strings share their first 15 bytes, which the key skips as
        # the full sort's does: the bytes after them decide every row, so
        # no string is consulted.
        assert (topn.reencoded_rows, topn.full_key_compares) == (0, 0)
        # Survivors that differ in their first byte leave nothing to skip
        # and tie on the 12 bytes after it: the order comes from the
        # tie-group refinement, and the counters say so.
        db.register("u", first_byte_stems(3000, seed=4))
        sql = "SELECT * FROM u ORDER BY s, p LIMIT 20 OFFSET 3"
        result, (topn,) = db.execute_detailed(sql)
        assert result.equals(db.execute(sql.split(" LIMIT")[0]).slice(3, 23))
        assert topn.reencoded_rows > 0
        assert topn.full_key_compares > 0


def lead_values(shape: str, rng, rows: int) -> np.ndarray:
    """A lead column: ascending, descending, constant, four values (ties
    straddle every cut) or spread over a wide range."""
    if shape == "ascending":
        return np.arange(rows, dtype=np.int64)
    if shape == "descending":
        return np.arange(rows, 0, -1, dtype=np.int64)
    if shape == "constant":
        return np.full(rows, 7, dtype=np.int64)
    if shape == "four":
        return rng.integers(0, 4, rows)
    return rng.integers(-(10**9), 10**9, rows)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(["ascending", "descending", "constant", "four", "wide"]),
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 2500),
    limit=st.integers(1, 90),
    offset=st.integers(0, 40),
    lead=st.sampled_from(
        ["a", "a DESC", "a NULLS FIRST", "a DESC NULLS LAST", "s", "s DESC NULLS FIRST"]
    ),
    nulls=st.booleans(),
    batch=st.sampled_from([48, 1024, 2048]),
)
def test_cuts_match_the_reference_slice(
    shape, seed, rows, limit, offset, lead, nulls, batch
):
    # SAMPLE_WORDS 64: a batch of 256 rows or more cuts on its lead word
    # first and samples it unless capacity is too large a share of it, so
    # batches of 48 rows (plus the held ones) never do, and most of 1,024
    # or 2,048 rows do.  ``s`` is a truncated VARCHAR lead, NULL where
    # ``a`` is: 12 key bytes reach only its first byte and 11 of the 14
    # x's after it, and its lead word 8 bytes past the common prefix.
    rng = np.random.default_rng(seed)
    values = lead_values(shape, rng, rows)
    validity = rng.random(rows) >= 0.1 if nulls else np.ones(rows, dtype=bool)
    table = Table.from_pydict(
        {
            "a": [int(v) if ok else None for v, ok in zip(values, validity)],
            "s": [
                f"{v % 3}{'x' * 14}{v}" if ok else None
                for v, ok in zip(values, validity)
            ],
            "p": rng.integers(0, 3, rows).tolist(),
            "seq": list(range(rows)),
        }
    )
    spec = spec_of(f"{lead}, p")
    expected = reference_sort(table, spec).slice(offset, offset + limit)
    operator = TopNOperator(table.schema, spec, limit, offset)
    with batches_of(batch), samples_of(64):
        for chunk in chunk_table(table, 100):
            operator.sink(chunk)
            assert operator._held.num_rows <= 2 * (limit + offset)
        assert_byte_identical(expected, operator.finalize())


class TestSampledCut:
    def sunk_whole(self, table, spec, limit, offset=0):
        operator = TopNOperator(table.schema, spec, limit, offset)
        with samples_of(64), mock.patch.object(
            topn, "key_cut", wraps=topn.key_cut
        ) as key_cut:
            operator.sink(DataChunk.from_table(table))
            result = operator.finalize()
        # The exact partition of every lead word: key_cut on a single
        # column as long as the table.
        exact = [
            call for call in key_cut.call_args_list
            if len(call.args[0]) == 1 and len(call.args[0][0]) == table.num_rows
        ]
        return result, bool(exact)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_sample_decides_a_large_batch(self, seed):
        table = SCENARIOS["uniform"].table(1024, seed=seed)
        spec = spec_of("a, p")
        result, exact = self.sunk_whole(table, spec, 13, 7)
        assert not exact
        assert_byte_identical(reference_sort(table, spec).slice(7, 20), result)

    def test_a_sample_of_the_smallest_words_falls_back_to_every_word(self):
        # 1,024 rows in 64 strides of 16: each stride's first row holds
        # one of the 64 smallest keys, so the sample is those 64 and its
        # provisional cut (rank 2 * 20 // 16 + 8 = 10) keeps 11 rows,
        # fewer than capacity 20.  Every lead word is partitioned then.
        rows = np.arange(1024)
        sampled = rows % 16 == 0
        keys = np.where(sampled, rows // 16, 1000 + rows)
        table = Table.from_numpy({"a": keys, "p": rows[::-1].copy()})
        spec = spec_of("a, p")
        result, exact = self.sunk_whole(table, spec, 12, 8)
        assert exact
        assert result.column("a").data.tolist() == list(range(8, 20))
        assert_byte_identical(reference_sort(table, spec).slice(8, 20), result)


class TestWholeKeyCut:
    def test_lead_ties_reach_no_survivor_sort_in_sink(self):
        # The matrix gate's shape: 24,000 rows in 1,024-row vectors, three
        # absorbs of 8,192.  On the lead word alone ~500 (dup_heavy) or
        # ~2,100 (zipf_skew) rows of each batch tie with the cut; the
        # whole-key cut leaves 107, and only finalize sorts them.
        for name in ("dup_heavy", "zipf_skew"):
            table = SCENARIOS[name].table(24_000, seed=17)
            spec = spec_of("a, p")
            operator = TopNOperator(table.schema, spec, 100, 7)
            for chunk in chunk_table(table):
                operator.sink(chunk)
            result = operator.finalize()
            assert operator.stats.rows_sorted <= 2 * 107, name
            assert_byte_identical(reference_sort(table, spec).slice(7, 107), result)

    def test_full_duplicates_are_all_kept_in_arrival_order(self):
        rng = np.random.default_rng(4)
        table = Table.from_numpy(
            {
                "a": rng.integers(0, 2, 3000),
                "b": rng.integers(0, 2, 3000),
                "seq": np.arange(3000),
            }
        )
        spec = spec_of("a, b")
        # ~750 rows tie on the whole key with the cut: every one is kept,
        # and the survivor sort breaks the tie by arrival.
        result, operator = run_topn(table, spec, 40, 5, vector_size=100)
        assert_byte_identical(reference_sort(table, spec).slice(5, 45), result)
        assert operator.stats.rows_sorted > 2 * 45

    @pytest.mark.parametrize("vector_size", [97, 1024])
    def test_truncated_varchar_ties_reach_the_string_repair(self, vector_size):
        # Every row ties on ``k``; the strings' 12 key bytes tie inside
        # each first byte, so the cut keeps whole prefix tie groups and
        # the full strings order them, before ``p``.
        stems = first_byte_stems(3000, seed=6)
        table = Table.from_pydict(
            {
                "k": [1] * 3000,
                "s": stems.column("s").to_pylist(),
                "p": stems.column("p").to_pylist(),
            }
        )
        spec = spec_of("k, s, p DESC")
        for limit, offset in ((30, 0), (5, 40)):
            assert_matches_oracle(table, spec, limit, offset, vector_size)
        _, operator = run_topn(table, spec, 30, 0, vector_size)
        assert operator.stats.full_key_compares > 0

    @pytest.mark.parametrize(
        "order_by",
        ["a NULLS FIRST, b DESC", "a NULLS LAST, b DESC", "a DESC NULLS FIRST, b"],
    )
    def test_nulls_sharing_an_edge_code_with_a_value(self, order_by):
        # INT64_MIN and INT64_MAX take the lowest and highest order codes,
        # the ones NULLs fold into: a word that ranks the NULLs keeps each
        # on its side of the values it ties with there.
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        values = [None, lo, hi, None, lo, hi, 0] * 40
        table = Table.from_pydict({"a": values, "b": list(range(len(values)))})
        for limit in (1, 30, 45, 85):
            assert_matches_oracle(table, spec_of(order_by), limit, 3, 64)

    def test_a_constant_first_word_is_cut_on_the_next(self):
        words = [
            np.full(6, 5, dtype=np.uint64),
            np.array([9, 3, 7, 3, 1, 8], dtype=np.uint64),
        ]
        assert topn.key_cut(words, 3).tolist() == [1, 3, 4]
        assert topn.key_cut(words, 2).tolist() == [1, 3, 4]
        assert topn.key_cut(words, 6) is None
