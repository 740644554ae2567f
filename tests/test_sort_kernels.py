"""Cross-checks of the vectorized kernel layer against the scalar paths.

The contract of :mod:`repro.sort.kernels` is byte-identical results: every
kernel (the packed-word whole-row sort, searchsorted merge, the
operator and external-sort fast paths) must reproduce exactly what the
scalar row-at-a-time code (:func:`repro.scalar.reference.reference_sort`
end to end) produces, across mixed types, DESC keys, NULLS
FIRST/LAST, duplicate keys, and truncated VARCHAR prefixes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_sort, round_ids, sort_resident_runs, sort_spilling
from repro.errors import SortError
from repro.scalar.radix import RadixStats, lsd_radix_argsort
from repro.scalar.reference import reference_sort as scalar_reference_sort, void_view
from repro.sort import kernels
from repro.sort.heuristic import vector_sort_rows
from repro.sort.kernels import (
    KWayBlockStats,
    argsort_rows,
    argsort_words,
    kway_merge_blocks,
    merge_indices,
)
from repro.sort.operator import SortConfig, SortOperator, SortStats, sort_table
from repro.table.chunk import chunk_table
from repro.table.table import Table
from repro.types.datatypes import FLOAT, INTEGER, VARCHAR
from repro.types.sortspec import SortSpec


def random_matrix(rng, n, width, alphabet=256):
    """Random key matrix; a small alphabet forces many duplicate rows."""
    return rng.integers(0, alphabet, size=(n, width)).astype(np.uint8)


def row_bytes(matrix):
    return [matrix[i].tobytes() for i in range(len(matrix))]


def tmp_path_mk(tmp_path, name):
    """A fresh, existing spill directory under pytest's tmp_path."""
    path = tmp_path / name
    path.mkdir(exist_ok=True)
    return path


class TestVoidView:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 9, 13, 21, 32])
    def test_scalar_order_is_memcmp_order(self, rng, width):
        # The sort/search kernels use the dtype's compare function, which
        # the field tuples expose directly (big-endian unsigned fields in
        # declaration order == memcmp).
        matrix = random_matrix(rng, 100, width, alphabet=4)
        view = void_view(matrix)
        raw = row_bytes(matrix)
        for i in range(0, 100, 7):
            for j in range(0, 100, 11):
                assert (view[i].item() < view[j].item()) == (raw[i] < raw[j])
                assert (view[i].item() == view[j].item()) == (raw[i] == raw[j])

    def test_no_copy_for_contiguous(self, rng):
        matrix = random_matrix(rng, 10, 8)
        assert void_view(matrix).base is matrix

    def test_rejects_bad_input(self):
        with pytest.raises(SortError):
            void_view(np.zeros((3, 4), dtype=np.int32))
        with pytest.raises(SortError):
            void_view(np.zeros(5, dtype=np.uint8))
        with pytest.raises(SortError):
            void_view(np.zeros((3, 0), dtype=np.uint8))


class TestArgsortRows:
    @pytest.mark.parametrize("width", [1, 3, 8, 13])
    @pytest.mark.parametrize("alphabet", [2, 256])
    def test_matches_stable_bytes_sort(self, rng, width, alphabet):
        matrix = random_matrix(rng, 500, width, alphabet)
        raw = row_bytes(matrix)
        expected = sorted(range(500), key=lambda i: (raw[i], i))
        assert argsort_rows(matrix).tolist() == expected

    def test_stability_on_duplicates(self, rng):
        matrix = np.zeros((64, 5), dtype=np.uint8)  # all rows identical
        assert argsort_rows(matrix).tolist() == list(range(64))


class TestMergeIndices:
    @pytest.mark.parametrize("width", [1, 4, 9, 13])
    @pytest.mark.parametrize("sizes", [(0, 5), (5, 0), (1, 1), (200, 317)])
    def test_matches_scalar_merge(self, rng, width, sizes):
        n, m = sizes
        a = random_matrix(rng, n, width, alphabet=3)
        b = random_matrix(rng, m, width, alphabet=3)
        a = a[argsort_rows(a)] if n else a
        b = b[argsort_rows(b)] if m else b
        perm = merge_indices(a, b)
        combined = row_bytes(a) + row_bytes(b)
        merged = [combined[i] for i in perm]
        assert merged == sorted(combined)
        # Stability: on ties, left-run rows must come first.
        seen_right_for: dict[bytes, bool] = {}
        for position, source in enumerate(perm):
            key = merged[position]
            if source >= n:
                seen_right_for[key] = True
            else:
                assert not seen_right_for.get(key, False), (
                    f"left row after right row for duplicate key {key!r}"
                )

    def test_width_mismatch_raises(self):
        with pytest.raises(SortError):
            merge_indices(
                np.zeros((2, 3), dtype=np.uint8), np.zeros((2, 4), dtype=np.uint8)
            )


class TestRadixVectorFinish:
    def test_lsd_skip_copy_without_gather(self, rng):
        # Middle byte constant: its pass must be skipped, result unchanged.
        matrix = random_matrix(rng, 300, 3)
        matrix[:, 1] = 42
        stats = RadixStats()
        order = lsd_radix_argsort(matrix, stats)
        raw = row_bytes(matrix)
        assert [raw[i] for i in order] == sorted(raw)
        assert stats.skipped_passes == 1
        assert stats.passes == 3


MIXED_SPECS = [
    "i ASC NULLS FIRST",
    "i DESC NULLS LAST, f ASC",
    "s DESC NULLS FIRST, i ASC NULLS LAST",
    "f DESC, s ASC, i DESC",
]


class TestOperatorCrossCheck:
    """The operator and the scalar reference must be byte-identical."""

    def _cross_check(self, table, spec, run_threshold):
        spec = SortSpec.of(*[part.strip() for part in spec.split(",")])
        on = sort_table(table, spec, SortConfig(run_threshold=run_threshold))
        assert on.equals(scalar_reference_sort(table, spec))
        assert on.equals(reference_sort(table, spec))
        if table.num_rows:
            # ... and as resident runs of run_threshold rows, merged.
            runs = -(-table.num_rows // run_threshold)
            assert sort_resident_runs(table, spec, runs)[0].equals(on)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-5, 5)),
                st.one_of(st.none(), st.floats(allow_nan=False, width=32)),
                st.one_of(st.none(), st.text(alphabet="abXY", max_size=5)),
            ),
            max_size=60,
        ),
        spec_text=st.sampled_from(MIXED_SPECS),
        run_threshold=st.sampled_from([8, 64, 1 << 17]),
    )
    def test_mixed_types_nulls_desc(self, rows, spec_text, run_threshold):
        table = Table.from_pydict(
            {
                "i": [r[0] for r in rows],
                "f": [r[1] for r in rows],
                "s": [r[2] for r in rows],
            },
            dtypes={"i": INTEGER, "f": FLOAT, "s": VARCHAR},
        )
        self._cross_check(table, spec_text, run_threshold)

    def test_truncated_varchar_prefixes(self, rng):
        # Strings sharing a >12-byte prefix: tie-group refinement on the
        # operator, the segment-wise comparator in the scalar reference.
        values = [f"{'common-prefix-x'}{int(i):04d}" for i in rng.integers(0, 40, 400)]
        table = Table.from_pydict({"s": values, "seq": list(range(400))})
        self._cross_check(table, "s DESC, seq", 64)

    def test_duplicate_keys_stability(self):
        n = 400
        table = Table.from_pydict({"k": [3] * n, "seq": list(range(n))})
        result = sort_table(table, "k", SortConfig(run_threshold=32))
        assert result.column("seq").to_pylist() == list(range(n))

    def test_kernel_merge_counter(self, rng):
        table = Table.from_numpy(
            {"a": rng.integers(0, 100, 1000).astype(np.int32)}
        )
        # The operator's one run is the result: no kernel pass to count.
        op = SortOperator(table.schema, SortSpec.of("a"), SortConfig(run_threshold=100))
        for chunk in chunk_table(table, 64):
            op.sink(chunk)
        op.finalize()
        assert op.stats.runs_generated == 1
        assert op.stats.merge_passes == 0
        assert op.stats.kernel_kway_merges == 0
        # Ten resident runs through the same stages: one pass, counted.
        _, stats = sort_resident_runs(table, SortSpec.of("a"), 10)
        assert stats.runs_generated == 10
        assert stats.merge_passes == 1
        assert stats.kernel_kway_merges == 1

    def test_inexact_prefix_stays_on_kernel_path(self):
        # Strings tying beyond the 12-byte prefix: the merge repairs the
        # tie groups on the full strings.
        # (two stems that differ in the first byte: nothing to skip).
        values = [f"{'xy'[i % 2]}{'y' * 12}{i:03d}" for i in range(300)]
        table = Table.from_pydict({"s": values})
        op = SortOperator(table.schema, SortSpec.of("s"), SortConfig(run_threshold=64))
        for chunk in chunk_table(table, 32):
            op.sink(chunk)
        result = op.finalize()
        assert op.stats.merge_passes == 1
        assert op.stats.kernel_kway_merges == 1
        assert op.stats.full_key_compares > 0
        assert result.column("s").to_pylist() == sorted(values)


class TestExternalCrossCheck:
    def test_integers(self, rng, tmp_path):
        table = Table.from_numpy(
            {
                "a": rng.integers(0, 50, 2000).astype(np.int64),
                "b": rng.integers(0, 10, 2000).astype(np.int32),
            }
        )
        spec = SortSpec.of("a DESC", "b")
        config_on = SortConfig(run_threshold=256)
        on = sort_spilling(table, spec, config_on, str(tmp_path_mk(tmp_path, "on")))
        assert on.equals(scalar_reference_sort(table, spec))
        assert on.equals(reference_sort(table, spec))

    def test_strings(self, rng, tmp_path):
        words = ["pear", "fig", "apple", "kiwi", "plum", None, "date"]
        values = [words[i] for i in rng.integers(0, len(words), 900)]
        table = Table.from_pydict({"s": values, "seq": list(range(900))})
        spec = SortSpec.of("s NULLS FIRST", "seq")
        on = sort_spilling(
            table, spec, SortConfig(run_threshold=128), str(tmp_path_mk(tmp_path, "on"))
        )
        assert on.equals(scalar_reference_sort(table, spec))
        assert on.equals(reference_sort(table, spec))


class TestChunkColumns:
    def test_word_columns_share_one_buffer(self, rng):
        # The rewrite pads/byteswaps/transposes the whole matrix at most
        # three times total; the per-word columns are views of one buffer,
        # never per-word temporaries.
        matrix = random_matrix(rng, 100, 13)
        columns = kernels._chunk_columns(matrix)
        assert len(columns) == 2
        base = columns[0].base
        assert base is not None
        assert all(column.base is base for column in columns)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 21])
    def test_order_matches_memcmp(self, rng, width):
        matrix = random_matrix(rng, 200, width, alphabet=4)
        columns = kernels._chunk_columns(matrix)
        raw = row_bytes(matrix)
        key = lambda i: tuple(int(col[i]) for col in columns)
        for i in range(0, 200, 13):
            for j in range(0, 200, 17):
                assert (key(i) < key(j)) == (raw[i] < raw[j])

    def test_kway_merge_chunks_once_per_refill(self, rng, monkeypatch):
        # Regression: a run's key block becomes words exactly once per
        # block refill, never once per emitted round (the old
        # zero-pad-per-call pattern made every chunking a full-matrix
        # copy, so per-round re-chunking was quadratic).  The kernel
        # takes word blocks and converts nothing itself; a spilled block
        # is converted as it is read, as the source below does.
        runs = []
        for _ in range(4):
            matrix = random_matrix(rng, 600, 13, alphabet=5)
            runs.append(matrix[argsort_rows(matrix)])
        block_rows = 50
        blocks_fed = sum(-(-len(run) // block_rows) for run in runs)

        calls = []
        original = kernels._chunk_columns
        monkeypatch.setattr(
            kernels,
            "_chunk_columns",
            lambda matrix: calls.append(len(matrix)) or original(matrix),
        )

        def block_iter(matrix):
            for start in range(0, len(matrix), block_rows):
                block = matrix[start : start + block_rows]
                yield kernels._chunk_columns(block)

        stats = KWayBlockStats()
        emitted = [
            round_ids(order, spans)
            for order, spans in kway_merge_blocks(
                [block_iter(run) for run in runs], stats
            )
        ]
        merged = [
            runs[r][p].tobytes() for ids, rows in emitted for r, p in zip(ids, rows)
        ]
        assert merged == sorted(b for run in runs for b in row_bytes(run))
        # One chunking per refilled block -- and every call covered at most
        # one block, never a whole run's matrix.
        assert len(calls) == stats.refills == blocks_fed
        assert stats.rounds > len(runs)  # merge genuinely ran many rounds
        assert max(calls) <= block_rows


class TestKWayRound:
    """``kway_merge_blocks`` against a stable ``np.lexsort`` of the runs
    concatenated in run order: ties go to the earlier run, then the
    earlier row.

    Words come from five values, two above 2**53 (a float promotion
    would merge them), so keys repeat within and across runs and equal
    block tails on every word; sources yield empty blocks between and
    after their real ones, and some runs are empty.  Merged words handed
    to ``out`` must be those a merge without it emits.
    """

    VALUES = np.array([0, 1, 2**53, 2**53 + 1, 2**64 - 1], dtype=np.uint64)
    LENGTHS = (0, 1, 9, 40, 300, 0, 701, 17)

    def runs(self, rng, words):
        runs = []
        for length in self.LENGTHS:
            rows = self.VALUES[rng.integers(0, len(self.VALUES), (length, words))]
            runs.append(rows[np.lexsort(rows.T[::-1])])
        return runs

    @staticmethod
    def blocks(run, block_rows, as_list):
        empty = np.empty((run.shape[1], 0), dtype=np.uint64)
        for start in range(0, len(run), block_rows):
            yield empty
            columns = np.ascontiguousarray(run[start : start + block_rows].T)
            yield list(columns) if as_list else columns
        yield empty

    @pytest.mark.parametrize("emit_keys", [False, True])
    @pytest.mark.parametrize("block_rows", [1, 2, 7, 64, 1024])
    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_stable_lexsort(self, rng, words, block_rows, emit_keys):
        runs = self.runs(rng, words)
        stacked = np.concatenate(runs)
        # Some block tail of run 4 equals, on every word, a row of run 6.
        tails = {
            tuple(runs[4][min(stop, len(runs[4])) - 1])
            for stop in range(block_rows, len(runs[4]) + block_rows, block_rows)
        }
        assert tails & {tuple(row) for row in runs[6]}
        order = np.lexsort(stacked.T[::-1])
        owner = np.repeat(np.arange(len(runs)), self.LENGTHS)
        first = np.cumsum((0,) + self.LENGTHS[:-1])
        # No ``out``; ``out`` as word columns (a key-carried result); as a
        # row matrix's strided transpose (a new run's keys).
        for out in (
            None,
            np.zeros(stacked.shape[::-1], np.uint64),
            np.zeros(stacked.shape, np.uint64).T,
        ):
            stats = KWayBlockStats()
            sources = [
                self.blocks(run, block_rows, index % 2)
                for index, run in enumerate(runs)
            ]
            items = list(
                kway_merge_blocks(sources, stats, emit_keys=emit_keys, out=out)
            )
            assert all(len(item) == 2 + emit_keys for item in items)
            run_ids, row_ids = (
                np.concatenate(part)
                for part in zip(*(round_ids(*item[:2]) for item in items))
            )
            assert run_ids.tolist() == owner[order].tolist()
            assert row_ids.tolist() == (order - first[owner[order]]).tolist()
            if emit_keys:
                merged = [np.concatenate(w) for w in zip(*(i[2] for i in items))]
                assert np.array_equal(np.stack(merged, axis=1), stacked[order])
                if out is not None:  # the rounds' slices of ``out``
                    assert all(np.shares_memory(i[2][0], out) for i in items)
            if out is not None:
                assert np.array_equal(out.T, stacked[order])
            assert stats.rows_emitted == len(stacked)
            assert stats.refills == sum(-(-len(r) // block_rows) for r in runs)
            bound = len(runs) * (block_rows + block_rows // 4)
            assert stats.peak_frontier_rows <= bound


class TestFrontierTopUp:
    """A frontier holding fewer than a quarter of its last block's rows
    pulls its run's next block before the round's cutoff is taken, so a
    round is not cut on a sliver one run kept from the round before."""

    def test_rounds_stay_near_one_per_block_layer(self, rng):
        # 16 runs of 4 blocks of uniform keys: the sliver rounds of a
        # drain-only refill made 64 rounds of this.
        k, layers, block_rows = 16, 4, 1024
        runs = [
            np.sort(rng.integers(0, 2**63, layers * block_rows, np.uint64))[:, None]
            for _ in range(k)
        ]
        stats = KWayBlockStats()
        sources = [TestKWayRound.blocks(run, block_rows, False) for run in runs]
        rounds = list(kway_merge_blocks(sources, stats))
        assert stats.rounds == len(rounds) <= 2 * layers
        assert stats.rows_emitted == k * layers * block_rows
        assert stats.refills == k * layers  # each block pulled once
        assert stats.peak_frontier_rows <= k * (block_rows + block_rows // 4)

    @pytest.mark.parametrize("block_rows", [7, 64, 66])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_remainder_at_the_top_up_threshold(self, block_rows, extra):
        # Run 0's first block ends on the cutoff; every other run keeps
        # ``keep + extra`` rows above it.  ``keep`` is one row under the
        # threshold (4 * keep < block_rows), ``keep + 1`` at it.
        k, keep = 5, (block_rows - 1) // 4
        assert 4 * keep < block_rows <= 4 * (keep + 1)
        cutoff = 10**6
        above = cutoff + 1 + np.arange(2 * block_rows + keep + extra)
        runs = [np.concatenate([np.arange(block_rows - 1), [cutoff], above])]
        runs += [
            np.concatenate([np.arange(block_rows - keep - extra), above])
            for _ in range(k - 1)
        ]
        runs = [run.astype(np.uint64)[:, None] for run in runs]
        stats = KWayBlockStats()
        sources = [TestKWayRound.blocks(run, block_rows, False) for run in runs]
        items = kway_merge_blocks(sources, stats, emit_keys=True)
        two = [next(items), next(items)]
        bound = k * (block_rows + block_rows // 4)
        if extra:  # no top-up: the first round's k blocks stay the peak
            assert stats.peak_frontier_rows == k * block_rows
        else:
            # Round two: run 0 drained (the cutoff owner always does) and
            # holds its next block; the others hold ``keep`` + a block.
            # Unless 4 divides the block, ``keep`` is ``block_rows // 4``:
            # the bound, short of the quarter block run 0 did not keep.
            peak = k * (block_rows + keep) - keep
            assert stats.peak_frontier_rows == peak > k * block_rows
            assert block_rows % 4 == 0 or peak == bound - keep
        merged = np.concatenate([item[2][0] for item in [*two, *items]])
        assert merged.tolist() == np.sort(np.concatenate(runs)[:, 0]).tolist()
        assert stats.peak_frontier_rows <= bound


def stable_reference(matrix):
    """The contract: a stable sort of the rows as memcmp-ordered scalars."""
    return np.argsort(void_view(matrix), kind="stable")


def assert_kernel_matches(matrix):
    expected = stable_reference(matrix).tolist()
    by_rows = argsort_rows(matrix)
    assert by_rows.dtype == np.int64
    assert by_rows.tolist() == expected
    by_words = argsort_words(kernels._chunk_columns(matrix))
    assert by_words.dtype == np.int64
    assert by_words.tolist() == expected


def shared_prefix_matrix(rng, n, width):
    """Rows equal on every byte but the last bit of the last byte."""
    matrix = np.full((n, width), 0xAB, dtype=np.uint8)
    matrix[:, -1] = rng.integers(0, 2, n)
    return matrix


@pytest.fixture(params=[None, 0, 1 << 62], ids=["measured", "never", "always"])
def lexsort_finish(request, monkeypatch):
    """Run a test with the measured small-input finish, with it disabled
    (packed passes all the way down) and with it taken at once."""
    if request.param is not None:
        monkeypatch.setattr(kernels, "LEXSORT_FINISH_ROWS", request.param)


class TestPackedWordSort:
    """``argsort_rows`` / ``argsort_words`` against numpy's stable sort of
    the same rows (CI runs this file under ``-W error::RuntimeWarning``:
    no shift count may reach 64)."""

    @pytest.mark.parametrize("width", [9, 13, 16])
    @pytest.mark.parametrize("alphabet", [2, 5, 256])
    def test_matches_stable_void_argsort(self, rng, width, alphabet):
        assert_kernel_matches(random_matrix(rng, 3000, width, alphabet))

    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025])
    def test_every_width_around_the_finish_row_count(self, rng, n):
        for width in range(1, 41):
            assert_kernel_matches(random_matrix(rng, n, width, alphabet=3))
            assert_kernel_matches(random_matrix(rng, n, width))

    @pytest.mark.parametrize("n", [65535, 65536, 65537])
    @pytest.mark.parametrize("width", [1, 5, 8, 9, 23, 40])
    def test_index_bits_boundary(self, rng, n, width):
        assert_kernel_matches(random_matrix(rng, n, width, alphabet=4))

    def test_all_rows_equal(self, lexsort_finish):
        for width in (5, 8, 21):
            matrix = np.full((3000, width), 7, dtype=np.uint8)
            assert argsort_rows(matrix).tolist() == list(range(3000))

    @pytest.mark.parametrize("width", [5, 9, 24, 40])
    def test_every_key_twice_keeps_input_order(self, rng, width, lexsort_finish):
        half = random_matrix(rng, 2000, width)
        matrix = np.concatenate([half, half])[rng.permutation(4000)]
        order = argsort_rows(matrix)
        assert order.tolist() == stable_reference(matrix).tolist()
        pairs = order.reshape(-1, 2)
        assert (matrix[pairs[:, 0]] == matrix[pairs[:, 1]]).all()
        assert (pairs[:, 0] < pairs[:, 1]).all()

    @pytest.mark.parametrize("width", [9, 17, 33, 40])
    def test_shared_prefix_longer_than_two_passes(
        self, rng, width, lexsort_finish
    ):
        assert_kernel_matches(shared_prefix_matrix(rng, 3000, width))

    @pytest.mark.parametrize("lead", [0x00, 0xFF])
    def test_extreme_leading_bytes_and_constant_first_word(
        self, rng, lead, lexsort_finish
    ):
        matrix = random_matrix(rng, 3000, 19, alphabet=3)
        matrix[:, :3] = lead
        assert_kernel_matches(matrix)
        matrix[:, :8] = lead  # the whole first word constant
        assert_kernel_matches(matrix)

    def test_stability_and_constant_prefix(self, rng):
        matrix = random_matrix(rng, 2500, 12, alphabet=3)
        matrix[:, :6] = 77
        assert_kernel_matches(matrix)

    def test_small_input_and_empty(self, rng):
        assert_kernel_matches(random_matrix(rng, 7, 10))
        assert argsort_rows(np.zeros((0, 10), dtype=np.uint8)).tolist() == []

    @pytest.mark.parametrize("keep", [1, 7, 8, 9, 20])
    def test_non_contiguous_views(self, rng, keep, lexsort_finish):
        # What run generation passes: the key bytes of rows that carry a
        # row-id suffix, a column slice that is not C-contiguous.
        wide = random_matrix(rng, 2500, 29, alphabet=3)
        assert_kernel_matches(wide[:, :keep])
        assert_kernel_matches(wide[::2, 3 : 3 + keep])
        assert_kernel_matches(wide[:, : 2 * keep : 2])  # strided bytes

    @pytest.mark.parametrize("pack_bits", [14, 20, 33])
    def test_no_room_for_a_key_bit_finishes_with_lexsort(
        self, rng, monkeypatch, pack_bits
    ):
        # Shrink the packed word until group and position bits leave no
        # room for a key bit (2**31 tied rows at the real 64).
        monkeypatch.setattr(kernels, "_PACK_BITS", pack_bits)
        for width, alphabet in ((3, 2), (9, 4), (24, 256)):
            assert_kernel_matches(random_matrix(rng, 5000, width, alphabet))
        assert_kernel_matches(shared_prefix_matrix(rng, 5000, 17))

    def test_counts_are_exact_and_repeat(self, rng):
        def counts(matrix):
            stats = SortStats()
            argsort_rows(matrix, stats)
            argsort_rows(matrix, stats)  # counts accumulate per call
            return stats.sort_passes // 2, stats.sort_tied_rows // 2

        assert counts(random_matrix(rng, 5000, 16)) == (1, 0)
        assert counts(random_matrix(rng, 500, 16)) == (1, 0)  # one lexsort
        # Four first words: every row tied after the first pass, the
        # second word separates them.
        stems = random_matrix(rng, 5000, 16)
        stems[:, :8] = random_matrix(rng, 4, 8)[rng.integers(0, 4, 5000)]
        assert counts(stems) == (2, 5000)
        # Full duplicates are dropped by the adjacent compare: no pass.
        twice = np.repeat(random_matrix(rng, 2500, 24), 2, axis=0)
        assert counts(twice) == (1, 5000)
        # Constant words are skipped; the one bit that varies ties every
        # row with a full duplicate.
        assert counts(shared_prefix_matrix(rng, 5000, 17)) == (1, 5000)

    @pytest.mark.parametrize("shape", [(100, 16), (6000, 6), (6000, 16)])
    def test_vector_sort_rows_sorts_the_key_prefix(self, rng, shape):
        # The run-sort entry orders rows by their key words only; an
        # ascending row-id suffix makes that the order of the whole rows.
        n, width = shape
        matrix = np.empty((n, width + 8), dtype=np.uint8)
        matrix[:, :width] = random_matrix(rng, n, width, alphabet=7)
        matrix[:, width:] = (
            np.arange(n, dtype=">u8").view(np.uint8).reshape(n, 8)
        )
        stats = SortStats()
        words = kernels._chunk_columns(matrix[:, :width])
        order = vector_sort_rows(words, stats)
        assert order.tolist() == stable_reference(matrix).tolist()
        assert stats.sort_passes >= 1

    @given(
        data=st.data(),
        n=st.integers(0, 3000),
        width=st.integers(1, 40),
        alphabet=st.sampled_from([1, 2, 3, 256]),
        shared=st.integers(0, 39),
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, data, n, width, alphabet, shared):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        matrix = random_matrix(rng, n, width, alphabet)
        matrix[:, : min(shared, width - 1)] = 0x5A
        assert_kernel_matches(matrix)


def low_bit_rows(base: int, count: int) -> np.ndarray:
    """``count`` one-word keys, pairs that differ in the lowest key bit a
    first pass over ``count`` rows packs (the bit just above the position
    bits), the larger key first and with the smaller low bits: packed,
    a pair sorts side by side less than ``2**index_bits`` apart, so a
    subtract-based tie test calls it tied and the next pass, on the low
    bits, swaps it.  Row 0 holds the top bit and row 1 none, so the pass
    takes every key bit it has room for."""
    bit = 1 << (count - 1).bit_length()
    larger, smaller = (base | bit) & ~1, base | 1
    values = [larger, smaller] * (count // 2) + [smaller] * (count % 2)
    values[:2] = 1 << 63, 0
    return np.array(values, dtype=np.uint64)


class TestPackedPassBlocks:
    """The packed pass ORs positions and compares neighbours block by
    block (``kernels._BLOCK_ROWS``): lengths at a block's edges, ties and
    keys that differ in the lowest packed key bit must sort as
    ``np.lexsort`` does."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_lexsort_at_block_edges(self, data):
        from unittest import mock

        block = data.draw(st.sampled_from([2, 3, 8, 64]))
        n = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1]))
        pool = data.draw(
            st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4)
        )
        low = (1 << max(n - 1, 0).bit_length()) % 2**64
        value = st.one_of(
            st.sampled_from(pool),  # duplicates and tie groups
            st.sampled_from([v ^ low for v in pool]),  # the lowest key bit
            st.integers(0, 2**64 - 1),
        )
        rows = st.lists(value, min_size=n, max_size=n)
        columns = [
            np.array(data.draw(rows), dtype=np.uint64)
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        # No lexsort finish: every tie set goes through packed passes.
        with mock.patch.multiple(
            kernels, _BLOCK_ROWS=block, LEXSORT_FINISH_ROWS=1
        ):
            order = argsort_words([column.copy() for column in columns])
        want = np.lexsort(columns[::-1]) if n else np.empty(0, np.int64)
        assert order.tolist() == want.tolist()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_real_block_size(self, rng, offset):
        n = kernels._BLOCK_ROWS + offset
        assert n > kernels.LEXSORT_FINISH_ROWS  # the packed pass runs
        dups = rng.integers(0, 40, (2, n)).astype(np.uint64) << np.uint64(40)
        for columns in (list(dups), [low_bit_rows(7 << 40, n)]):
            order = argsort_words([column.copy() for column in columns])
            assert order.tolist() == np.lexsort(columns[::-1]).tolist()

    def test_lowest_key_bit_is_no_tie(self, monkeypatch):
        monkeypatch.setattr(kernels, "LEXSORT_FINISH_ROWS", 1)
        for count in (6, 9, 33):
            column = low_bit_rows(5 << 20, count)
            stats = SortStats()
            order = argsort_words([column.copy()], stats)
            assert order.tolist() == np.argsort(column, kind="stable").tolist()
            # One pass decides: what it leaves tied are full duplicates.
            assert stats.sort_passes == 1
