"""Cross-checks of the block-streaming external k-way merge.

The kernel path (frontier blocks + cutoff + one lexsort per round) must be
byte-identical to the scalar reference sort on every workload the
external sort accepts, and its working set must stay bounded by
``k * (merge_block_rows + merge_block_rows // 4)`` key rows (a block per
run, plus the remainder under a quarter block a top-up joins to it) no
matter the input size.
"""

import numpy as np
import pytest

from conftest import merge_run_indices, reference_sort
from repro.scalar.reference import reference_sort as scalar_reference_sort
from repro.sort import merger
from repro.sort.external import ExternalSortOperator
from repro.sort.kernels import KWayBlockStats, _chunk_columns, kway_merge_blocks
from repro.sort.operator import SortConfig, sort_table
from repro.table.chunk import chunk_table
from repro.table.strings import encode_utf8_column
from repro.table.table import Table
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS


def mixed_table(rng, n):
    """Mixed types, heavy key duplication, NULLs in two columns."""
    ints = rng.integers(0, 12, n)
    strings = rng.integers(0, 40, n)
    return Table.from_pydict(
        {
            "a": [None if v % 9 == 0 else int(v) for v in ints],
            "s": [
                None if v % 13 == 0 else f"key{v % 37:02d}" for v in strings
            ],
            "f": [
                float(v) for v in rng.choice([-1.5, 0.0, 2.25, 7.5], n)
            ],
            "seq": list(range(n)),
        }
    )


SPECS = [
    "a",
    "a DESC NULLS FIRST, s",
    "s NULLS FIRST, f DESC",
    "f DESC, a NULLS LAST, s DESC NULLS FIRST",
]


def spec_of(text):
    return SortSpec.of(*[part.strip() for part in text.split(",")])


def run_external(table, spec, tmp_path, run_threshold, merge_block_rows=4096):
    operator = ExternalSortOperator(
        table.schema,
        spec_of(spec),
        SortConfig(run_threshold=run_threshold),
        spill_directory=str(tmp_path),
        merge_block_rows=merge_block_rows,
    )
    for chunk in chunk_table(table, 512):
        operator.sink(chunk)
    return operator.finalize(), operator


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


class TestKernelVsScalarHeap:
    @pytest.mark.parametrize("spec", SPECS)
    def test_randomized_byte_identical(self, rng, tmp_path, spec):
        table = mixed_table(rng, 6000)
        kernel, op_kernel = run_external(table, spec, tmp_path, 1000)
        scalar = scalar_reference_sort(table, spec_of(spec))
        assert op_kernel.stats.runs_generated >= 4
        assert op_kernel.stats.kernel_kway_merges == 1
        assert_byte_identical(kernel, scalar)

    def test_matches_reference_and_in_memory(self, rng, tmp_path):
        table = mixed_table(rng, 1200)
        spec = SortSpec.of("a NULLS FIRST", "s DESC")
        result, _ = run_external(
            table, "a NULLS FIRST, s DESC", tmp_path, 300
        )
        assert result.equals(reference_sort(table, spec))
        assert result.equals(sort_table(table, spec))

    def test_single_run_and_tiny_blocks(self, rng, tmp_path):
        table = mixed_table(rng, 400)
        operator = ExternalSortOperator(
            table.schema,
            SortSpec.of("a", "seq"),
            SortConfig(run_threshold=10_000),
            spill_directory=str(tmp_path),
            merge_block_rows=7,  # force many refill rounds
        )
        for chunk in chunk_table(table, 128):
            operator.sink(chunk)
        result = operator.finalize()
        assert result.equals(sort_table(table, SortSpec.of("a", "seq")))


class TestBoundedMemory:
    def test_frontier_never_exceeds_k_blocks(self, rng, tmp_path):
        table = mixed_table(rng, 8000)
        _, operator = run_external(
            table, "a, s", tmp_path, 1000, merge_block_rows=128
        )
        runs = operator.stats.runs_generated
        assert runs >= 4
        block_rows = operator.merge_block_rows
        bound = runs * (block_rows + block_rows // 4)
        assert 0 < operator.stats.kway_peak_frontier_rows <= bound
        # Far below materializing every run's keys at once.
        assert operator.stats.kway_peak_frontier_rows <= bound < table.num_rows

    def test_kernel_counts_refills_and_rounds(self):
        rng = np.random.default_rng(3)
        runs = []
        for _ in range(5):
            matrix = rng.integers(0, 256, size=(1000, 5)).astype(np.uint8)
            matrix = matrix[np.lexsort(tuple(reversed(matrix.T)))]
            runs.append(matrix)

        def blocks(matrix, size=64):
            for start in range(0, len(matrix), size):
                yield _chunk_columns(matrix[start : start + size])

        stats = KWayBlockStats()
        emitted = sum(
            len(order)
            for order, _ in kway_merge_blocks(
                [blocks(matrix) for matrix in runs], stats
            )
        )
        assert emitted == stats.rows_emitted == 5000
        assert stats.rounds > 1
        assert stats.peak_frontier_rows <= 5 * (64 + 64 // 4)


class TestMergedKeysThroughTheOperator:
    """The pass's key buffer as the kernel's ``out``, and the string
    repair's carry on the emitted keys instead, against the scalar sort."""

    @staticmethod
    def spied(monkeypatch):
        calls = []

        def spy(sources, stats=None, **kwargs):
            calls.append(kwargs)
            return kway_merge_blocks(sources, stats, **kwargs)

        monkeypatch.setattr(merger, "kway_merge_blocks", spy)
        return calls

    @staticmethod
    def sort(table, spec, tmp_path, config):
        with ExternalSortOperator(
            table.schema, spec_of(spec), config, str(tmp_path),
            merge_block_rows=64,
        ) as operator:
            for chunk in chunk_table(table, 512):
                operator.sink(chunk)
            return operator.finalize(), operator

    def test_fan_in_two_gathers_into_a_new_runs_strided_keys(
        self, tmp_path, monkeypatch
    ):
        calls = self.spied(monkeypatch)
        table = SCENARIOS["uniform"].table(6000, 17)
        config = SortConfig(run_threshold=1000, merge_fan_in=2)
        result, operator = self.sort(table, "a, p", tmp_path, config)
        assert operator.stats.key_carried_runs > 0
        assert operator.stats.merge_passes > 1
        outs = [call["out"] for call in calls]
        # Intermediate passes write a new run's (rows, words) matrix
        # through its transpose; the final pass writes word columns.
        assert all(not out.flags.c_contiguous for out in outs[:-1])
        assert outs[-1].flags.c_contiguous
        assert not any(call["emit_keys"] for call in calls)
        assert_byte_identical(result, scalar_reference_sort(table, spec_of("a, p")))

    def test_string_repair_carries_the_emitted_keys(self, tmp_path, monkeypatch):
        calls = self.spied(monkeypatch)
        table = SCENARIOS["long_string"].table(4000, 17)
        config = SortConfig(run_threshold=1000, string_prefix=4)
        result, operator = self.sort(table, "s, p", tmp_path, config)
        assert operator.stats.full_key_compares > 0
        assert [(c["emit_keys"], c["out"]) for c in calls] == [(True, None)]
        assert_byte_identical(result, scalar_reference_sort(table, spec_of("s, p")))


class TestKernelSmoke:
    def test_spilled_sort_takes_kernel_kway_path(self, rng, tmp_path):
        """Tier-1 smoke: the block-streaming path actually runs."""
        table = mixed_table(rng, 3000)
        result, operator = run_external(table, "a, f DESC", tmp_path, 500)
        assert operator.stats.kernel_kway_merges > 0
        assert operator.stats.kway_rounds > 0
        assert result.num_rows == table.num_rows


class TestKWayMergeIndices:
    def test_matches_cascade(self, rng):
        for width in (3, 9, 17):
            runs = []
            for length in (0, 1, 700, 256, 1024):
                matrix = rng.integers(
                    0, 4, size=(length, width)
                ).astype(np.uint8)  # tiny alphabet => massive duplication
                if length:
                    matrix = matrix[np.lexsort(tuple(reversed(matrix.T)))]
                runs.append(matrix)
            run_ids, row_ids = merge_run_indices(runs, block_rows=100)
            # A stable argsort of the concatenated runs is the merge:
            # equal keys keep run order, then row order.
            stacked = np.concatenate(runs)
            order = np.lexsort(tuple(reversed(stacked.T)))
            lengths = [len(run) for run in runs]
            owner = np.repeat(np.arange(len(runs)), lengths)
            start = np.cumsum([0] + lengths[:-1])
            assert (run_ids == owner[order]).all()
            assert (row_ids == order - start[owner[order]]).all()

    def test_empty(self):
        run_ids, row_ids = merge_run_indices([])
        assert len(run_ids) == 0 and len(row_ids) == 0


class TestSpillFormat:
    def test_contiguous_sections_round_trip(self, rng, tmp_path):
        table = mixed_table(rng, 900)
        operator = ExternalSortOperator(
            table.schema,
            SortSpec.of("a", "s"),
            SortConfig(run_threshold=200),
            spill_directory=str(tmp_path),
        )
        for chunk in chunk_table(table, 128):
            operator.sink(chunk)
        run = operator._runs[0]
        whole_keys = run.read_key_block(0, run.num_rows)
        streamed = np.concatenate(
            [
                run.read_key_block(start, min(start + 97, run.num_rows))
                for start in range(0, run.num_rows, 97)
            ]
        )
        assert (whole_keys == streamed).all()
        assert whole_keys.shape == (run.num_rows, run.key_words)
        assert whole_keys.dtype == np.uint64
        # The payload is the resident run it was: the run's rows in
        # arrival order, their positions in key order, the key strings.
        payload = run.read_payload(table.schema)
        head = table.slice(0, run.num_rows)
        assert payload.words is None and payload.table.equals(head)
        assert payload.table.take(payload.positions).equals(
            sort_table(head, "a, s")
        )
        buffer, lengths = encode_utf8_column(
            head.column("s").data, head.column("s").validity
        )
        # Its string column keeps the bytes it was read from.
        strings = payload.table.column("s").strings()
        assert strings.buffer.tobytes() == buffer.tobytes()
        assert strings.lengths.tolist() == lengths.tolist()
        # Keys are stored sorted: streamed word rows arrive in key order.
        words = [tuple(row) for row in whole_keys.tolist()]
        assert words == sorted(words)
        operator.finalize()

    def test_phase_timings_recorded(self, rng, tmp_path):
        table = mixed_table(rng, 2000)
        _, operator = run_external(table, "a, s", tmp_path, 400)
        phases = operator.stats.phase_seconds
        for phase in ("encode", "run_gen", "merge", "spill_io"):
            assert phases.get(phase, 0.0) > 0.0, phase
