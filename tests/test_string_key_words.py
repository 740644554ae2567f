"""A VARCHAR key's window is read from its UTF-8 bytes as words.

The statistics pass encodes a run's VARCHAR key column once
(``EncodedStrings``: the codec's zero-padded buffer, value starts and
prefix classes against the sort's skipped bytes), and ``key_words``
reads each window field as one unaligned word of that buffer.  The
words must be the scalar reference encoder's key bytes for every row,
under every layout the accumulator builds over a sort's runs, a
resident run rebased under a later layout included; and a sort reads a
run's string bytes once: one codec call per key column per run, one
common-prefix scan per sort, prefix classes at most once per later run.
"""

from __future__ import annotations

import collections

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.keys import encoding
from repro.keys.compression import KeyStatsAccumulator
from repro.keys.normalizer import key_words, words_to_bytes
from repro.scalar.encoder import normalized_key_for_row
from repro.sort.external import ExternalSortOperator
from repro.sort.operator import SortConfig
from repro.table import strings
from repro.table.chunk import chunk_table
from repro.table.strings import _words_at
from repro.table.table import Table
from repro.types.datatypes import BIGINT, VARCHAR
from repro.types.sortspec import SortSpec
from repro.workloads.scenarios import SCENARIOS

# NULs (embedded and trailing) and 1/2/3/4-byte code points, densely.
ALPHABET = "a\x00é日😀"
DIRECTIONS = ["", " DESC", " NULLS FIRST", " DESC NULLS FIRST"]


@st.composite
def string_runs(draw):
    """1-4 runs of values around one stem: NULLs, empty strings, values
    shorter than, equal to, sharing and diverging inside the stem."""
    stem = draw(st.text(alphabet=ALPHABET, min_size=0, max_size=14))
    tails = st.text(alphabet=ALPHABET, max_size=draw(st.integers(0, 16)))
    cut = st.integers(0, len(stem))
    value = st.one_of(
        st.none(),
        st.just(""),
        cut.map(lambda k: stem[:k]),
        tails.map(lambda tail: stem + tail),
        st.tuples(cut, st.sampled_from(ALPHABET), tails).map(
            lambda t: stem[: t[0]] + t[1] + t[2]
        ),
        st.text(alphabet=ALPHABET, max_size=20),
    )
    run = st.lists(value, min_size=0, max_size=25)
    return draw(st.lists(run, min_size=1, max_size=4))


def assert_words_are_the_scalar_key(table, spec, layout, encoded):
    words = key_words(table, layout, encoded)
    key = words_to_bytes(words, layout.key_width)
    columns = [table.column(k.column).to_pylist() for k in spec.keys]
    for index, row in enumerate(zip(*columns)):
        want = normalized_key_for_row(row, spec, layout)
        assert key[index].tobytes() == want


class TestWordReaderIsTheScalarEncoder:
    @settings(max_examples=150, deadline=None)
    @given(
        runs=string_runs(),
        direction=st.sampled_from(DIRECTIONS),
        second=st.booleans(),
        lead=st.sampled_from([1, 300, 70_000]),
        forced=st.one_of(st.none(), st.integers(1, 12)),
    )
    def test_every_layout_of_every_run(
        self, runs, direction, second, lead, forced
    ):
        # ``k``'s range sets its width (1-3 bytes), so a second-key
        # VARCHAR segment starts at a varying offset.
        tables = []
        for values in runs:
            k = [i * lead % 65_537 for i in range(len(values))]
            tables.append(Table.from_pydict(
                {"s": values, "k": k}, dtypes={"s": VARCHAR, "k": BIGINT}
            ))
        keys = ["k", f"s{direction}"] if second else [f"s{direction}", "k"]
        spec = SortSpec.of(*keys)
        acc = KeyStatsAccumulator(tables[0].schema, spec, forced)
        encodings = []
        for table in tables:
            encodings.append(acc.update(table))
            layout = acc.build_layout(include_row_id=False)
            assert_words_are_the_scalar_key(table, spec, layout, encodings[-1])
        segment = layout.segments[1 if second else 0]
        assert segment.value_width == forced or forced is None
        # A resident run rebased under the last layout reads the classes
        # its encoding holds (or computes them, when it preceded them).
        for table, encoded in zip(tables, encodings):
            assert_words_are_the_scalar_key(table, spec, layout, encoded)


def long_string_case(rows=8192):
    scenario = SCENARIOS["long_string"]
    table = scenario.table(rows, seed=17)
    return table, SortSpec.of(*scenario.order_by.split(", "))


class TestOnePassOverAStringKey:
    def test_pass_counts_of_a_four_run_external_sort(
        self, monkeypatch, tmp_path
    ):
        calls = collections.defaultdict(list)

        def counting(name, module):
            function = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = function(*args, **kwargs)
                calls[name].append((args, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        # The key statistics and word passes' bindings: refinement's own
        # gather_windows (repro.sort.stringsort's) is not counted.
        counting("prefix_classes", strings)
        counting("gather_windows", encoding)
        counting("common_prefix", strings)
        counting("encode_utf8_column", strings)
        table, spec = long_string_case()
        config = SortConfig(run_threshold=2048)
        with ExternalSortOperator(
            table.schema, spec, config, str(tmp_path)
        ) as operator:
            for chunk in chunk_table(table, 1024):
                operator.sink(chunk)
            result = operator.finalize()
        assert result.column("s").to_pylist() == sorted(
            table.column("s").to_pylist()
        )
        runs = operator.stats.runs_generated
        assert runs == 4
        assert len(calls["encode_utf8_column"]) == runs  # one key column
        assert len(calls["common_prefix"]) == 1
        assert not calls["gather_windows"]
        # Never on the run that fixed the skipped bytes, at most once on
        # each later one.
        first = calls["encode_utf8_column"][0][1][0]
        read = [args[0] for args, _ in calls["prefix_classes"]]
        assert len(read) <= runs - 1
        assert all(buffer is not first for buffer in read)
        assert len({id(buffer) for buffer in read}) == len(read)

    def test_words_view_the_codec_buffer(self):
        table, spec = long_string_case(500)
        encoded = KeyStatsAccumulator(table.schema, spec).update(table)
        buffer = encoded["s"].buffer
        words = _words_at(buffer)
        assert np.shares_memory(words, buffer)
        # Word i is bytes [i, i + 8) little-endian, zeros past the end.
        padded = buffer.tobytes() + bytes(8)
        for at in (0, 1, len(buffer) - 3, len(buffer)):
            want = int.from_bytes(padded[at : at + 8], "little")
            assert int(words[at]) == want
        # A buffer that is not the codec's is copied, padded.
        assert not np.shares_memory(_words_at(buffer[1:]), buffer)

    def test_forced_window_wider_than_the_pad(self):
        # A forced width past the codec's zero pad reads clamped words;
        # the bytes past each value are masked off all the same.
        table = Table.from_pydict({"s": ["b" * 300, None, "", "a"]})
        spec = SortSpec.of("s DESC")
        acc = KeyStatsAccumulator(table.schema, spec, string_prefix=290)
        encoded = acc.update(table)
        layout = acc.build_layout(include_row_id=False)
        assert_words_are_the_scalar_key(table, spec, layout, encoded)
