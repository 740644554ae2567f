"""Tests for the NSM row format: layout, round trips, gathers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConversionError, KeyEncodingError
from repro.rows.block import RowBlock, heap_bases, string_slots
from repro.rows.layout import ROW_ALIGNMENT, STRING_SLOT_WIDTH, RowLayout
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import (
    BIGINT,
    BOOLEAN,
    DOUBLE,
    FLOAT,
    INTEGER,
    SMALLINT,
    VARCHAR,
)
from repro.types.schema import Schema


# NULs (embedded and trailing) and 1/2/3/4-byte code points, densely.
TRICKY_TEXT = st.text(alphabet="a\x00é日😀", max_size=12)


class TestRowLayout:
    def test_row_width_is_8_byte_aligned(self):
        schema = Schema.of(("a", INTEGER), ("b", SMALLINT), ("s", VARCHAR))
        layout = RowLayout.for_schema(schema)
        assert layout.row_width % ROW_ALIGNMENT == 0

    def test_slots_are_naturally_aligned(self):
        schema = Schema.of(
            ("x", BOOLEAN), ("y", BIGINT), ("z", SMALLINT), ("w", DOUBLE)
        )
        layout = RowLayout.for_schema(schema)
        for slot in layout.slots:
            alignment = 4 if slot.is_string else slot.width
            assert slot.offset % alignment == 0

    def test_slots_do_not_overlap(self):
        schema = Schema.of(
            ("a", INTEGER), ("s", VARCHAR), ("b", BIGINT), ("c", BOOLEAN)
        )
        layout = RowLayout.for_schema(schema)
        spans = sorted(
            (s.offset, s.offset + s.width) for s in layout.slots
        )
        assert spans[0][0] >= layout.validity_bytes
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert start >= end

    def test_string_slot_width(self):
        schema = Schema.of(("s", VARCHAR))
        assert RowLayout.for_schema(schema).slot("s").width == STRING_SLOT_WIDTH

    def test_validity_bytes_scale_with_columns(self):
        nine = Schema.of(*((f"c{i}", INTEGER) for i in range(9)))
        assert RowLayout.for_schema(nine).validity_bytes == 2

    def test_validity_positions(self):
        schema = Schema.of(*((f"c{i}", INTEGER) for i in range(10)))
        layout = RowLayout.for_schema(schema)
        assert layout.validity_position(0) == (0, 0)
        assert layout.validity_position(9) == (1, 1)


def mixed_table() -> Table:
    return Table.from_pydict(
        {
            "id": [1, 2, 3, 4],
            "name": ["alpha", None, "", "délta"],
            "score": [1.5, -2.0, None, 0.0],
            "flag": [True, False, True, None],
        }
    )


class TestRowBlockRoundTrip:
    def test_round_trip(self):
        table = mixed_table()
        assert RowBlock.from_table(table).to_table().equals(table)

    def test_empty_table(self):
        table = Table.from_pydict({"a": []})
        assert RowBlock.from_table(table).to_table().equals(table)

    def test_point_values(self):
        block = RowBlock.from_table(mixed_table())
        assert block.value(0, "name") == "alpha"
        assert block.value(1, "name") is None
        assert block.value(3, "name") == "délta"
        assert block.value(2, "score") is None
        assert block.value(1, "score") == -2.0
        assert block.value(0, "flag") is True

    def test_take_reorders_rows(self):
        table = mixed_table()
        block = RowBlock.from_table(table).take(np.array([3, 1]))
        assert block.to_table().equals(table.take(np.array([3, 1])))

    def test_concat_rebases_string_heap(self):
        table = mixed_table()
        block = RowBlock.from_table(table)
        doubled = block.concat(block)
        expected = table.concat(table)
        assert doubled.to_table().equals(expected)

    def test_concat_then_take(self):
        table = mixed_table()
        block = RowBlock.from_table(table)
        combined = block.concat(block).take(np.array([7, 0, 4]))
        expected = table.concat(table).take(np.array([7, 0, 4]))
        assert combined.to_table().equals(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.none(), st.integers(-(2**31), 2**31 - 1)),
                st.one_of(st.none(), st.text(max_size=20), TRICKY_TEXT),
                st.one_of(
                    st.none(), st.floats(allow_nan=False, width=32)
                ),
            ),
            min_size=0,
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_round_trip_property(self, rows, rnd):
        table = Table.from_pydict(
            {
                "i": [r[0] for r in rows],
                "s": [r[1] for r in rows],
                "f": [r[2] for r in rows],
            },
            dtypes={"i": INTEGER, "s": VARCHAR, "f": FLOAT},
        )
        block = RowBlock.from_table(table)
        assert block.to_table().equals(table)
        lengths = string_slots(block.rows, block.layout.slot("s"))[1]
        assert lengths.tolist() == [len((r[1] or "").encode()) for r in rows]
        # Gathers point back into the same heap, in any order, with repeats.
        perm = np.array(
            [rnd.randrange(len(rows)) for _ in rows], dtype=np.int64
        )
        assert block.take(perm).to_table().equals(table.take(perm))
        doubled = block.concat(block.take(perm))
        assert doubled.to_table().equals(table.concat(table.take(perm)))

    @pytest.mark.parametrize(
        "values",
        [
            [None, None, None],
            ["", "", ""],
            [None, "", None],
            ["a\x00", "\x00", "a\x00\x00b", "\x00\x00"],
            ["é", "日本", "😀", "a😀\x00é"],
        ],
    )
    def test_string_edge_columns_round_trip(self, values):
        table = Table.from_pydict({"s": values}, dtypes={"s": VARCHAR})
        block = RowBlock.from_table(table)
        assert block.to_table().equals(table)
        assert block.to_table().column("s").to_pylist() == values
        back = np.arange(len(values))[::-1]
        assert block.take(back).to_table().column("s").to_pylist() == values[::-1]

    def test_non_str_objects_decode_as_their_str(self):
        data = np.array([12, "x", 3.5, None], dtype=object)
        validity = np.array([True, True, True, False])
        table = Table(
            Schema.of(("s", VARCHAR)), [ColumnVector(VARCHAR, data, validity)]
        )
        decoded = RowBlock.from_table(table).to_table().column("s")
        assert decoded.to_pylist() == ["12", "x", "3.5", None]

    def test_unencodable_string_is_a_typed_error(self):
        table = Table.from_pydict({"p": [1, 2, 3], "s": ["a", "\ud800b", "c"]})
        with pytest.raises(KeyEncodingError, match=r"'s' row 1"):
            RowBlock.from_table(table)


class TestHeapBases:
    def test_bases_are_running_starts(self):
        assert heap_bases([3, 0, 5]).tolist() == [0, 3, 3]
        assert heap_bases([]).tolist() == []
        assert heap_bases([3 << 30, (1 << 30) - 1]).tolist() == [0, 3 << 30]

    def test_past_4gib_raises_instead_of_wrapping(self):
        # Sizes only: no heap is allocated.  As uint32 the second base
        # would still fit, but offsets inside the second heap would wrap.
        with pytest.raises(ConversionError, match="4 GiB"):
            heap_bases([3 << 30, 2 << 30])
