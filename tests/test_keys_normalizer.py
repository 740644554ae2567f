"""Tests for whole-key normalization: the central invariant of the paper.

The key property: memcmp order over normalized keys equals tuple_compare
order over the original values, for every type mix, direction, and NULL
placement -- checked here exhaustively and with hypothesis.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.keys.normalizer import build_layout, normalize_keys
from repro.scalar.decoder import decode_key_row
from repro.scalar.encoder import normalized_key_for_row
from repro.table.table import Table
from repro.types.sortspec import SortSpec, tuple_compare

SPEC_EXAMPLE = SortSpec.of(
    "c_birth_country DESC NULLS LAST", "c_birth_year ASC NULLS FIRST"
)


def paper_example_table() -> Table:
    return Table.from_pydict(
        {
            "c_birth_country": ["NETHERLANDS", "GERMANY", None],
            "c_birth_year": [1992, 1968, None],
        }
    )


class TestLayout:
    def test_widths(self):
        table = paper_example_table()
        layout = build_layout(table, SPEC_EXAMPLE, include_row_id=False)
        country, year = layout.segments
        # VARCHAR prefix = max string length (11, fits under the cap).
        assert country.value_width == 11
        assert year.value_width == 4
        assert layout.key_width == (1 + 11) + (1 + 4)
        assert layout.row_id_width == 0

    def test_prefix_cap_at_12(self):
        table = Table.from_pydict({"s": ["x" * 40]})
        layout = build_layout(table, SortSpec.of("s"), include_row_id=False)
        assert layout.segments[0].value_width == 12

    def test_forced_prefix(self):
        table = Table.from_pydict({"s": ["abcdef"]})
        layout = build_layout(
            table, SortSpec.of("s"), string_prefix=4, include_row_id=False
        )
        assert layout.segments[0].value_width == 4


class TestPaperFigure7:
    """The worked example of the paper's Figure 7."""

    def test_germany_padded_and_inverted_sorts_after_netherlands(self):
        # DESC on the country: NETHERLANDS must come before GERMANY.
        table = paper_example_table()
        keys = normalize_keys(table, SPEC_EXAMPLE, include_row_id=False)
        netherlands, germany, null_row = (
            keys.key_bytes(0),
            keys.key_bytes(1),
            keys.key_bytes(2),
        )
        assert netherlands < germany  # DESC inverted bytes
        assert germany < null_row  # NULLS LAST

    def test_year_null_first(self):
        table = Table.from_pydict(
            {
                "c_birth_country": ["GERMANY", "GERMANY"],
                "c_birth_year": [None, 1900],
            }
        )
        keys = normalize_keys(table, SPEC_EXAMPLE, include_row_id=False)
        assert keys.key_bytes(0) < keys.key_bytes(1)  # NULLS FIRST

    def test_scalar_reference_matches_vectorized(self):
        table = paper_example_table()
        layout = build_layout(table, SPEC_EXAMPLE, include_row_id=False)
        keys = normalize_keys(table, SPEC_EXAMPLE, include_row_id=False)
        for i in range(table.num_rows):
            row = (
                table.column("c_birth_country").value(i),
                table.column("c_birth_year").value(i),
            )
            assert keys.key_bytes(i) == normalized_key_for_row(
                row, SPEC_EXAMPLE, layout
            )


class TestRowIds:
    def test_row_ids_round_trip(self):
        table = paper_example_table()
        keys = normalize_keys(table, SPEC_EXAMPLE)
        assert keys.layout.row_id_width == 4  # automatic: 3 rows fit
        assert keys.row_ids().tolist() == [0, 1, 2]

    def test_row_ids_require_suffix(self):
        keys = normalize_keys(
            paper_example_table(), SPEC_EXAMPLE, include_row_id=False
        )
        with pytest.raises(KeyEncodingError):
            keys.row_ids()


class TestDecodeRoundTrip:
    def test_fixed_types_round_trip(self):
        table = Table.from_pydict(
            {
                "i": [5, -3, None],
                "f": [1.5, -2.25, 0.0],
            }
        )
        spec = SortSpec.of("i DESC NULLS FIRST", "f")
        keys = normalize_keys(table, spec, include_row_id=False)
        for row_index in range(3):
            decoded = decode_key_row(keys.matrix[row_index], keys.layout)
            assert decoded == (
                table.column("i").value(row_index),
                table.column("f").value(row_index),
            )

    def test_string_prefix_decodes(self):
        table = Table.from_pydict({"s": ["GERMANY", None]})
        keys = normalize_keys(table, SortSpec.of("s DESC"), include_row_id=False)
        assert decode_key_row(keys.matrix[0], keys.layout) == ("GERMANY",)
        assert decode_key_row(keys.matrix[1], keys.layout) == (None,)


@st.composite
def typed_rows(draw):
    """Random (int, float-or-null, short-string) rows plus a random spec."""
    n = draw(st.integers(2, 25))
    ints = draw(
        st.lists(
            st.one_of(st.none(), st.integers(-1000, 1000)),
            min_size=n,
            max_size=n,
        )
    )
    floats = draw(
        st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=False, allow_infinity=True, width=32),
            ),
            min_size=n,
            max_size=n,
        )
    )
    strings = draw(
        st.lists(
            st.one_of(st.none(), st.text(alphabet="abcXYZ", max_size=6)),
            min_size=n,
            max_size=n,
        )
    )
    directions = [draw(st.sampled_from(["ASC", "DESC"])) for _ in range(3)]
    nulls = [draw(st.sampled_from(["NULLS FIRST", "NULLS LAST"])) for _ in range(3)]
    return ints, floats, strings, directions, nulls


class TestMemcmpEqualsTupleCompare:
    @settings(max_examples=60, deadline=None)
    @given(typed_rows())
    def test_property(self, data):
        ints, floats, strings, directions, nulls = data
        table = Table.from_pydict({"i": ints, "f": floats, "s": strings})
        spec = SortSpec.of(
            f"i {directions[0]} {nulls[0]}",
            f"f {directions[1]} {nulls[1]}",
            f"s {directions[2]} {nulls[2]}",
        )
        keys = normalize_keys(table, spec, include_row_id=False)
        assert keys.prefix_exact  # strings are short enough
        n = table.num_rows
        key_rows = [
            (
                table.column("i").value(i),
                table.column("f").value(i),
                table.column("s").value(i),
            )
            for i in range(n)
        ]
        for a in range(n):
            for b in range(n):
                byte_cmp = (keys.key_bytes(a) > keys.key_bytes(b)) - (
                    keys.key_bytes(a) < keys.key_bytes(b)
                )
                tup_cmp = tuple_compare(key_rows[a], key_rows[b], spec)
                sign = (tup_cmp > 0) - (tup_cmp < 0)
                assert byte_cmp == sign, (key_rows[a], key_rows[b], spec)


class TestPrefixExactness:
    def test_exact_when_strings_fit(self):
        table = Table.from_pydict({"s": ["short", "tiny"]})
        keys = normalize_keys(table, SortSpec.of("s"))
        assert keys.prefix_exact

    def test_inexact_when_truncated(self):
        table = Table.from_pydict({"s": ["a" * 20, "b"]})
        keys = normalize_keys(table, SortSpec.of("s"))
        assert not keys.prefix_exact

    def test_inexact_when_forced_short(self):
        table = Table.from_pydict({"s": ["abcdef", "abcxyz"]})
        keys = normalize_keys(table, SortSpec.of("s"), string_prefix=3)
        assert not keys.prefix_exact
