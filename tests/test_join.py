"""Tests for merge join and inequality joins, against brute force."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SortError
from repro.join import Predicate, ie_join, inequality_join, merge_join
from repro.table.table import Table
from repro.workloads.scenarios import SCENARIOS

OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def pairs_of(result: Table, left_id="lid", right_id="rid"):
    return sorted(
        zip(result.column(left_id).to_pylist(), result.column(right_id).to_pylist())
    )


class TestMergeJoin:
    def test_basic_inner_join(self):
        left = Table.from_pydict({"k": [1, 2, 2, 3], "lid": [0, 1, 2, 3]})
        right = Table.from_pydict({"k": [2, 3, 3, 4], "rid": [0, 1, 2, 3]})
        result = merge_join(left, right, ["k"], ["k"])
        assert pairs_of(result) == [(1, 0), (2, 0), (3, 1), (3, 2)]

    def test_null_keys_never_match(self):
        left = Table.from_pydict({"k": [None, 1], "lid": [0, 1]})
        right = Table.from_pydict({"k": [None, 1], "rid": [0, 1]})
        result = merge_join(left, right, ["k"], ["k"])
        assert pairs_of(result) == [(1, 1)]

    def test_colliding_names_prefixed(self):
        left = Table.from_pydict({"k": [1], "v": [10]})
        right = Table.from_pydict({"k": [1], "v": [20]})
        result = merge_join(left, right, ["k"], ["k"])
        assert set(result.schema.names) == {"l_k", "l_v", "r_k", "r_v"}

    def test_different_key_names(self):
        left = Table.from_pydict({"a": [1, 2], "lid": [0, 1]})
        right = Table.from_pydict({"b": [2, 2], "rid": [0, 1]})
        result = merge_join(left, right, ["a"], ["b"])
        assert pairs_of(result) == [(1, 0), (1, 1)]

    def test_multi_key(self):
        left = Table.from_pydict(
            {"a": [1, 1, 2], "b": [1, 2, 1], "lid": [0, 1, 2]}
        )
        right = Table.from_pydict(
            {"a": [1, 1, 2], "b": [2, 2, 9], "rid": [0, 1, 2]}
        )
        result = merge_join(left, right, ["a", "b"], ["a", "b"])
        assert pairs_of(result) == [(1, 0), (1, 1)]

    def test_string_keys(self):
        left = Table.from_pydict({"k": ["x", "y", None], "lid": [0, 1, 2]})
        right = Table.from_pydict({"k": ["y", "z"], "rid": [0, 1]})
        result = merge_join(left, right, ["k"], ["k"])
        assert pairs_of(result) == [(1, 0)]

    def test_long_string_keys_beyond_prefix(self):
        base = "p" * 14
        left = Table.from_pydict(
            {"k": [f"{base}1", f"{base}2"], "lid": [0, 1]}
        )
        right = Table.from_pydict(
            {"k": [f"{base}2", f"{base}3"], "rid": [0, 1]}
        )
        result = merge_join(left, right, ["k"], ["k"])
        assert pairs_of(result) == [(1, 0)]

    def test_long_string_key_then_second_key(self):
        # Sorted by the full strings, the second key is out of order
        # under the strings' shared 12-byte prefix: groups must be found
        # on the values, not on that prefix.
        stem = "p" * 14
        left = Table.from_pydict(
            {"s": [f"{stem}b", f"{stem}a"], "k": [1, 2], "lid": [0, 1]}
        )
        right = Table.from_pydict(
            {"s": [f"{stem}a", f"{stem}b"], "k": [2, 1], "rid": [0, 1]}
        )
        result = merge_join(left, right, ["s", "k"], ["s", "k"])
        assert pairs_of(result) == [(0, 1), (1, 0)]

    def test_long_string_join_builds_no_prefix_cross_product(self):
        # Every long_string key starts with the same 12 bytes; a join
        # that grouped on those bytes would build the 6,000 x 2,000
        # cross product before discarding all but 2,000 pairs.
        values = SCENARIOS["long_string"].table(6000, seed=17).column("s")
        keys = values.to_pylist()
        left = Table.from_pydict({"s": keys, "lid": list(range(6000))})
        right = Table.from_pydict(
            {"s": keys[::3], "rid": list(range(0, 6000, 3))}
        )
        tracemalloc.start()
        try:
            result = merge_join(left, right, ["s"], ["s"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows_of: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            rows_of.setdefault(key, []).append(i)
        expected = sorted(
            (i, j) for j in range(0, 6000, 3) for i in rows_of[keys[j]]
        )
        assert pairs_of(result) == expected
        assert peak < 32 * 2**20

    def test_empty_inputs(self):
        left = Table.from_pydict({"k": [], "lid": []})
        right = Table.from_pydict({"k": [1], "rid": [0]})
        assert merge_join(left, right, ["k"], ["k"]).num_rows == 0

    def test_key_count_mismatch(self):
        left = Table.from_pydict({"a": [1]})
        right = Table.from_pydict({"b": [1]})
        with pytest.raises(SortError):
            merge_join(left, right, ["a"], [])

    def test_type_mismatch(self):
        left = Table.from_pydict({"a": [1]})
        right = Table.from_pydict({"b": ["x"]})
        with pytest.raises(SortError):
            merge_join(left, right, ["a"], ["b"])

    @settings(max_examples=30, deadline=None)
    @given(
        left_keys=st.lists(
            st.one_of(st.none(), st.integers(0, 6)), max_size=25
        ),
        right_keys=st.lists(
            st.one_of(st.none(), st.integers(0, 6)), max_size=25
        ),
    )
    def test_property_matches_nested_loop(self, left_keys, right_keys):
        left = Table.from_pydict(
            {"k": left_keys, "lid": list(range(len(left_keys)))}
        )
        right = Table.from_pydict(
            {"k": right_keys, "rid": list(range(len(right_keys)))}
        )
        result = merge_join(left, right, ["k"], ["k"])
        expected = sorted(
            (i, j)
            for i, lk in enumerate(left_keys)
            for j, rk in enumerate(right_keys)
            if lk is not None and lk == rk
        )
        assert pairs_of(result) == expected


class TestPredicate:
    def test_parse(self):
        p = Predicate.parse("x <= y")
        assert p == Predicate("x", "<=", "y")

    def test_parse_strict(self):
        assert Predicate.parse("a>b").op == ">"

    def test_parse_no_op(self):
        with pytest.raises(SortError):
            Predicate.parse("a = b")

    def test_invalid_op(self):
        with pytest.raises(SortError):
            Predicate("a", "!=", "b")


class TestInequalityJoin:
    @settings(max_examples=40, deadline=None)
    @given(
        left_values=st.lists(
            st.one_of(st.none(), st.integers(0, 9)), max_size=20
        ),
        right_values=st.lists(
            st.one_of(st.none(), st.integers(0, 9)), max_size=20
        ),
        op=st.sampled_from(["<", "<=", ">", ">="]),
    )
    def test_property_matches_nested_loop(self, left_values, right_values, op):
        left = Table.from_pydict(
            {"x": left_values, "lid": list(range(len(left_values)))}
        )
        right = Table.from_pydict(
            {"y": right_values, "rid": list(range(len(right_values)))}
        )
        result = inequality_join(left, right, f"x {op} y")
        expected = sorted(
            (i, j)
            for i, lv in enumerate(left_values)
            for j, rv in enumerate(right_values)
            if lv is not None and rv is not None and OPS[op](lv, rv)
        )
        assert pairs_of(result) == expected

    def test_string_columns_rejected(self):
        left = Table.from_pydict({"x": ["a"]})
        right = Table.from_pydict({"y": ["b"]})
        with pytest.raises(SortError):
            inequality_join(left, right, "x < y")


class TestIEJoin:
    @settings(max_examples=30, deadline=None)
    @given(
        n_left=st.integers(0, 15),
        n_right=st.integers(0, 15),
        op1=st.sampled_from(["<", "<=", ">", ">="]),
        op2=st.sampled_from(["<", "<=", ">", ">="]),
        seed=st.integers(0, 1000),
    )
    def test_property_matches_nested_loop(self, n_left, n_right, op1, op2, seed):
        rng = np.random.default_rng(seed)
        left = Table.from_pydict(
            {
                "a": [int(v) for v in rng.integers(0, 6, n_left)],
                "b": [int(v) for v in rng.integers(0, 6, n_left)],
                "lid": list(range(n_left)),
            }
        )
        right = Table.from_pydict(
            {
                "a": [int(v) for v in rng.integers(0, 6, n_right)],
                "b": [int(v) for v in rng.integers(0, 6, n_right)],
                "rid": list(range(n_right)),
            }
        )
        result = ie_join(left, right, f"a {op1} a", f"b {op2} b")
        expected = sorted(
            (i, j)
            for i in range(n_left)
            for j in range(n_right)
            if OPS[op1](left.row(i)[0], right.row(j)[0])
            and OPS[op2](left.row(i)[1], right.row(j)[1])
        )
        assert pairs_of(result) == expected

    def test_nulls_dropped(self):
        left = Table.from_pydict({"a": [None, 1], "b": [1, None], "lid": [0, 1]})
        right = Table.from_pydict({"a": [5], "b": [5], "rid": [0]})
        result = ie_join(left, right, "a < a", "b < b")
        assert result.num_rows == 0

    def test_paper_style_overlap_query(self):
        # Rows of left whose duration exceeds right's but revenue trails:
        # the canonical IEJoin example.
        left = Table.from_pydict(
            {"dur": [140, 100, 90], "rev": [9, 12, 5], "lid": [0, 1, 2]}
        )
        right = Table.from_pydict(
            {"dur": [100, 140, 80], "rev": [12, 11, 10], "rid": [0, 1, 2]}
        )
        result = ie_join(left, right, "dur > dur", "rev < rev")
        assert pairs_of(result) == [(0, 0), (0, 2), (2, 2)]
