"""Tests for per-type order-preserving encodings (paper, Figure 7).

The scalar encoders (:mod:`repro.scalar.encoder`) are the reference; the
engine's column transform, :func:`repro.keys.encoding.fixed_column_codes`,
must give the same bytes when its codes are written big-endian at the
type's width.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.keys.encoding import fixed_column_codes, gather_windows
from repro.keys.normalizer import normalize_keys
from repro.scalar.encoder import (
    encode_float,
    encode_scalar,
    encode_signed,
    encode_string,
    encode_unsigned,
    invert_bytes,
    normalized_key_for_row,
)
from repro.table.strings import encode_utf8_column
from repro.table.table import Table
from repro.types.datatypes import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INTEGER,
    SMALLINT,
    VARCHAR,
)
from repro.types.sortspec import SortSpec

# NULLs, empty strings, embedded/trailing NULs, 1/2/3/4-byte code points
# and objects that are not ``str``.
STRING_COLUMN = st.lists(
    st.one_of(
        st.none(),
        st.text(max_size=20),
        st.text(alphabet="a\x00é日😀", max_size=12),
        st.integers(-99, 99),
    ),
    max_size=30,
)


def code_bytes(values, dtype):
    """Each value's engine code, big-endian at its type's width."""
    codes = fixed_column_codes(values, dtype).tolist()
    return [code.to_bytes(dtype.fixed_width, "big") for code in codes]


def scalar_bytes(values, dtype):
    """Each value's scalar Figure 7 encoding."""
    return [encode_scalar(v, dtype, dtype.fixed_width) for v in values.tolist()]


def float_specials(np_dtype):
    """NaNs of both signs and two payloads, both zeros, both infinities
    and the finite extremes of ``np_dtype``."""
    bits = np.uint32 if np_dtype == np.float32 else np.uint64
    width = np.dtype(np_dtype).itemsize * 8
    quiet = bits(0x7FC00000) if width == 32 else bits(0x7FF8000000000000)
    sign = bits(1) << bits(width - 1)
    nans = np.array([quiet, quiet | bits(1), quiet | sign], dtype=bits)
    info = np.finfo(np_dtype)
    finite = [0.0, -0.0, np.inf, -np.inf, info.max, -info.max, info.tiny]
    return np.concatenate([nans.view(np_dtype), np.array(finite, np_dtype)])


class TestUnsigned:
    def test_big_endian(self):
        assert encode_unsigned(0x01020304, 4) == b"\x01\x02\x03\x04"

    def test_out_of_range(self):
        with pytest.raises(KeyEncodingError):
            encode_unsigned(1 << 32, 4)
        with pytest.raises(KeyEncodingError):
            encode_unsigned(-1, 4)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
    def test_order_preserved(self, a, b):
        assert (a < b) == (encode_unsigned(a, 4) < encode_unsigned(b, 4))


class TestSigned:
    def test_sign_bit_flip(self):
        # -1 must sort before 0 and 0 before 1, byte-wise.
        assert encode_signed(-1, 4) < encode_signed(0, 4) < encode_signed(1, 4)

    def test_extremes(self):
        low = encode_signed(-(2**31), 4)
        high = encode_signed(2**31 - 1, 4)
        assert low == b"\x00\x00\x00\x00"
        assert high == b"\xff\xff\xff\xff"

    def test_out_of_range(self):
        with pytest.raises(KeyEncodingError):
            encode_signed(2**31, 4)

    @given(st.integers(-(2**31), 2**31 - 1), st.integers(-(2**31), 2**31 - 1))
    def test_order_preserved(self, a, b):
        assert (a < b) == (encode_signed(a, 4) < encode_signed(b, 4))

    @given(st.integers(-(2**15), 2**15 - 1), st.integers(-(2**15), 2**15 - 1))
    def test_order_preserved_16bit(self, a, b):
        assert (a < b) == (encode_signed(a, 2) < encode_signed(b, 2))


class TestFloat:
    def test_negative_before_positive(self):
        assert encode_float(-1.0, 4) < encode_float(1.0, 4)

    def test_negative_order_inverted_bits(self):
        assert encode_float(-2.0, 4) < encode_float(-1.0, 4)

    def test_zero_canonicalization(self):
        assert encode_float(-0.0, 8) == encode_float(0.0, 8)

    def test_nan_canonical_and_last(self):
        nan1 = struct.unpack(">f", b"\x7f\xc0\x00\x01")[0]
        assert encode_float(nan1, 4) == encode_float(math.nan, 4)
        assert encode_float(math.inf, 4) < encode_float(math.nan, 4)

    def test_infinities(self):
        assert encode_float(-math.inf, 8) < encode_float(-1e308, 8)
        assert encode_float(1e308, 8) < encode_float(math.inf, 8)

    def test_bad_width(self):
        with pytest.raises(KeyEncodingError):
            encode_float(1.0, 2)

    @given(
        st.floats(allow_nan=False, width=32),
        st.floats(allow_nan=False, width=32),
    )
    def test_order_preserved_f32(self, a, b):
        enc_a, enc_b = encode_float(a, 4), encode_float(b, 4)
        if a == b:  # covers -0.0 == 0.0
            assert enc_a == enc_b
        else:
            assert (a < b) == (enc_a < enc_b)

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_order_preserved_f64(self, a, b):
        enc_a, enc_b = encode_float(a, 8), encode_float(b, 8)
        if a == b:
            assert enc_a == enc_b
        else:
            assert (a < b) == (enc_a < enc_b)


class TestString:
    def test_padding(self):
        assert encode_string("GERMANY", 11) == b"GERMANY\x00\x00\x00\x00"

    def test_truncation(self):
        assert encode_string("NETHERLANDS", 4) == b"NETH"

    def test_bad_prefix(self):
        with pytest.raises(KeyEncodingError):
            encode_string("x", 0)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_order_preserved_when_fits(self, a, b):
        # With a prefix large enough for both, byte order == UTF-8 order.
        width = max(len(a.encode()), len(b.encode()), 1)
        enc_a = encode_string(a, width)
        enc_b = encode_string(b, width)
        assert (a.encode() < b.encode()) == (enc_a < enc_b) or a.encode() == b.encode()


class TestInvertBytes:
    def test_inverts(self):
        assert invert_bytes(b"\x00\xff\x10") == b"\xff\x00\xef"

    @given(st.binary(min_size=1, max_size=16), st.binary(min_size=1, max_size=16))
    def test_inversion_reverses_order(self, a, b):
        if len(a) == len(b) and a != b:
            assert (a < b) == (invert_bytes(a) > invert_bytes(b))


class TestVectorizedEncoders:
    @pytest.mark.parametrize(
        "dtype,np_dtype,lo,hi",
        [
            (INTEGER, np.int32, -(2**31), 2**31 - 1),
            (SMALLINT, np.int16, -(2**15), 2**15 - 1),
            (BIGINT, np.int64, -(2**63), 2**63 - 1),
            (DATE, np.int32, -(2**31), 2**31 - 1),
        ],
    )
    def test_matches_scalar_signed(self, rng, dtype, np_dtype, lo, hi):
        drawn = rng.integers(lo, hi, size=64, endpoint=True)
        values = np.concatenate([[lo, hi, -1, 0, 1], drawn]).astype(np_dtype)
        assert code_bytes(values, dtype) == scalar_bytes(values, dtype)

    def test_matches_scalar_boolean(self):
        values = np.array([1, 0, 0, 1], dtype=np.uint8)
        assert code_bytes(values, BOOLEAN) == [b"\x01", b"\x00", b"\x00", b"\x01"]
        assert code_bytes(values, BOOLEAN) == scalar_bytes(values, BOOLEAN)

    def test_matches_scalar_float32(self, rng):
        values = rng.standard_normal(64).astype(np.float32)
        values = np.concatenate([float_specials(np.float32), values])
        assert code_bytes(values, FLOAT) == scalar_bytes(values, FLOAT)

    def test_matches_scalar_float64(self, rng):
        values = rng.standard_normal(32) * 1e300
        values = np.concatenate([float_specials(np.float64), values])
        assert code_bytes(values, DOUBLE) == scalar_bytes(values, DOUBLE)

    def test_float_codes_canonicalize_nan_and_zero(self):
        for np_dtype, dtype in ((np.float32, FLOAT), (np.float64, DOUBLE)):
            codes = code_bytes(float_specials(np_dtype), dtype)
            nans, zeros, (inf, neg_inf) = codes[:3], codes[3:5], codes[5:7]
            assert len(set(nans)) == 1 and len(set(zeros)) == 1
            assert neg_inf < zeros[0] < inf < nans[0]

    @staticmethod
    def string_windows(values, prefix):
        """The value bytes of a forced-width VARCHAR key, one per row."""
        table = Table.from_pydict({"s": values}, dtypes={"s": VARCHAR})
        keys = normalize_keys(
            table, SortSpec.of("s"), string_prefix=prefix, include_row_id=False
        )
        return [row[1:].tobytes() for row in keys.matrix]

    def test_string_column(self):
        windows = self.string_windows(["GERMANY", "NETHERLANDS", ""], 11)
        assert windows[0] == encode_string("GERMANY", 11)
        assert windows[1] == b"NETHERLANDS"
        assert windows[2] == b"\x00" * 11

    def test_string_column_utf8_truncation(self):
        windows = self.string_windows(["héllo"], 3)
        assert windows[0] == "héllo".encode("utf-8")[:3]

    @given(STRING_COLUMN)
    def test_utf8_column_codec(self, values):
        data = np.empty(len(values), dtype=object)
        data[:] = ["" if v is None else v for v in values]
        validity = np.array([v is not None for v in values], dtype=bool)
        texts = ["" if v is None else str(v) for v in values]
        buffer, lengths = encode_utf8_column(data, validity)
        assert lengths.tolist() == [len(t.encode()) for t in texts]
        assert buffer.tobytes() == "".join(texts).encode()
        # Without a validity mask every slot encodes (filler included).
        assert encode_utf8_column(data)[1].tolist() == lengths.tolist()

    @given(STRING_COLUMN, st.integers(1, 14), st.booleans())
    def test_string_column_matches_scalar_key(self, values, prefix, desc):
        table = Table.from_pydict(
            {"s": [None if v is None else str(v) for v in values]},
            dtypes={"s": VARCHAR},
        )
        spec = SortSpec.of("s DESC" if desc else "s")
        keys = normalize_keys(
            table, spec, string_prefix=prefix, include_row_id=False
        )
        for i, (value,) in enumerate(table.iter_rows()):
            expected = normalized_key_for_row((value,), spec, keys.layout)
            assert keys.matrix[i].tobytes() == expected
        # The window is the scalar prefix encoder's (inverted for DESC);
        # NULL rows are zero.
        for i, (value,) in enumerate(table.iter_rows()):
            window = keys.matrix[i, 1:].tobytes()
            if desc and value is not None:
                window = invert_bytes(window)
            assert window == encode_string(value or "", prefix)

    def test_unencodable_value_names_column_and_row(self):
        data = np.array(["a", "filler\ud800", "b\ud800", "c"], dtype=object)
        validity = np.array([True, False, True, True])
        with pytest.raises(KeyEncodingError, match=r"'s' row 2"):
            encode_utf8_column(data, validity, "s")
        # Without a validity mask the filler at row 1 is encoded too.
        with pytest.raises(KeyEncodingError, match=r"'s' row 1"):
            encode_utf8_column(data, column="s")

    def test_gather_windows(self):
        buffer = np.frombuffer(b"abcdefghij", dtype=np.uint8)
        starts = np.array([0, 4, 8, 9, 10, 500, 7])
        take = np.array([4, 2, 2, 1, 0, 0, 3])
        out = gather_windows(buffer, starts, take, 4)
        assert [row.tobytes() for row in out] == [
            b"abcd", b"ef\0\0", b"ij\0\0", b"j\0\0\0",
            b"\0\0\0\0", b"\0\0\0\0", b"hij\0",
        ]

    def test_gather_windows_take_zero_past_the_end(self):
        # An exhausted string's next chunk starts past the buffer: the
        # start is clamped, not indexed (this broke the first prototype).
        buffer = np.frombuffer(b"xy", dtype=np.uint8)
        out = gather_windows(buffer, np.array([2, 99]), np.array([0, 0]), 16)
        assert not out.any() and out.shape == (2, 16)
        empty = np.empty(0, dtype=np.uint8)
        out = gather_windows(empty, np.array([0]), np.array([0]), 8)
        assert out.tolist() == [[0] * 8]
        none = np.empty(0, dtype=np.int64)
        assert gather_windows(buffer, none, none, 4).shape == (0, 4)

    def test_varchar_via_fixed_raises(self):
        with pytest.raises(KeyEncodingError):
            fixed_column_codes(np.array(["a"], dtype=object), VARCHAR)
