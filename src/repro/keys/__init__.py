"""Key normalization: order-preserving binary key encoding and decoding."""

from repro.keys.compression import (
    KeyStatsAccumulator,
    build_compressed_layout,
    decode_key_table,
    key_carried_eligible,
    plain_key_width,
    rebase_matrix,
)
from repro.keys.decoder import decode_key_row, decode_segment
from repro.keys.encoding import (
    encode_fixed_column,
    encode_float,
    encode_scalar,
    encode_signed,
    encode_string,
    encode_unsigned,
    fixed_column_codes,
    invert_bytes,
)
from repro.keys.normalizer import (
    DEFAULT_STRING_PREFIX,
    MAX_STRING_PREFIX,
    MODE_FOLDED,
    MODE_NOBYTE,
    MODE_PLAIN,
    KeyLayout,
    KeySegment,
    NormalizedKeys,
    build_layout,
    normalize_keys,
    normalized_key_for_row,
)

__all__ = [
    "decode_key_row",
    "decode_segment",
    "encode_fixed_column",
    "encode_float",
    "encode_scalar",
    "encode_signed",
    "encode_string",
    "encode_unsigned",
    "fixed_column_codes",
    "invert_bytes",
    "DEFAULT_STRING_PREFIX",
    "MAX_STRING_PREFIX",
    "MODE_PLAIN",
    "MODE_NOBYTE",
    "MODE_FOLDED",
    "KeyLayout",
    "KeySegment",
    "NormalizedKeys",
    "build_layout",
    "normalize_keys",
    "normalized_key_for_row",
    "KeyStatsAccumulator",
    "build_compressed_layout",
    "decode_key_table",
    "key_carried_eligible",
    "plain_key_width",
    "rebase_matrix",
]
