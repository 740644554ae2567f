"""Key normalization: order-preserving binary key encoding and decoding."""

from repro.keys.compression import (
    KeyStatsAccumulator,
    decode_key_table,
    key_carried_eligible,
    plain_key_width,
    rebase_matrix,
)
from repro.keys.encoding import fixed_column_codes
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
)

__all__ = [
    "fixed_column_codes",
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
    "KeyStatsAccumulator",
    "decode_key_table",
    "key_carried_eligible",
    "plain_key_width",
    "rebase_matrix",
]
