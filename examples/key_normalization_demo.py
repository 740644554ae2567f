"""Figure 7, byte by byte: how key normalization encodes a sort order.

Run with::

    python examples/key_normalization_demo.py

Reproduces the paper's worked example -- ORDER BY c_birth_country DESC,
c_birth_year ASC -- and prints the actual normalized key bytes so you can
see the padding, the byte swap, the sign-bit flip, and the DESC inversion.
"""

from repro import Table
from repro.keys import normalize_keys
from repro.scalar.decoder import decode_key_row
from repro.types.sortspec import SortSpec


def hex_bytes(raw: bytes) -> str:
    return " ".join(f"{b:02x}" for b in raw)


def main() -> None:
    table = Table.from_pydict(
        {
            "c_birth_country": ["NETHERLANDS", "GERMANY", None],
            "c_birth_year": [1992, 1968, 1955],
        }
    )
    spec = SortSpec.of(
        "c_birth_country DESC NULLS LAST", "c_birth_year ASC NULLS FIRST"
    )
    keys = normalize_keys(table, spec, include_row_id=False)
    layout = keys.layout

    print(f"ORDER BY {spec}")
    print(f"key layout: {layout.key_width} bytes per row")
    for segment in layout.segments:
        print(
            f"  {segment.key.column}: offset {segment.offset}, "
            f"1 NULL byte + {segment.value_width} value bytes"
        )
    print()
    for i in range(table.num_rows):
        row = table.row(i)
        print(f"row {row}:")
        print(f"  key = {hex_bytes(keys.key_bytes(i))}")
        print(f"  decodes back to {decode_key_row(keys.matrix[i], layout)}")

    order = sorted(range(table.num_rows), key=keys.key_bytes)
    print("\nmemcmp order of the keys (= the query's ORDER BY):")
    for i in order:
        print("  ", table.row(i))
    # GERMANY is padded with 0x00 to NETHERLANDS' length; DESC inverts the
    # bytes, so NETHERLANDS sorts first; the NULL country sorts last via
    # its indicator byte -- exactly the paper's Figure 7.


if __name__ == "__main__":
    main()
