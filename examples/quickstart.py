"""Quickstart: sort a relational table the way the paper's DuckDB does.

Run with::

    python examples/quickstart.py

Builds a small table with strings, integers, and NULLs, sorts it with the
normalized-key row-based sort operator, and shows what happened under the
hood (sort kernel dispatch, runs, merge work).
"""

from repro import SortConfig, SortSpec, Table
from repro.sort.operator import SortOperator
from repro.table.chunk import chunk_table


def main() -> None:
    # The paper's Section II example: customers ordered by country
    # (descending, NULLs last) and birth year (ascending, NULLs first).
    table = Table.from_pydict(
        {
            "c_birth_country": [
                "NETHERLANDS",
                "GERMANY",
                None,
                "GERMANY",
                "BELGIUM",
                "NETHERLANDS",
            ],
            "c_birth_year": [1992, 1968, 1990, None, 1955, None],
            "c_customer_sk": [1, 2, 3, 4, 5, 6],
        }
    )
    spec = SortSpec.of(
        "c_birth_country DESC NULLS LAST",
        "c_birth_year ASC NULLS FIRST",
    )

    print("Input:")
    for row in table.iter_rows():
        print("  ", row)

    # Drive the operator the way a query engine would: sink vector
    # chunks, then finalize.  (repro.sort_table wraps exactly this.)
    operator = SortOperator(table.schema, spec, SortConfig())
    for chunk in chunk_table(table):
        operator.sink(chunk)
    result = operator.finalize()

    print(f"\nSorted by: {spec}")
    for row in result.iter_rows():
        print("  ", row)

    stats = operator.stats
    print("\nWhat the pipeline did (paper, Figure 11):")
    print(f"  rows sorted:        {stats.rows_sorted}")
    print(f"  sorted runs:        {stats.runs_generated}")
    print(f"  run-sort passes:    {stats.sort_passes}")
    print(f"  k-way merge passes: {stats.merge_passes}")
    print(f"  string prefixes exact: {stats.prefix_exact}")

    assert result.is_sorted_by(spec)
    print("\nOK: output verified against the ORDER BY semantics.")


if __name__ == "__main__":
    main()
