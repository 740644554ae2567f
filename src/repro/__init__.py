"""Reproduction of *These Rows Are Made for Sorting and That's Just What
We'll Do* (Kuiper & Mühleisen, ICDE 2023).

The library has two faces:

* the **production face** -- a usable relational sort built the way the
  paper builds DuckDB's: normalized keys, radix sort / pdqsort run
  generation, one-pass k-way merging, spill files that keep a run's
  payload columnar, and a small vectorized SQL engine around it
  (:mod:`repro.table`, :mod:`repro.keys`, :mod:`repro.sort`,
  :mod:`repro.engine`);
* the **study face** -- an instrumented hardware simulator (caches, branch
  predictors, cost model) on which faithful ports of the paper's sorting
  approaches run, reproducing the micro-architectural experiments
  (:mod:`repro.sim`, :mod:`repro.simsort`, :mod:`repro.systems`,
  :mod:`repro.workloads`, :mod:`repro.bench`).

Quickstart::

    import repro

    table = repro.Table.from_pydict(
        {"country": ["NL", "DE", None], "year": [1992, 1968, 1990]}
    )
    result = repro.sort_table(table, "country DESC NULLS LAST, year ASC")
"""

from repro.aggregate import Aggregate, group_by
from repro.errors import (
    ReproError,
    SortCancelledError,
    SortError,
    SpillCorruptionError,
    SpillError,
    SpillIOError,
)
from repro.join import ie_join, inequality_join, merge_join
from repro.keys import normalize_keys
from repro.sort import (
    SortConfig,
    SortOperator,
    sort_table,
    top_n,
)
from repro.table import DataChunk, Table, read_csv, write_csv
from repro.window import WindowFunction, WindowSpec, window
from repro.types import (
    BIGINT,
    BOOLEAN,
    DATE,
    DOUBLE,
    FLOAT,
    INTEGER,
    SMALLINT,
    VARCHAR,
    NullOrder,
    Order,
    Schema,
    SortKey,
    SortSpec,
)

__version__ = "1.0.0"

__all__ = [
    "Aggregate",
    "group_by",
    "ReproError",
    "SortCancelledError",
    "SortError",
    "SpillCorruptionError",
    "SpillError",
    "SpillIOError",
    "ie_join",
    "inequality_join",
    "merge_join",
    "read_csv",
    "write_csv",
    "WindowFunction",
    "WindowSpec",
    "window",
    "normalize_keys",
    "SortConfig",
    "SortOperator",
    "sort_table",
    "top_n",
    "DataChunk",
    "Table",
    "BIGINT",
    "BOOLEAN",
    "DATE",
    "DOUBLE",
    "FLOAT",
    "INTEGER",
    "SMALLINT",
    "VARCHAR",
    "NullOrder",
    "Order",
    "Schema",
    "SortKey",
    "SortSpec",
    "__version__",
]
