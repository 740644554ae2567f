"""Scenario-diversity workload suite: the sort paths' stress catalog.

Every benchmark recorded before this module ran mostly uniform-random
int64, so the run sort's tie refinement, replacement selection, the
merge's tie handling, and key compression were never exercised on the
skewed, near-sorted, duplicate-heavy, and string-heavy inputs the
paper's TPC-DS evaluation targets.  This module is the fix: a
seed-deterministic generator suite, each input shape declared as a
:class:`Scenario`, shared by the differential oracle tests, the bench
matrix (``benchmarks/bench_matrix.py``), and the regression gate
(``benchmarks/regress.py``).

Two layers:

* **Value generators** -- pure functions ``(rng, n, **params) ->
  ndarray`` producing one column's values.  Every generator takes an
  explicit :class:`numpy.random.Generator`; none touches module-level
  RNG state, so a scenario built twice from the same seed is
  byte-identical regardless of what ran in between.
* **Scenarios** -- declarative :class:`Scenario` specs naming the
  columns (generator + parameters + NULL fraction), the ORDER BY the
  matrix sweeps, and a human description.  ``Scenario.table(n, seed)``
  materializes the input; ``Scenario.sql(limit, offset)`` renders the
  matching query for the engine/service paths.

The catalog mirrors how the run-generation literature (and the paper's
Section II) classifies inputs -- see each scenario's description -- and
folds in the paper's TPC-DS sorts via :mod:`repro.workloads.tpcds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from repro.errors import ReproError
from repro.table.column import ColumnVector
from repro.table.table import Table
from repro.types.datatypes import BIGINT, DOUBLE, VARCHAR
from repro.types.schema import ColumnDef, Schema
from repro.workloads import tpcds

__all__ = [
    "SCENARIOS",
    "VALUE_GENERATORS",
    "ColumnSpec",
    "Scenario",
    "dup_heavy_values",
    "long_string_values",
    "near_sorted_values",
    "reverse_values",
    "scenario_table",
    "uniform_values",
    "zipf_dups_values",
]


# ---------------------------------------------------------------------- #
# Value generators (all take an explicit rng; no module-level state)
# ---------------------------------------------------------------------- #


def uniform_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Independent draws over the full int64 range: the baseline where
    replacement selection only reaches the classic ~2x run length."""
    return rng.integers(-(1 << 62), 1 << 62, n).astype(np.int64)


def near_sorted_values(
    rng: np.random.Generator,
    n: int,
    jitter: int = 64,
    displaced_fraction: float = 0.01,
) -> np.ndarray:
    """Sorted values with bounded local jitter and sparse far outliers.

    An already-sorted sequence perturbed two ways at once: bounded local
    jitter (every row within ``jitter`` positions of its sorted place,
    like a log with bounded clock skew) plus a sparse fraction of rows
    displaced arbitrarily far (late arrivals).  Replacement selection
    turns this into a handful of giant runs.
    """
    base = np.arange(n, dtype=np.int64)
    keys = base + rng.integers(-jitter, jitter + 1, n)
    displaced = rng.random(n) < displaced_fraction
    keys[displaced] = rng.integers(0, n, int(displaced.sum()))
    return base[np.argsort(keys, kind="stable")]


def reverse_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly descending: replacement selection's worst case (every
    incoming row is below the fence, so runs cannot grow)."""
    del rng  # deterministic scenario; signature kept uniform
    return np.arange(n, 0, -1, dtype=np.int64)


def zipf_dups_values(
    rng: np.random.Generator, n: int, alpha: float = 1.3
) -> np.ndarray:
    """Zipf-skewed duplicate-heavy keys (clipped to 10k distinct values).

    A few values dominate, so the leading key bytes are skewed and
    merge tie-handling (stable row ids) is exercised hard.
    """
    return np.minimum(rng.zipf(alpha, n), 10_000).astype(np.int64)


def dup_heavy_values(
    rng: np.random.Generator, n: int, distinct: int = 16
) -> np.ndarray:
    """Uniform draws from a tiny domain: almost every key is a duplicate.

    Unlike the Zipf scenario no value dominates, but with ``distinct``
    values nearly every comparison ties -- the duplicate/skew stress
    Do & Graefe (arXiv 2209.08420) motivate offset-value coding with.
    """
    return rng.integers(0, distinct, n).astype(np.int64)


def long_string_values(
    rng: np.random.Generator,
    n: int,
    shared_prefix: int = 16,
    tail: int = 12,
) -> np.ndarray:
    """UTF-8 strings longer than the 12-byte normalized-key prefix.

    Each value is ``shared_prefix`` bytes drawn from a handful of common
    stems followed by a random ``tail`` -- so the truncated prefix ties
    constantly and only the adaptive tie-break re-encoding
    (:mod:`repro.sort.stringsort`) makes the vector path exact.
    """
    stems = np.array(
        [f"shared-prefix-{c:02d}-"[:shared_prefix] for c in range(4)],
        dtype=object,
    )
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"), dtype=object)
    tails = letters[rng.integers(0, len(letters), (n, tail))]
    values = stems[rng.integers(0, len(stems), n)]
    for position in range(tail):
        values = values + tails[:, position]
    return values


def float_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform doubles, for the mixed-null scenario's float column."""
    return rng.uniform(-1e6, 1e6, n)


VALUE_GENERATORS: Mapping[str, Callable] = {
    "uniform": uniform_values,
    "near_sorted": near_sorted_values,
    "reverse": reverse_values,
    "zipf_dups": zipf_dups_values,
    "dup_heavy": dup_heavy_values,
    "long_string": long_string_values,
    "float": float_values,
}
"""Registry of value generators; :class:`ColumnSpec` names one of these."""


# ---------------------------------------------------------------------- #
# Declarative scenario specs
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ColumnSpec:
    """One generated column: generator name, parameters, NULL fraction."""

    name: str
    generator: str
    params: tuple[tuple[str, object], ...] = ()
    null_fraction: float = 0.0

    def build(self, rng: np.random.Generator, n: int) -> ColumnVector:
        if self.generator not in VALUE_GENERATORS:
            raise ReproError(f"unknown value generator {self.generator!r}")
        values = VALUE_GENERATORS[self.generator](rng, n, **dict(self.params))
        validity = None
        if self.null_fraction > 0:
            validity = rng.random(n) >= self.null_fraction
        values = np.asarray(values)
        if values.dtype == object:
            if validity is not None:
                values = values.copy()
                values[~validity] = ""
            return ColumnVector(VARCHAR, values, validity)
        if values.dtype.kind == "f":
            if validity is not None:
                values = values.copy()
                values[~validity] = 0.0
            return ColumnVector(DOUBLE, values.astype(np.float64), validity)
        values = values.astype(np.int64)
        if validity is not None:
            values = values.copy()
            values[~validity] = 0
        return ColumnVector(BIGINT, values, validity)


@dataclass(frozen=True)
class Scenario:
    """A declarative workload: named generated columns plus an ORDER BY.

    ``table(n, seed)`` is seed-deterministic: one
    ``np.random.default_rng(seed)`` drives every column in declaration
    order, so the same ``(name, n, seed)`` triple always produces the
    same bytes.  ``builder`` overrides column generation for scenarios
    whose tables come from elsewhere (the TPC-DS synthesizers).
    """

    name: str
    description: str
    order_by: str
    columns: tuple[ColumnSpec, ...] = ()
    builder: Callable[[np.random.Generator, int], Table] | None = None
    select: str = "*"
    payload: bool = field(default=True)

    def table(self, n: int, seed: int = 0) -> Table:
        """Materialize ``n`` rows of this scenario, deterministically."""
        rng = np.random.default_rng(seed)
        if self.builder is not None:
            return self.builder(rng, n)
        columns = {spec.name: spec.build(rng, n) for spec in self.columns}
        if self.payload:
            columns["p"] = ColumnVector(
                BIGINT, rng.integers(0, 1 << 62, n).astype(np.int64)
            )
        schema = Schema(
            tuple(
                ColumnDef(name, column.dtype)
                for name, column in columns.items()
            )
        )
        return Table(schema, list(columns.values()))

    def sql(self, limit: int | None = None, offset: int = 0) -> str:
        """The scenario's query against a table registered as ``t``."""
        text = f"SELECT {self.select} FROM t ORDER BY {self.order_by}"
        if limit is not None:
            text += f" LIMIT {limit}"
        if offset:
            text += f" OFFSET {offset}"
        return text


def _tpcds_catalog(rng: np.random.Generator, n: int) -> Table:
    return tpcds.catalog_sales(n, seed=int(rng.integers(0, 1 << 31)))


def _tpcds_customer(rng: np.random.Generator, n: int) -> Table:
    return tpcds.customer(n, seed=int(rng.integers(0, 1 << 31)))


_INT_KEY = (ColumnSpec("a", "uniform"),)

SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "uniform",
            "independent int64 draws over the full range; the baseline "
            "every earlier benchmark measured",
            "a, p",
            (ColumnSpec("a", "uniform"),),
        ),
        Scenario(
            "zipf_skew",
            "Zipf-skewed duplicate-heavy int64 keys; a few values "
            "dominate (skewed leading byte, heavy merge ties)",
            "a, p",
            (ColumnSpec("a", "zipf_dups"),),
        ),
        Scenario(
            "near_sorted",
            "already-sorted int64 with bounded jitter plus sparse far "
            "displacements; replacement selection's best case",
            "a, p",
            (ColumnSpec("a", "near_sorted", (("jitter", 64),)),),
        ),
        Scenario(
            "reverse",
            "strictly descending int64; replacement selection's worst "
            "case",
            "a, p",
            (ColumnSpec("a", "reverse"),),
        ),
        Scenario(
            "dup_heavy",
            "uniform draws from 16 distinct int64 values; nearly every "
            "comparison ties",
            "a, p",
            (ColumnSpec("a", "dup_heavy", (("distinct", 16),)),),
        ),
        Scenario(
            "long_string",
            "strings sharing 16-byte stems and exceeding the 12-byte "
            "key prefix; exact order needs tie-break re-encoding",
            "s, p",
            (ColumnSpec("s", "long_string"),),
        ),
        Scenario(
            "mixed_null",
            "int64 + double + string keys, each several percent NULL; "
            "exercises NULL ordering and NULL-byte folding",
            "a NULLS FIRST, f DESC, s",
            (
                ColumnSpec("a", "zipf_dups", null_fraction=0.08),
                ColumnSpec("f", "float", null_fraction=0.05),
                ColumnSpec("s", "long_string", null_fraction=0.05),
            ),
        ),
        Scenario(
            "tpcds_catalog",
            "synthetic TPC-DS catalog_sales sorted by four nullable "
            "low-cardinality surrogate keys (the paper's Section VII-C)",
            "cs_warehouse_sk, cs_ship_mode_sk, cs_promo_sk, cs_quantity",
            builder=_tpcds_catalog,
        ),
        Scenario(
            "tpcds_customer",
            "synthetic TPC-DS customer sorted by the two VARCHAR name "
            "columns (the paper's Section VII-D string sort)",
            "c_last_name, c_first_name, c_customer_sk",
            builder=_tpcds_customer,
        ),
    )
}
"""The scenario catalog, keyed by name (see ``docs/sort-pipeline.md``)."""


def scenario_table(name: str, n: int, seed: int = 0) -> Table:
    """Materialize a catalog scenario's table (back-compat entry point).

    For the int64 scenarios this reproduces the original two-column
    ``(a, p)`` shape the PR 7/8 benchmarks were recorded against --
    byte-identical for the same seed: one ``default_rng(seed)`` draws
    the key column first and the payload second.
    """
    if name in SCENARIOS:
        return SCENARIOS[name].table(n, seed)
    # The pre-catalog spelling of the Zipf scenario, kept for recorded
    # benchmark artifacts that name it "zipf_dups".
    if name == "zipf_dups":
        return SCENARIOS["zipf_skew"].table(n, seed)
    raise ReproError(f"unknown scenario {name!r}")
