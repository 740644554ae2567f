"""The six workloads: inputs, configs, SQL, and the pinned input digests.

Sizes are written at the scale ISSUE 11 names (1,000,000 rows for the
four big sorts) and divided by ``DEFAULT_DIVISOR`` when run: the
benchmark contract caps one run at about 25 s including set-up, and the
issue's own rule for that case is "halve the rows of the four 1M
workloads together; do not drop a workload".  Run thresholds and the
service memory budget are divided by the same number, so every workload
keeps its shape (8 resident runs, 16 spilled runs, 3-4 forced spills
per big service sort) at every divisor.

``--seed`` reaches ``Scenario.table`` and nothing else; the program under
test sees the generated tables and SQL text.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

DEFAULT_DIVISOR = 4
SMOKE_DIVISOR = 200
"""``--smoke``: the default sizes divided by 50."""

PINNED_SEED = 17
MIN_RUN_THRESHOLD = 1024
"""One vector: a run threshold below this would cut a run per chunk."""

SERVICE_CUT_POINTS = 4
SERVICE_CLIENTS = 2


@dataclass(frozen=True)
class TableSpec:
    """One registered input table: catalog scenario and nominal rows."""

    name: str
    scenario: str
    rows: int
    filter_column: str = ""
    """``service_mix`` only: the column its ``WHERE col > k`` tests."""
    filter_domain: int = 0
    """Cut points are drawn from ``[0, filter_domain)``; 0 means the
    table's own row count (a surrogate key that grows with the table)."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: tuple[TableSpec, ...]
    external: bool = False
    run_threshold: int = 131_072
    limit: int | None = None
    offset: int = 0
    min_reps: int = 7
    """Fewest timed queries (``service_mix``: cycles per client)."""
    service: bool = False
    memory_budget: int = 0
    input_digest: str = ""
    """sha256 of the inputs at ``PINNED_SEED`` and ``DEFAULT_DIVISOR``."""


_UNIFORM_1M = (TableSpec("t", "uniform", 1_000_000),)
_UNIFORM_DIGEST = (
    "28cda3fca1ee2d78909a4f647a8a8ea0a4a4b541fbd7497bf491242d925a66a4"
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "int_inmem",
            "uniform int64, 8 resident runs: run generation, the pairwise "
            "merge cascade, payload gather and result assembly do the work; "
            "strings, spill, Top-N and service do none",
            _UNIFORM_1M,
            input_digest=_UNIFORM_DIGEST,
        ),
        Workload(
            "near_sorted_inmem",
            "same query and layers as int_inmem on near-sorted input: a "
            "presortedness short-circuit should win here and cost nothing "
            "on int_inmem",
            (TableSpec("t", "near_sorted", 1_000_000),),
            input_digest=(
                "43ea8d3bf6091acd1bec47cb10226391fb66e2501a58ae8cb784eed30053bd56"
            ),
        ),
        Workload(
            "string_inmem",
            "VARCHAR keys longer than the 12-byte prefix: key encoding, "
            "tie-group refinement and string-heap payload decode dominate; "
            "the merge is a small share",
            (TableSpec("t", "long_string", 250_000),),
            input_digest=(
                "dc95f1fa4c4b40fec6ce2c4f0d26f61928db8bd8b59a5cd22556c7fe61082198"
            ),
        ),
        Workload(
            "int_spill",
            "int_inmem's table with the run store spilled (16 runs, one "
            "k-way pass, checksums, prefetch): spill write/read, CRC and "
            "kway_merge_blocks do the work",
            _UNIFORM_1M,
            external=True,
            run_threshold=65_536,
            input_digest=_UNIFORM_DIGEST,
        ),
        Workload(
            "topn_limit",
            "int_inmem's table with LIMIT 100 OFFSET 7: Top-N does all the "
            "work and merge, 1M-row gather and result assembly are bypassed, "
            "so a full-sort optimisation predicts no change here",
            _UNIFORM_1M,
            limit=100,
            offset=7,
            input_digest=_UNIFORM_DIGEST,
        ),
        Workload(
            "service_mix",
            "two clients send filtered sorts, LIMIT 100 queries and repeats "
            "to SortService under one memory budget: plan, admission, grants, "
            "cache and thread overlap matter; the only NULL/DESC/double keys",
            (
                TableSpec("u", "uniform", 200_000, "p", 1 << 62),
                # 32,768, not the issue's 50,000: the oracle found that one
                # spilled run longer than two merge blocks (8,192 rows) with
                # a truncated VARCHAR as the last key comes back with a row
                # duplicated and a row lost (README, "Defect found").  The
                # contract wants workloads on which no operation fails, so
                # this table stays at 8,192 rows at the default divisor.
                TableSpec("m", "mixed_null", 32_768, "p", 1 << 62),
                TableSpec("c", "tpcds_customer", 50_000, "c_customer_sk"),
            ),
            external=True,
            service=True,
            memory_budget=8 << 20,
            min_reps=2,  # cycles of 24 queries per client
            input_digest=(
                "d452a28591db897f40222a36a36bd80ad9c7d8c88819e60088e339ced2b56541"
            ),
        ),
    )
}


def scaled_rows(spec: TableSpec, divisor: int) -> int:
    return max(1, spec.rows // divisor)


def build_tables(workload: Workload, seed: int, divisor: int) -> dict:
    """The workload's input tables by registered name, from the catalog."""
    from repro.workloads.scenarios import SCENARIOS

    return {
        spec.name: SCENARIOS[spec.scenario].table(
            scaled_rows(spec, divisor), seed
        )
        for spec in workload.tables
    }


def sort_config(workload: Workload, divisor: int):
    """The ``SortConfig`` the workload's ``Database`` is built with."""
    from repro.sort.operator import SortConfig

    if workload.service:
        # The governor's grant, not run_threshold, sizes service runs.
        return SortConfig(external=workload.external)
    return SortConfig(
        external=workload.external,
        run_threshold=max(MIN_RUN_THRESHOLD, workload.run_threshold // divisor),
    )


def service_settings(workload: Workload, divisor: int) -> dict:
    """``SortService`` keyword arguments; two grants of half the budget."""
    budget = max(64 << 10, workload.memory_budget // divisor)
    return {
        "memory_budget": budget,
        "min_grant_bytes": budget // 4,
        "workers": SERVICE_CLIENTS,
        "queue_limit": 8,
        "cache_capacity": 16,
    }


def single_sql(workload: Workload) -> str:
    """The one query of a single-table workload (``Scenario.sql()``)."""
    from repro.workloads.scenarios import SCENARIOS

    scenario = SCENARIOS[workload.tables[0].scenario]
    return scenario.sql(workload.limit, workload.offset)


# ---------------------------------------------------------------------- #
# service_mix: query text and the per-client schedule
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ServiceQuery:
    """One service query: table, ``WHERE filter_column > cut``, LIMIT or not.

    ``cut`` is ``None`` for the three unfiltered warm-up queries.
    """

    table: str
    cut: int | None
    limited: bool


def service_sql(workload: Workload, query: ServiceQuery) -> str:
    from repro.workloads.scenarios import SCENARIOS

    spec = next(s for s in workload.tables if s.name == query.table)
    text = SCENARIOS[spec.scenario].sql(100 if query.limited else None)
    text = text.replace(" FROM t ", f" FROM {spec.name} ", 1)
    if query.cut is not None:
        where = f" WHERE {spec.filter_column} > {query.cut}"
        text = text.replace(" ORDER BY", where + " ORDER BY", 1)
    return text


def service_cycle(
    workload: Workload, client: int, cycle: int, divisor: int
) -> list[ServiceQuery]:
    """One client's next 24 queries: the same mix in every cycle.

    Per table: 4 full sorts, one per quarter of the filter column's
    range; 1 of them is followed at once by its LIMIT 100 form (the
    cache slices the full result); 1 more LIMIT 100 query has a cut
    point of its own (Top-N runs).  6 further slots repeat one of the
    client's four latest queries (exact cache hits).  That is 50% full,
    25% LIMIT, 25% repeats.

    Nothing here depends on ``--seed`` (the seed makes the tables), and
    every hit and miss is decided by the schedule, not by how the clients
    interleave: cut points depend on (client, cycle), so they are new in
    every cycle and differ between the clients, and no full sort is ever
    answered from the cache.  Each cycle sorts the same share of each
    table.  Order, follow-ups and repeat targets come from a generator
    seeded by (client, cycle): with the run's seed in it, which queries
    met in a lockstep round changed throughput by +-11% from seed to
    seed; with independent draws per query, by +-9%.
    """
    rng = np.random.default_rng([client, cycle])
    slot = (cycle * SERVICE_CLIENTS + client) % 64

    def cut(spec: TableSpec, part: int, parts: int, shift: float = 0.0) -> int:
        domain = spec.filter_domain or scaled_rows(spec, divisor)
        within = 0.5 + (slot - 32) / 1024 + shift  # mid-part, +-3%
        return int((part + within) / parts * domain)

    groups: list[list[ServiceQuery]] = []
    for spec in workload.tables:
        followed = int(rng.integers(SERVICE_CUT_POINTS))
        for part in range(SERVICE_CUT_POINTS):
            k = cut(spec, part, SERVICE_CUT_POINTS)
            group = [ServiceQuery(spec.name, k, False)]
            if part == followed:
                group.append(ServiceQuery(spec.name, k, True))
            groups.append(group)
        groups.append([ServiceQuery(spec.name, cut(spec, 0, 1, 1 / 300), True)])
    rng.shuffle(groups)
    queries = [query for group in groups for query in group]
    for _ in range(len(queries) // 3):
        # Insert anywhere but between a full sort and its LIMIT form.
        while True:
            position = int(rng.integers(1, len(queries) + 1))
            before = queries[position - 1]
            after = queries[position] if position < len(queries) else None
            if after is None or not (
                after.limited and not before.limited and after.cut == before.cut
            ):
                break
        recent = queries[max(0, position - 4) : position]
        queries.insert(position, recent[int(rng.integers(len(recent)))])
    return queries


# ---------------------------------------------------------------------- #
# Input pinning
# ---------------------------------------------------------------------- #


def input_digest(tables: dict) -> str:
    """sha256 over schema, column data and validity of every table."""
    digest = hashlib.sha256()
    for name in sorted(tables):
        table = tables[name]
        digest.update(name.encode())
        for column_def, column in zip(table.schema, table.columns):
            digest.update(
                f"|{column_def.name}:{column.dtype.name}:{len(column)}|".encode()
            )
            data = column.data
            if data.dtype == object:
                for value in data.tolist():
                    encoded = value.encode()
                    digest.update(len(encoded).to_bytes(4, "little"))
                    digest.update(encoded)
            else:
                digest.update(np.ascontiguousarray(data).tobytes())
            digest.update(np.ascontiguousarray(column.validity).tobytes())
    return digest.hexdigest()
