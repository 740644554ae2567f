"""Base machinery for the five system models of Section VII.

Each model composes the same architectural ingredients the paper
attributes to its system -- data format (DSM/NSM), run-generation
algorithm, comparator binding, merge strategy, parallelism -- into a
phase-by-phase cost model over a shared :class:`HardwareProfile`.  The
differences between models are therefore exactly the architectural
differences the paper studies, which is the point of its own
"apples-to-apples" methodology.

Costs are in model cycles; :meth:`SystemModel.benchmark_query` converts to
seconds at the profile's nominal clock.  Every model can also *execute*
the sort for real (they all share the reference semantics), which the
tests use to confirm the models describe the same relational operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.sort.operator import sort_table
from repro.table.table import Table
from repro.types.datatypes import TypeId
from repro.types.schema import Schema
from repro.types.sortspec import SortSpec
from repro.systems.parallel import PhaseModel
from repro.systems.profile import (
    ComparisonProfile,
    HardwareProfile,
    comparison_profile,
    sort_comparisons,
)

__all__ = ["WorkloadFacts", "SystemRun", "SystemModel"]


@dataclass(frozen=True)
class WorkloadFacts:
    """Everything a model needs to know about one sort workload."""

    num_rows: int
    spec: SortSpec
    key_widths: tuple[int, ...]  # encoded value bytes per key column
    key_is_string: tuple[bool, ...]
    key_is_float: tuple[bool, ...]
    avg_string_bytes: float  # average length of string key values
    string_prefix_tie_probability: float  # P(12-byte prefixes tie)
    string_prefix4_tie_probability: float  # P(4-byte inline prefixes tie)
    payload_bytes: int  # bytes of selected payload per row
    comparisons: ComparisonProfile

    @property
    def num_keys(self) -> int:
        return len(self.key_widths)

    @property
    def fixed_key_bytes(self) -> int:
        return sum(self.key_widths)

    @property
    def has_string_key(self) -> bool:
        return any(self.key_is_string)

    @property
    def has_float_key(self) -> bool:
        return any(self.key_is_float)


def _column_width(schema: Schema, name: str) -> int:
    dtype = schema.column(name).dtype
    if dtype.is_variable_width:
        return 12  # DuckDB's maximum normalized-key string prefix
    return dtype.fixed_width


def gather_facts(
    table: Table, spec: SortSpec, payload_columns: tuple[str, ...]
) -> WorkloadFacts:
    """Measure the workload-dependent quantities from the actual data."""
    schema = table.schema
    widths = []
    is_string = []
    is_float = []
    total_string = 0.0
    string_values = 0
    prefix_tie = 0.0
    prefix4_tie = 0.0
    for key in spec.keys:
        dtype = schema.column(key.column).dtype
        stringy = dtype.type_id is TypeId.VARCHAR
        is_string.append(stringy)
        is_float.append(dtype.is_float)
        widths.append(_column_width(schema, key.column))
        if stringy and table.num_rows:
            data = table.column(key.column).data
            lengths = np.array([len(str(v)) for v in data])
            total_string += float(lengths.sum())
            string_values += len(lengths)
            strings = data.astype(str)
            unique_full = len(np.unique(strings))
            if unique_full:
                # Fraction of distinctions each prefix length cannot make.
                unique12 = len(np.unique(np.array([s_[:12] for s_ in strings])))
                unique4 = len(np.unique(np.array([s_[:4] for s_ in strings])))
                prefix_tie = max(prefix_tie, 1.0 - unique12 / unique_full)
                prefix4_tie = max(prefix4_tie, 1.0 - unique4 / unique_full)
    payload_bytes = 0
    for name in payload_columns:
        dtype = schema.column(name).dtype
        if dtype.is_variable_width:
            data = table.column(name).data
            if table.num_rows:
                payload_bytes += int(
                    np.mean([len(str(v)) for v in data])
                ) + 8
            else:
                payload_bytes += 8
        else:
            payload_bytes += dtype.fixed_width
    avg_string = total_string / string_values if string_values else 0.0
    return WorkloadFacts(
        num_rows=table.num_rows,
        spec=spec,
        key_widths=tuple(widths),
        key_is_string=tuple(is_string),
        key_is_float=tuple(is_float),
        avg_string_bytes=avg_string,
        string_prefix_tie_probability=prefix_tie,
        string_prefix4_tie_probability=prefix4_tie,
        payload_bytes=payload_bytes,
        comparisons=comparison_profile(table, spec),
    )


@dataclass
class SystemRun:
    """Modelled end-to-end outcome of one benchmark query on one system."""

    system: str
    cycles: float
    seconds: float
    phases: list[tuple[str, float]] = field(default_factory=list)

    def phase_seconds(self, profile: HardwareProfile) -> dict[str, float]:
        return {name: profile.seconds(c) for name, c in self.phases}


class SystemModel:
    """Base class: shared phase helpers + the public benchmark entry."""

    name = "abstract"
    parallel = True

    def __init__(self, profile: HardwareProfile | None = None) -> None:
        self.profile = profile or HardwareProfile()

    # -- public API ------------------------------------------------------- #

    def benchmark_query(
        self,
        table: Table,
        spec: SortSpec,
        payload_columns: tuple[str, ...] | None = None,
    ) -> SystemRun:
        """Model the paper's count-over-sorted-subquery benchmark."""
        if payload_columns is None:
            payload_columns = tuple(
                n for n in table.schema.names if n not in spec.column_names
            )
        facts = gather_facts(table, spec, payload_columns)
        model = self.sort_phases(table, facts)
        # Scan + count(*) are the cheap bracketing operators of the
        # benchmark query: one streaming pass each.
        scan = self.profile.stream_cost(
            facts.num_rows * (facts.fixed_key_bytes + facts.payload_bytes)
        )
        threads = self.threads
        model.sequential("scan", scan / threads)
        cycles = model.total
        return SystemRun(
            system=self.name,
            cycles=cycles,
            seconds=self.profile.seconds(cycles),
            phases=list(model.phases),
        )

    def execute(self, table: Table, spec: SortSpec) -> Table:
        """Actually perform the sort (shared reference semantics)."""
        return sort_table(table, spec)

    # -- to be provided by each system ------------------------------------- #

    def sort_phases(self, table: Table, facts: WorkloadFacts) -> PhaseModel:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------- #

    @property
    def threads(self) -> int:
        return self.profile.threads if self.parallel else 1

    def run_sizes(self, n: int) -> list[int]:
        """Thread-local run sizes: one run per thread (paper, Section II)."""
        threads = self.threads
        base = n // threads
        sizes = [base] * threads
        for i in range(n - base * threads):
            sizes[i] += 1
        return [s for s in sizes if s > 0] or [n]

    def run_generation_comparisons(self, n: int) -> float:
        """Total comparisons across all thread-local run sorts."""
        return sum(sort_comparisons(s) for s in self.run_sizes(n))

    def merge_comparisons(self, n: int) -> float:
        runs = len(self.run_sizes(n))
        if runs <= 1:
            return 0.0
        return n * math.log2(runs)

    def float_penalty(self, facts: WorkloadFacts) -> float:
        """Extra cycles per value comparison when float keys are compared.

        Comparing IEEE floats costs more than integers (latency + NaN/order
        handling); systems that compare *values* pay it, systems that
        compare normalized key bytes (DuckDB) do not.
        """
        return 2.0 if facts.has_float_key else 0.0

    def outcome_branch_cost(self) -> float:
        """Mispredict share of a comparison sort's result branch (~50%)."""
        return 0.5 * self.profile.branch_miss_cost

    def rowsort_fill_cost(
        self, working_set_bytes: float, element_bytes: float, n: int
    ) -> float:
        """Amortized cache-fill cycles per element access in a *row* sort.

        Quicksort over physically moving rows streams the data once per
        recursion level; only the levels whose partition still exceeds a
        cache level miss it, and each element then costs one line-fill
        share.  Amortized over the ~log2(n) levels this is small -- which
        is exactly why sorting rows incurs an order of magnitude fewer
        cache misses than sorting a columnar format (paper, Tables II/III).

        Columnar sorts do NOT get this discount: they permute indices, the
        data never moves, and accesses stay random at every level (use
        :meth:`HardwareProfile.random_access_cost` there).
        """
        if n <= 1 or working_set_bytes <= 0:
            return 0.0
        profile = self.profile
        levels = max(1.0, math.log2(n))

        def out_levels(capacity: int) -> float:
            if working_set_bytes <= capacity:
                return 0.0
            return math.log2(working_set_bytes / capacity)

        line_share = element_bytes / profile.line_bytes
        fill = line_share * (
            out_levels(profile.l1_bytes) * (profile.l2_cost - profile.hit_cost)
            + out_levels(profile.l2_bytes) * (profile.l3_cost - profile.l2_cost)
            + out_levels(profile.l3_bytes) * (profile.mem_cost - profile.l3_cost)
        )
        return fill / levels
