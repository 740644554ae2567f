"""Model of ClickHouse's sort: columnar throughout.

Per Section VII: thread-local sorts on a columnar format -- radix sort if
sorting by a single integer column, otherwise pdqsort with a
tuple-at-a-time comparator (JIT compilation removes most interpretation
overhead, so no per-value call cost, but the random access and tie
branches of comparing columnar tuples remain); sorted runs are merged with
a k-way merge; the payload is gathered column-by-column through the sorted
row indices.

This is the model whose per-comparison cost grows with both the number of
rows (column working set outgrows the caches) and the number of key
columns (one random access pair per examined column) -- the degradation
visible in Figures 12 and 13.
"""

from __future__ import annotations

import math

from repro.systems.base import SystemModel, WorkloadFacts
from repro.systems.parallel import PhaseModel, makespan
from repro.systems.profile import sort_comparisons
from repro.table.table import Table

__all__ = ["ClickHouseModel"]


class ClickHouseModel(SystemModel):
    name = "ClickHouse"
    parallel = True

    def _is_single_int_key(self, facts: WorkloadFacts) -> bool:
        return (
            facts.num_keys == 1
            and not facts.key_is_string[0]
            and not facts.key_is_float[0]
        )

    def _tuple_comparison_cost(
        self, run_size: int, facts: WorkloadFacts
    ) -> float:
        """Cost of one tuple-at-a-time comparison on columnar data."""
        profile = self.profile
        cost = 2 * profile.hit_cost  # the two row indices (mostly cached)
        for p, width, stringy in zip(
            facts.comparisons.examine_probability,
            facts.key_widths,
            facts.key_is_string,
        ):
            column_bytes = run_size * (8 if stringy else width)
            load = profile.random_access_cost(column_bytes)
            if stringy:
                # Pointer indirection, a dispatched comparison routine
                # (length handling / collation), and a byte loop.
                heap_load = profile.random_access_cost(
                    run_size * max(8.0, facts.avg_string_bytes)
                )
                cost += p * (
                    2 * load
                    + 2 * heap_load
                    + profile.call_cost
                    + 2 * facts.avg_string_bytes
                )
            else:
                cost += p * 2 * load
        cost += (
            facts.comparisons.tie_branch_unpredictability
            * self.profile.branch_miss_cost
        )
        cost += self.float_penalty(facts)
        cost += self.outcome_branch_cost()
        return cost

    def sort_phases(self, table: Table, facts: WorkloadFacts) -> PhaseModel:
        profile = self.profile
        model = PhaseModel(self.threads)
        n = facts.num_rows
        if n == 0:
            return model
        run_sizes = self.run_sizes(n)

        # Thread-local run sorts on (value, index) pairs / indices.
        if self._is_single_int_key(facts):
            # Radix sort of 8-byte (value, index) pairs: one counting pass
            # per value byte over a streaming working set.
            passes = facts.key_widths[0]
            sort_costs = [
                passes
                * size
                * (profile.random_access_cost(2 * size * 8) + 4.0)
                for size in run_sizes
            ]
        else:
            sort_costs = []
            for size in run_sizes:
                per_comparison = self._tuple_comparison_cost(size, facts)
                comparisons = sort_comparisons(size)
                swaps = 0.3 * comparisons * 2 * profile.hit_cost  # indices
                sort_costs.append(comparisons * per_comparison + swaps)
        model.phase("run-sort", sort_costs)

        # K-way merge of the runs: a single (single-threaded) merging pass
        # moving every selected column once.  Run heads are streamed, so
        # merge comparisons hit cache; the cost is log2(k) cached compares
        # plus an unpredictable take-side branch per output element.
        runs = len(run_sizes)
        if runs > 1:
            per_merge_cmp = (
                2 * facts.num_keys * profile.hit_cost
                + self.float_penalty(facts)
            )
            merge_cycles = n * (
                math.log2(runs) * per_merge_cmp
                + 0.25 * profile.branch_miss_cost
            ) + profile.stream_cost(
                2 * n * (facts.fixed_key_bytes + facts.payload_bytes)
            )
            model.sequential("kway-merge", merge_cycles)

        # Gather the payload columns through the sorted indices.
        gather_costs = []
        payload_width = max(4, facts.payload_bytes)
        for size in run_sizes:
            gather_costs.append(
                size
                * (
                    profile.random_access_cost(n * payload_width)
                    + payload_width / 8.0
                )
            )
        model.phase("payload-gather", gather_costs)
        return model
