"""Models of HyPer and Umbra: compiled row-based sorting.

Per Section VII, both systems have "a compiled, row-based sorting
implementation similar to what is described in [Morsel-driven
parallelism]": threads materialize query-specific row structs, sort
thread-locally with a pdqsort-like quicksort using a *statically compiled*
comparator (no call or interpretation overhead), merge in parallel with a
k-way merge **on pointers** (no data movement), and physically collect the
rows only when the sort's output is read.

The two systems share this architecture; the paper observes Umbra to be
slightly faster overall on single-key sorts but to degrade more with
additional key columns (2.4-3x from one to four keys, vs ~1.5x for HyPer).
We model that with two calibration knobs: a base-cost scale and a scale on
the comparator's per-extra-column work.
"""

from __future__ import annotations

import math

from repro.systems.base import SystemModel, WorkloadFacts
from repro.systems.parallel import PhaseModel, makespan
from repro.systems.profile import sort_comparisons
from repro.table.table import Table

__all__ = ["CompiledRowModel", "HyPerModel", "UmbraModel"]


class CompiledRowModel(SystemModel):
    """Shared HyPer/Umbra architecture with per-system calibration."""

    name = "CompiledRow"
    parallel = True
    base_scale = 1.0
    extra_column_scale = 1.0

    def _row_width(self, facts: WorkloadFacts) -> int:
        width = facts.fixed_key_bytes + facts.payload_bytes + 8  # row id/ptr
        return (width + 7) // 8 * 8

    def _comparison_cost(self, run_size: int, facts: WorkloadFacts) -> float:
        """One statically compiled tuple comparison on contiguous rows."""
        profile = self.profile
        row_width = self._row_width(facts)
        probabilities = facts.comparisons.examine_probability
        # Rows move as the sort progresses, so accesses amortize to cached
        # loads plus a small per-level fill share; later key columns are
        # on the same cache line -- the locality row formats buy.
        fill = self.rowsort_fill_cost(
            run_size * row_width, row_width, run_size
        )
        cost = 2 * (profile.hit_cost + fill)
        extra = 0.0
        for p, width, stringy in zip(
            probabilities[1:], facts.key_widths[1:], facts.key_is_string[1:]
        ):
            extra += p * 2 * profile.hit_cost
        # Compiled engines store a short string prefix inline in the row
        # ("German strings"); only prefix ties chase the out-of-row data.
        tie4 = facts.string_prefix4_tie_probability
        for p, stringy in zip(probabilities, facts.key_is_string):
            if stringy:
                heap = profile.random_access_cost(
                    run_size * max(8.0, facts.avg_string_bytes)
                )
                extra += p * (
                    2 * profile.hit_cost
                    + tie4 * (2 * heap + 2 * facts.avg_string_bytes / 8.0)
                )
        branch = (
            facts.comparisons.tie_branch_unpredictability
            * profile.branch_miss_cost
        )
        cost += self.extra_column_scale * (extra + branch)
        cost += self.float_penalty(facts)
        cost += self.outcome_branch_cost()
        return self.base_scale * cost

    def sort_phases(self, table: Table, facts: WorkloadFacts) -> PhaseModel:
        profile = self.profile
        model = PhaseModel(self.threads)
        n = facts.num_rows
        if n == 0:
            return model
        row_width = self._row_width(facts)
        run_sizes = self.run_sizes(n)

        # Materialize the generated row structs (streaming).
        model.phase(
            "materialize",
            [
                profile.stream_cost(
                    size * (facts.fixed_key_bytes + facts.payload_bytes)
                )
                + profile.stream_cost(size * row_width)
                for size in run_sizes
            ],
        )

        # Thread-local quicksort with the compiled comparator; swaps move
        # whole rows.
        sort_costs = []
        for size in run_sizes:
            comparisons = sort_comparisons(size)
            per_comparison = self._comparison_cost(size, facts)
            swaps = 0.3 * comparisons * 3 * profile.stream_cost(row_width)
            sort_costs.append(comparisons * per_comparison + swaps)
        model.phase("run-sort", sort_costs)

        # Parallel k-way merge on pointers: no data movement, and each run
        # is consumed front-to-back (runs were physically sorted in
        # place), so the loads are k prefetch-friendly sequential streams.
        runs = len(run_sizes)
        if runs > 1:
            per_element = (
                math.log2(runs) * 2 * facts.num_keys * profile.hit_cost
                + profile.stream_cost(row_width)
                + 0.5 * profile.branch_miss_cost  # take-side branch
            )
            merge_tasks = [
                (n / self.threads) * per_element
            ] * self.threads
            model.phase("pointer-merge", merge_tasks)

        # Physically collect rows in sorted order when output is read:
        # gathering through the merged pointer sequence reads k sequential
        # run streams and writes one output stream.
        collect_tasks = [
            size * (2 * profile.stream_cost(row_width) + 2.0)
            for size in run_sizes
        ]
        model.phase("collect-output", collect_tasks)
        return model


class HyPerModel(CompiledRowModel):
    name = "HyPer"
    base_scale = 1.12
    extra_column_scale = 0.55


class UmbraModel(CompiledRowModel):
    name = "Umbra"
    base_scale = 1.0
    extra_column_scale = 2.0
