"""Model of DuckDB's sort: the paper's own implementation (Figure 11).

Architecture modelled, per Section VII:

* morsel-parallel ingest converting vectors to two 8-byte-aligned row
  formats: normalized keys (with row id) and payload rows;
* thread-local run generation with radix sort, or pdqsort + memcmp when a
  key column is a string (prefix ties re-compare the full string);
* cascaded 2-way merge parallelized with Merge Path, comparing whole keys
  with memcmp, physically moving key and payload rows each round;
* final conversion back to vectors.

Radix work (passes actually executed, skip-copy savings, rows moved) is
*measured* by running the scalar radix sort of :mod:`repro.scalar.radix`
on the workload's real normalized keys, then costed per element.
"""

from __future__ import annotations

import math

from repro.keys.normalizer import normalize_keys
from repro.scalar.radix import RadixStats, radix_argsort
from repro.systems.base import SystemModel, WorkloadFacts
from repro.systems.parallel import PhaseModel, merge_tree_makespan
from repro.table.table import Table

__all__ = ["DuckDBModel"]


class DuckDBModel(SystemModel):
    name = "DuckDB"
    parallel = True

    def normalized_key_width(self, facts: WorkloadFacts) -> int:
        # One NULL byte + encoded value per key column, plus an 8-byte
        # row id, padded to 8-byte alignment.
        width = sum(1 + w for w in facts.key_widths) + 8
        return (width + 7) // 8 * 8

    def sort_phases(self, table: Table, facts: WorkloadFacts) -> PhaseModel:
        profile = self.profile
        model = PhaseModel(self.threads)
        n = facts.num_rows
        if n == 0:
            return model
        key_width = self.normalized_key_width(facts)
        payload_width = max(8, (facts.payload_bytes + 7) // 8 * 8)
        run_sizes = self.run_sizes(n)

        # Phase 1: convert vectors to row formats (key normalization +
        # payload row-ification), block-at-a-time and cache-resident.
        convert_costs = [
            profile.stream_cost(size * (facts.fixed_key_bytes + facts.payload_bytes))
            + profile.stream_cost(size * (key_width + payload_width))
            for size in run_sizes
        ]
        model.phase("materialize", convert_costs)

        # Phase 2: thread-local run sorts.
        if facts.has_string_key:
            sort_costs = [
                self._pdq_cost(size, key_width, facts) for size in run_sizes
            ]
        else:
            stats = self._measure_radix(table, facts)
            sort_costs = [
                self._radix_cost(size, n, key_width, stats)
                for size in run_sizes
            ]
        model.phase("run-sort", sort_costs)

        # Reorder the payload of each run into key order.
        reorder_costs = [
            size
            * (
                profile.random_access_cost(size * payload_width)
                + payload_width / 4.0
            )
            for size in run_sizes
        ]
        model.phase("payload-reorder", reorder_costs)

        # Phase 3: cascaded Merge-Path merge; every round streams all keys
        # and payload once and does one memcmp per output element.
        words = max(1, math.ceil(key_width / 8))
        per_element = (
            2 * words * profile.hit_cost  # sequential memcmp loads
            + profile.stream_cost(key_width + payload_width)
            + 0.25 * profile.branch_miss_cost  # merge take-side branch
        )
        merge = merge_tree_makespan(
            run_sizes, self.threads, per_element, merge_path=True
        )
        model.sequential("merge", merge)

        # Phase 4: convert the final run back to vectors.
        model.sequential(
            "output",
            profile.stream_cost(n * payload_width) / self.threads,
        )
        return model

    # -- run-sort variants --------------------------------------------------- #

    MEASURE_SAMPLE = 1 << 17

    def _measure_radix(self, table: Table, facts: WorkloadFacts) -> RadixStats:
        """Run the real radix sort on the real keys to count its work.

        Only the key bytes are radix-sorted (radix is stable; the row-id
        suffix is merge-time metadata).  Very large workloads are measured
        on a uniform row sample and the movement counts scaled back up.
        """
        n = table.num_rows
        sample = table
        scale = 1.0
        if n > self.MEASURE_SAMPLE:
            step = n // self.MEASURE_SAMPLE
            import numpy as np

            indices = np.arange(0, n, step)[: self.MEASURE_SAMPLE]
            sample = table.take(indices)
            scale = n / len(indices)
        keys = normalize_keys(sample, facts.spec, include_row_id=False)
        stats = RadixStats()
        radix_argsort(keys.matrix, stats)
        if scale != 1.0:
            stats.rows_moved = int(stats.rows_moved * scale)
            stats.insertion_sorted_buckets = int(
                stats.insertion_sorted_buckets * scale
            )
        return stats

    def _radix_cost(
        self, run_size: int, total_rows: int, key_width: int, stats: RadixStats
    ) -> float:
        """Cost of radix-sorting one run, scaled from measured global work."""
        profile = self.profile
        share = run_size / total_rows if total_rows else 0.0
        moved = stats.rows_moved * share
        # A counting-sort scatter writes into at most 256 bucket streams;
        # write-combining makes each stream near-sequential, so the cost
        # per moved row is the key copy plus a line-churn term (radix's
        # cache behaviour is worse than a row quicksort's -- Figure 10 --
        # but far from fully random).
        scatter = moved * (
            profile.stream_cost(2 * key_width) + profile.l2_cost / 4.0
        )
        # Each executed pass reads every in-range byte twice (histogram +
        # scatter) and updates the cache-resident count array.
        counting = 2 * moved * 1.5
        insertion = stats.insertion_sorted_buckets * share * 24 * 8.0
        return scatter + counting + insertion

    def _pdq_cost(
        self, run_size: int, key_width: int, facts: WorkloadFacts
    ) -> float:
        """pdqsort with dynamic memcmp over normalized keys (strings)."""
        profile = self.profile
        from repro.systems.profile import sort_comparisons

        comparisons = sort_comparisons(run_size)
        probabilities = facts.comparisons.examine_probability
        # Bytes examined per memcmp: NULL byte + value of each column that
        # is expected to be reached, in 8-byte words.
        expected_bytes = sum(
            p * (1 + w)
            for p, w in zip(probabilities, facts.key_widths)
        )
        words = max(1.0, expected_bytes / 8.0)
        # Keys physically move during pdqsort, so loads amortize to cached
        # word compares plus the per-level fill share (see rowsort_fill_cost).
        fill = self.rowsort_fill_cost(
            run_size * key_width, key_width, run_size
        )
        per_comparison = (
            2 * words * profile.hit_cost
            + 2 * fill
            + 3.0
            + self.outcome_branch_cost()
        )
        # Prefix ties fall back to comparing the full strings.
        tie_p = facts.string_prefix_tie_probability
        if tie_p > 0:
            per_comparison += tie_p * (
                2 * profile.random_access_cost(run_size * 32)
                + 2 * facts.avg_string_bytes / 8.0
            )
        swaps = 0.3 * comparisons
        move = 3 * profile.stream_cost(key_width)
        return comparisons * per_comparison + swaps * move
