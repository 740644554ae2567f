"""Model of MonetDB's sort: single-threaded columnar subsort.

Per Section VII: MonetDB sorts with a single-threaded quicksort on a
columnar format, using the subsort approach for multiple key columns
(sort by column 1, then refine tied ranges by column 2, and so on), and
collects the payload in sorted order afterwards.

Being single-threaded is what puts MonetDB an order of magnitude behind
the parallel systems in Figures 12-14; the subsort passes are why it
slows roughly linearly with the number of key columns (about 3x from one
to four keys in Figure 13).
"""

from __future__ import annotations

import math

from repro.systems.base import SystemModel, WorkloadFacts
from repro.systems.parallel import PhaseModel
from repro.table.table import Table

__all__ = ["MonetDBModel"]


class MonetDBModel(SystemModel):
    name = "MonetDB"
    parallel = False  # the defining architectural property here

    def sort_phases(self, table: Table, facts: WorkloadFacts) -> PhaseModel:
        profile = self.profile
        model = PhaseModel(1)
        n = facts.num_rows
        if n == 0:
            return model
        distinct = facts.comparisons.distinct_prefix
        log_n = math.log2(n) if n > 1 else 0.0

        total = 0.0
        for c, (width, stringy) in enumerate(
            zip(facts.key_widths, facts.key_is_string)
        ):
            # Comparisons in pass c happen inside groups tied on the first
            # c columns: about 1.1 * n * log2(n / d_{c-1}) of them.
            d_prev = 1 if c == 0 else max(1, distinct[c - 1])
            if n <= d_prev:
                continue
            comparisons = 1.1 * n * math.log2(n / d_prev)
            # MonetDB's quicksort physically reorders (value, oid) pairs,
            # so like other moving sorts its loads amortize to cached
            # accesses plus a per-level fill share.
            pair_width = (8 if stringy else width) + 8  # value + oid
            fill = self.rowsort_fill_cost(n * pair_width, pair_width, n)
            if stringy:
                heap = profile.random_access_cost(
                    n * max(8.0, facts.avg_string_bytes)
                )
                # String BATs dereference out-of-line data and run an
                # interpreted comparison routine per pair.
                per_comparison = (
                    2 * (profile.hit_cost + fill)
                    + 2 * heap
                    + profile.call_cost
                    + 2 * facts.avg_string_bytes
                )
            else:
                # Branchless single-column comparator on moving pairs,
                # plus MonetDB's per-value BAT-operator overhead.
                per_comparison = 2 * (profile.hit_cost + fill) + 8.0
            per_comparison += self.float_penalty(facts)
            per_comparison += self.outcome_branch_cost()
            swaps = 0.3 * comparisons * 3 * profile.stream_cost(pair_width)
            # The tie scan between passes streams the sorted column once.
            tie_scan = (
                profile.stream_cost(n * pair_width)
                if c + 1 < facts.num_keys
                else 0.0
            )
            total += comparisons * per_comparison + swaps + tie_scan
        model.sequential("subsort", total)

        # Payload collection: one random gather per row, single-threaded.
        payload_width = max(4, facts.payload_bytes)
        model.sequential(
            "payload-gather",
            n
            * (
                profile.random_access_cost(n * payload_width)
                + payload_width / 8.0
            ),
        )
        del log_n
        return model
