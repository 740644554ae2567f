"""Tie-group refinement: finish a sort whose prefix order is provided.

When the planner knows an input is already sorted by a leading prefix of
the requested ORDER BY (a published incremental view, an earlier sort in
the same plan), a full re-sort repeats work the prefix already paid for.
:func:`refine_sorted` instead orders rows only *within* the existing
prefix groups:

1. Exact group boundaries on the provided prefix come from one
   :func:`repro.sort.stringsort.exact_group_changed` pass (exact even
   for truncated VARCHAR prefixes).
2. Each row's key becomes ``[8-byte group ordinal][normalized suffix
   keys][row id]`` and one stable vectorized sort
   (:func:`repro.sort.heuristic.vector_sort_rows`) orders the whole
   table -- the group ordinal pins rows to their provided prefix order,
   so the sort only permutes within groups.
3. Truncated VARCHAR suffix keys are repaired by the same adaptive
   tie-break re-encoding the one-shot operator uses
   (:func:`repro.sort.stringsort.refine_table_order`), against a layout
   shifted past the group-ordinal bytes.

The result is byte-identical to a stable full sort: the group ordinal
order equals the exact prefix order (the input was exactly sorted), the
suffix order is exact after refinement, and the trailing row id
reproduces stable arrival-order ties.

The pass declines (returns ``None``; the caller runs a full sort and
counts a ``refine_fallbacks``) exactly where the cheap path cannot
guarantee the operator's exact semantics: suffixes where
:func:`repro.sort.stringsort.refinement_must_defer` reports key bytes
*after* a truncated VARCHAR segment.  The must-defer
check is consulted on the *suffix* layout (the prepended group ordinal
is always exact): a truncated suffix VARCHAR as the last key refines in
place, while one followed by further ORDER BY columns hands the sort
back to the full operator -- the same boundary the external sort draws
for its runs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.keys.normalizer import MAX_STRING_PREFIX, normalize_keys
from repro.sort.heuristic import vector_sort_rows
from repro.sort.operator import SortStats
from repro.sort.stringsort import (
    exact_group_changed,
    refine_table_order,
    refinement_must_defer,
)
from repro.table.table import Table
from repro.types.sortspec import SortSpec

__all__ = ["refine_sorted"]

_GROUP_WIDTH = 8
"""Bytes of the big-endian group ordinal prepended to the suffix keys."""


def _shifted_layout(layout):
    """The suffix layout with every segment moved past the group bytes."""
    segments = tuple(
        dataclasses.replace(s, offset=s.offset + _GROUP_WIDTH)
        for s in layout.segments
    )
    return dataclasses.replace(
        layout, segments=segments, key_width=layout.key_width + _GROUP_WIDTH
    )


def refine_sorted(
    table: Table,
    spec: SortSpec,
    prefix: SortSpec,
    stats: SortStats | None = None,
) -> Table | None:
    """Sort ``table`` by ``spec``, given it is already exactly sorted by
    ``prefix`` (a leading sub-spec of ``spec``).

    Returns the sorted table -- byte-identical to a stable full
    ``sort_table(table, spec)`` -- or ``None`` when the refinement path
    is unavailable and the caller must fall back to a full sort (see
    module docstring for the exact decline rules).
    """
    stats = stats if stats is not None else SortStats()
    if len(prefix.keys) >= len(spec.keys):
        # Nothing to refine: the prefix already covers the spec.
        stats.sorts_refined += 1
        return table

    n = table.num_rows
    suffix = SortSpec(spec.keys[len(prefix.keys):])
    if n <= 1:
        stats.sorts_refined += 1
        return table

    pre = normalize_keys(
        table, prefix, string_prefix=MAX_STRING_PREFIX, include_row_id=False
    )
    suf = normalize_keys(
        table,
        suffix,
        string_prefix=MAX_STRING_PREFIX,
        include_row_id=True,
        row_id_width=8,
    )
    if not suf.prefix_exact and refinement_must_defer(suf.layout):
        return None

    changed = exact_group_changed(table, pre)
    group = np.concatenate(([0], np.cumsum(changed))).astype(np.uint64)

    total_width = _GROUP_WIDTH + suf.matrix.shape[1]
    matrix = np.empty((n, total_width), dtype=np.uint8)
    matrix[:, :_GROUP_WIDTH] = (
        group.astype(">u8").view(np.uint8).reshape(n, _GROUP_WIDTH)
    )
    matrix[:, _GROUP_WIDTH:] = suf.matrix
    order = vector_sort_rows(
        matrix, _GROUP_WIDTH + suf.layout.key_width, stats
    )
    stats.sorts_refined += 1
    stats.rows_sorted += n
    if not suf.prefix_exact:
        order = refine_table_order(
            table, matrix, _shifted_layout(suf.layout), order, stats
        )
    return table.take(order)
