"""Merge Path: partitioning a 2-way merge for parallel execution.

Merge Path (Green, Odeh & Birk 2014) views merging sorted runs A and B as a
monotone path through an |A| x |B| grid.  Cutting the path at equally spaced
*diagonals* yields independent sub-merges of equal total size, so k threads
can merge two runs with perfect load balance -- this is how DuckDB keeps the
final merges of its cascaded merge sort parallel (paper, Section VII).

The partition point on diagonal ``d`` is found with a binary search for the
"intersection" of the runs: the split (i, j), i + j = d, such that every
element taken from A is <= every remaining element of B and vice versa.

The parallelism is modelled, not executed: :func:`parallel_merge` runs
each partition's sub-merge serially, and the virtual-time scheduler in
:mod:`repro.engine.parallel` charges the same equal partitions to
simulated threads.  Both rely on the stability convention encoded in the
binary search below: ties are taken from ``a`` first, so partitioned
sub-merges concatenate into exactly the stable full merge.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import SortError

__all__ = [
    "merge_path_partition",
    "merge_path_partitions",
    "merge_partitioned",
]

Less = Callable[[Any, Any], bool]


def _default_less(a: Any, b: Any) -> bool:
    return a < b


def merge_path_partition(
    a: Sequence[Any],
    b: Sequence[Any],
    diagonal: int,
    less: Less | None = None,
) -> tuple[int, int]:
    """Split point (i, j) of the merge of ``a`` and ``b`` on ``diagonal``.

    Returns i and j with ``i + j == diagonal`` such that merging
    ``a[:i]`` with ``b[:j]`` yields the first ``diagonal`` outputs of the
    full (stable, a-first-on-ties) merge.  O(log min(d, |a|, |b|))
    comparisons.
    """
    less = less or _default_less
    if diagonal < 0 or diagonal > len(a) + len(b):
        raise SortError(
            f"diagonal {diagonal} out of range for |a|={len(a)}, |b|={len(b)}"
        )
    # Binary search over how many elements come from `a`.
    low = max(0, diagonal - len(b))
    high = min(diagonal, len(a))
    while low < high:
        i = (low + high) // 2
        j = diagonal - i
        # The stable merge takes a[i] before b[j-1] iff a[i] <= ... :
        # path is too low if b[j-1] should come after a[i].
        if less(b[j - 1], a[i]):
            high = i
        else:
            low = i + 1
    i = low
    return i, diagonal - i


def merge_path_partitions(
    a: Sequence[Any],
    b: Sequence[Any],
    num_partitions: int,
    less: Less | None = None,
) -> list[tuple[int, int]]:
    """Split points for ``num_partitions`` equal slices of the merge.

    Returns ``num_partitions + 1`` (i, j) pairs; slice ``p`` merges
    ``a[i_p:i_{p+1}]`` with ``b[j_p:j_{p+1}]``.  Each slice outputs
    ``ceil((|a|+|b|) / num_partitions)`` elements (the last may be short).
    """
    if num_partitions <= 0:
        raise SortError(f"num_partitions must be positive, got {num_partitions}")
    total = len(a) + len(b)
    step = -(-total // num_partitions) if total else 0
    points = []
    for p in range(num_partitions + 1):
        diagonal = min(p * step, total)
        points.append(merge_path_partition(a, b, diagonal, less))
    return points


def merge_partitioned(
    a: Sequence[Any],
    b: Sequence[Any],
    num_partitions: int,
    less: Less | None = None,
) -> list[Any]:
    """Full stable merge computed slice-by-slice via Merge Path.

    Serially executes what the parallel merge would run on each thread; the
    virtual-time scheduler in :mod:`repro.engine.parallel` uses the same
    partitioning to model the parallel makespan.
    """
    less = less or _default_less
    points = merge_path_partitions(a, b, num_partitions, less)
    out: list[Any] = []
    for (i0, j0), (i1, j1) in zip(points, points[1:]):
        i, j = i0, j0
        while i < i1 and j < j1:
            if less(b[j], a[i]):
                out.append(b[j])
                j += 1
            else:
                out.append(a[i])
                i += 1
        out.extend(a[i:i1])
        out.extend(b[j:j1])
    return out
