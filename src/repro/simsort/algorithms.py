"""Instrumented sorting algorithms running on the simulated machine.

Ports of the algorithm suite the paper benchmarks, expressed against the
adapter interface of :mod:`repro.simsort.adapters` so one implementation
serves every layout/comparator combination:

* :func:`introsort_adapter` -- the ``std::sort`` stand-in (median-of-3
  quicksort, heapsort depth fallback, final insertion sweep);
* :func:`merge_sort_adapter` -- the ``std::stable_sort`` stand-in
  (bottom-up merge with an auxiliary buffer: sequential access);
* :func:`pdqsort_adapter` -- pattern-defeating quicksort;
* :func:`lsd_radix_sort` / :func:`msd_radix_sort` /
  :func:`duckdb_radix_sort` -- byte-wise radix sorts over normalized keys
  (no comparisons, near-zero branch mispredictions, extra data movement).

Every data-dependent branch is charged to the machine's predictor under a
static site id; loop-control branches (which real hardware predicts almost
perfectly) are not charged, matching how ``perf branch-misses`` differences
show up in the paper's tables.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.simsort.layouts import NormalizedKeyLayout

__all__ = [
    "insertion_sort_adapter",
    "introsort_adapter",
    "merge_sort_adapter",
    "pdqsort_adapter",
    "lsd_radix_sort",
    "msd_radix_sort",
    "duckdb_radix_sort",
]

INSERTION_THRESHOLD = 16
PDQ_INSERTION_THRESHOLD = 24
PDQ_NINTHER_THRESHOLD = 128
RADIX_INSERTION_THRESHOLD = 24
MERGE_CHUNK = 16


def _log2(n: int) -> int:
    return max(1, n.bit_length() - 1)


# ---------------------------------------------------------------------- #
# Insertion sort (shared base case)
# ---------------------------------------------------------------------- #


def insertion_sort_adapter(seq, begin: int = 0, end: int | None = None) -> None:
    """Insertion sort of seq[begin:end) through the temp slot."""
    if end is None:
        end = seq.n
    for i in range(begin + 1, end):
        seq.save_temp(i)
        j = i - 1
        while j >= begin and seq.temp_less(j, site="ins-cmp"):
            seq.move(j + 1, j)
            j -= 1
        seq.store_temp(j + 1)


# ---------------------------------------------------------------------- #
# Introsort (std::sort)
# ---------------------------------------------------------------------- #


def introsort_adapter(seq) -> None:
    """Introsort over an adapter: ``std::sort``'s median-of-3 quicksort,
    heapsort past a depth of 2 log2(n), one final insertion sweep."""
    n = seq.n
    if n < 2:
        return
    _intro_loop(seq, 0, n, 2 * _log2(n))
    insertion_sort_adapter(seq, 0, n)


def _intro_loop(seq, begin: int, end: int, depth_limit: int) -> None:
    while end - begin > INSERTION_THRESHOLD:
        if depth_limit == 0:
            _heapsort_adapter(seq, begin, end)
            return
        depth_limit -= 1
        cut = _intro_partition(seq, begin, end)
        _intro_loop(seq, cut, end, depth_limit)
        end = cut


def _median_to_first(seq, first: int, i: int, j: int, k: int) -> None:
    if seq.less(i, j, site="med-1"):
        if seq.less(j, k, site="med-2"):
            seq.swap(first, j)
        elif seq.less(i, k, site="med-3"):
            seq.swap(first, k)
        else:
            seq.swap(first, i)
    elif seq.less(i, k, site="med-4"):
        seq.swap(first, i)
    elif seq.less(j, k, site="med-5"):
        seq.swap(first, k)
    else:
        seq.swap(first, j)


def _intro_partition(seq, begin: int, end: int) -> int:
    mid = begin + (end - begin) // 2
    _median_to_first(seq, begin, begin + 1, mid, end - 1)
    seq.save_temp(begin)  # pivot copy
    first, last = begin + 1, end
    while True:
        while seq.less_temp(first, site="qs-left"):
            first += 1
        last -= 1
        while seq.temp_less(last, site="qs-right"):
            last -= 1
        if first >= last:
            return first
        seq.swap(first, last)
        first += 1


def _heapsort_adapter(seq, begin: int, end: int) -> None:
    n = end - begin

    def sift_down(root: int, stop: int) -> None:
        while True:
            child = 2 * (root - begin) + 1 + begin
            if child >= stop:
                return
            if child + 1 < stop and seq.less(child, child + 1, site="heap-sib"):
                child += 1
            if seq.less(root, child, site="heap-down"):
                seq.swap(root, child)
                root = child
            else:
                return

    for start in range(begin + n // 2 - 1, begin - 1, -1):
        sift_down(start, end)
    for stop in range(end - 1, begin, -1):
        seq.swap(begin, stop)
        sift_down(begin, stop)


# ---------------------------------------------------------------------- #
# Bottom-up merge sort (std::stable_sort)
# ---------------------------------------------------------------------- #


def merge_sort_adapter(seq) -> None:
    """Stable merge sort over an adapter with a buffer-aware interface.

    Runs of MERGE_CHUNK are insertion sorted, then merged bottom-up,
    ping-ponging between the main (False) and auxiliary (True) buffers.
    Access is sequential, which is why this algorithm is far less
    sensitive to layout than quicksort (paper, Figures 3 and 5).
    """
    n = seq.n
    if n < 2:
        return
    for start in range(0, n, MERGE_CHUNK):
        insertion_sort_adapter(seq, start, min(start + MERGE_CHUNK, n))
    if n <= MERGE_CHUNK:
        return
    seq.ensure_aux()
    width = MERGE_CHUNK
    src_aux = False
    while width < n:
        dst_aux = not src_aux
        for start in range(0, n, 2 * width):
            mid = min(start + width, n)
            stop = min(start + 2 * width, n)
            _merge_between(seq, src_aux, dst_aux, start, mid, stop)
        src_aux = dst_aux
        width *= 2
    if src_aux:
        # Result ended in the auxiliary buffer; copy it home.
        for i in range(n):
            seq.move_between(False, i, True, i)


def _merge_between(
    seq, src_aux: bool, dst_aux: bool, start: int, mid: int, stop: int
) -> None:
    i, j = start, mid
    for k in range(start, stop):
        take_left = i < mid and (
            j >= stop
            or not seq.less_between(src_aux, j, src_aux, i, site="merge-cmp")
        )
        if take_left:
            seq.move_between(dst_aux, k, src_aux, i)
            i += 1
        else:
            seq.move_between(dst_aux, k, src_aux, j)
            j += 1


# ---------------------------------------------------------------------- #
# pdqsort
# ---------------------------------------------------------------------- #


def pdqsort_adapter(seq) -> None:
    """Pattern-defeating quicksort over an adapter.

    Mirrors :mod:`repro.scalar.pdqsort` (insertion base case, median-of-3 /
    ninther pivots, partition_left for equal runs, partial insertion sort
    on already-partitioned input, pattern-breaking swaps, heapsort
    fallback).
    """
    n = seq.n
    if n < 2:
        return
    _pdq_loop(seq, 0, n, _log2(n), leftmost=True)


def _pdq_sort3(seq, i: int, j: int, k: int) -> None:
    if seq.less(j, i, site="pdq-s3a"):
        seq.swap(i, j)
    if seq.less(k, j, site="pdq-s3b"):
        seq.swap(j, k)
        if seq.less(j, i, site="pdq-s3c"):
            seq.swap(i, j)


def _pdq_choose_pivot(seq, begin: int, end: int) -> None:
    size = end - begin
    mid = begin + size // 2
    if size > PDQ_NINTHER_THRESHOLD:
        _pdq_sort3(seq, begin, mid, end - 1)
        _pdq_sort3(seq, begin + 1, mid - 1, end - 2)
        _pdq_sort3(seq, begin + 2, mid + 1, end - 3)
        _pdq_sort3(seq, mid - 1, mid, mid + 1)
        seq.swap(begin, mid)
    else:
        _pdq_sort3(seq, mid, begin, end - 1)


def _pdq_partition_right(seq, begin: int, end: int) -> tuple[int, bool]:
    seq.save_temp(begin)  # pivot
    first, last = begin, end
    first += 1
    while seq.less_temp(first, site="pdq-pl"):
        first += 1
    if first - 1 == begin:
        while first < last:
            last -= 1
            if seq.less_temp(last, site="pdq-pr"):
                break
    else:
        last -= 1
        while not seq.less_temp(last, site="pdq-pr"):
            last -= 1
    already_partitioned = first >= last
    while first < last:
        seq.swap(first, last)
        first += 1
        while seq.less_temp(first, site="pdq-pl"):
            first += 1
        last -= 1
        while not seq.less_temp(last, site="pdq-pr"):
            last -= 1
    pivot_pos = first - 1
    seq.move(begin, pivot_pos)
    seq.store_temp(pivot_pos)
    return pivot_pos, already_partitioned


def _pdq_partition_left(seq, begin: int, end: int) -> int:
    seq.save_temp(begin)  # pivot
    first, last = begin, end
    last -= 1
    while seq.temp_less(last, site="pdq-ll"):
        last -= 1
    if last + 1 == end:
        while first < last:
            first += 1
            if seq.temp_less(first, site="pdq-lr"):
                break
    else:
        first += 1
        while not seq.temp_less(first, site="pdq-lr"):
            first += 1
    while first < last:
        seq.swap(first, last)
        last -= 1
        while seq.temp_less(last, site="pdq-ll"):
            last -= 1
        first += 1
        while not seq.temp_less(first, site="pdq-lr"):
            first += 1
    pivot_pos = last
    seq.move(begin, pivot_pos)
    seq.store_temp(pivot_pos)
    return pivot_pos


def _pdq_partial_insertion_sort(seq, begin: int, end: int) -> bool:
    limit = 8
    moves = 0
    for i in range(begin + 1, end):
        j = i - 1
        if seq.less(i, j, site="pdq-pi"):
            seq.save_temp(i)
            while j >= begin and seq.temp_less(j, site="pdq-pi2"):
                seq.move(j + 1, j)
                j -= 1
                moves += 1
            seq.store_temp(j + 1)
            if moves > limit:
                return False
    return True


def _pdq_insertion_sort(seq, begin: int, end: int, unguarded: bool) -> None:
    for i in range(begin + 1, end):
        seq.save_temp(i)
        j = i - 1
        if unguarded:
            while seq.temp_less(j, site="pdq-ins"):
                seq.move(j + 1, j)
                j -= 1
        else:
            while j >= begin and seq.temp_less(j, site="pdq-ins"):
                seq.move(j + 1, j)
                j -= 1
        seq.store_temp(j + 1)


def _pdq_loop(seq, begin: int, end: int, bad_allowed: int, leftmost: bool) -> None:
    while True:
        size = end - begin
        if size < PDQ_INSERTION_THRESHOLD:
            _pdq_insertion_sort(seq, begin, end, unguarded=not leftmost)
            return
        _pdq_choose_pivot(seq, begin, end)
        if not leftmost and not seq.less(begin - 1, begin, site="pdq-eq"):
            begin = _pdq_partition_left(seq, begin, end) + 1
            continue
        pivot_pos, already_partitioned = _pdq_partition_right(seq, begin, end)
        left_size = pivot_pos - begin
        right_size = end - (pivot_pos + 1)
        highly_unbalanced = left_size < size // 8 or right_size < size // 8
        if highly_unbalanced:
            bad_allowed -= 1
            if bad_allowed == 0:
                _heapsort_adapter(seq, begin, end)
                return
            if left_size >= PDQ_INSERTION_THRESHOLD:
                quarter = left_size // 4
                seq.swap(begin, begin + quarter)
                seq.swap(pivot_pos - 1, pivot_pos - quarter)
                if left_size > PDQ_NINTHER_THRESHOLD:
                    seq.swap(begin + 1, begin + quarter + 1)
                    seq.swap(begin + 2, begin + quarter + 2)
                    seq.swap(pivot_pos - 2, pivot_pos - quarter - 1)
                    seq.swap(pivot_pos - 3, pivot_pos - quarter - 2)
            if right_size >= PDQ_INSERTION_THRESHOLD:
                quarter = right_size // 4
                seq.swap(pivot_pos + 1, pivot_pos + 1 + quarter)
                seq.swap(end - 1, end - quarter)
                if right_size > PDQ_NINTHER_THRESHOLD:
                    seq.swap(pivot_pos + 2, pivot_pos + 2 + quarter)
                    seq.swap(pivot_pos + 3, pivot_pos + 3 + quarter)
                    seq.swap(end - 2, end - quarter - 1)
                    seq.swap(end - 3, end - quarter - 2)
        elif already_partitioned:
            if _pdq_partial_insertion_sort(
                seq, begin, pivot_pos
            ) and _pdq_partial_insertion_sort(seq, pivot_pos + 1, end):
                return
        _pdq_loop(seq, begin, pivot_pos, bad_allowed, leftmost)
        begin = pivot_pos + 1
        leftmost = False


# ---------------------------------------------------------------------- #
# Radix sorts over normalized keys
# ---------------------------------------------------------------------- #


def _radix_histogram(
    layout: NormalizedKeyLayout,
    counts_base: int,
    begin: int,
    end: int,
    byte_index: int,
    from_aux: bool,
) -> list[int]:
    """Count byte values over [begin, end); charges reads + count updates."""
    machine = layout.machine
    counts = [0] * 256
    for position in range(begin, end):
        if from_aux:
            value = layout.read_aux_byte(position, byte_index)
        else:
            value = layout.read_byte(position, byte_index)
        machine.read(counts_base + value * 4, 4)
        machine.write(counts_base + value * 4, 4)
        counts[value] += 1
    return counts


def _single_bucket(counts: list[int], total: int) -> bool:
    return max(counts) == total


def lsd_radix_sort(layout: NormalizedKeyLayout, skip_copy: bool = True) -> None:
    """LSD radix sort of the key-column bytes (row-id suffix rides along).

    One stable counting pass per key byte, least significant first,
    ping-ponging between the key buffer and the auxiliary buffer.  A pass
    whose histogram is a single bucket moves no data (skip-copy).
    Branch-free by construction: the only data-dependent control flow is
    the scatter *address*, not a branch -- radix's branch advantage in
    Figure 10.
    """
    n = layout.num_rows
    if n <= 1:
        return
    layout.ensure_aux()
    machine = layout.machine
    counts_region = machine.arena.alloc(256 * 4, "radix-counts")
    key_bytes = layout.num_columns * 4  # radix passes cover key bytes only
    src_aux = False
    for byte_index in range(key_bytes - 1, -1, -1):
        counts = _radix_histogram(
            layout, counts_region.base, 0, n, byte_index, src_aux
        )
        if skip_copy and _single_bucket(counts, n):
            continue  # skip-copy optimization
        offsets = [0] * 256
        running = 0
        for value in range(256):
            machine.read(counts_region.base + value * 4, 4)
            machine.write(counts_region.base + value * 4, 4)
            offsets[value] = running
            running += counts[value]
        src = layout.aux if src_aux else layout.keys
        dst = layout.keys if src_aux else layout.aux
        src_base = (
            layout.aux_address(0) if src_aux else layout.key_address(0)
        )
        dst_base = (
            layout.key_address(0) if src_aux else layout.aux_address(0)
        )
        width = layout.key_width
        for position in range(n):
            if src_aux:
                value = layout.read_aux_byte(position, byte_index)
            else:
                value = layout.read_byte(position, byte_index)
            machine.read(counts_region.base + value * 4, 4)
            machine.write(counts_region.base + value * 4, 4)
            target = offsets[value]
            offsets[value] += 1
            machine.read(src_base + position * width, width)
            machine.write(dst_base + target * width, width)
            dst[target] = src[position]
            machine.swap()
        src_aux = not src_aux
    if src_aux:
        # Data ended in the auxiliary buffer; stream it back.
        for position in range(n):
            layout.copy_key_between(False, position, True, position)


def _msd_insertion_sort(layout: NormalizedKeyLayout, begin: int, end: int) -> None:
    """memcmp insertion sort for small MSD buckets (charged via layout)."""
    machine = layout.machine
    for i in range(begin + 1, end):
        layout.save_temp(i)
        temp = layout.temp_bytes()
        j = i - 1
        while j >= begin:
            machine.instr(3)
            other = layout.key_bytes(j)
            machine.compare()
            is_less = temp < other
            machine.branch("msd-ins", is_less)
            if not is_less:
                break
            layout.copy_key(j + 1, j)
            machine.swap()
            j -= 1
        layout.store_temp(j + 1)


def msd_radix_sort(
    layout: NormalizedKeyLayout,
    insertion_threshold: int = RADIX_INSERTION_THRESHOLD,
) -> None:
    """MSD radix sort: partition on the leading byte, recurse per bucket.

    Buckets at or below ``insertion_threshold`` rows finish with a memcmp
    insertion sort, like the paper's implementation.  Scatters go through
    the auxiliary buffer and are copied back, so data movement is charged
    both ways.
    """
    n = layout.num_rows
    if n <= 1:
        return
    layout.ensure_aux()
    machine = layout.machine
    counts_region = machine.arena.alloc(256 * 4, "radix-counts")
    key_bytes = layout.num_columns * 4
    width = layout.key_width
    stack: list[tuple[int, int, int]] = [(0, n, 0)]
    while stack:
        begin, end, byte_index = stack.pop()
        count = end - begin
        if count <= 1 or byte_index >= key_bytes:
            continue
        if count <= insertion_threshold:
            _msd_insertion_sort(layout, begin, end)
            continue
        counts = _radix_histogram(
            layout, counts_region.base, begin, end, byte_index, False
        )
        if _single_bucket(counts, count):
            stack.append((begin, end, byte_index + 1))
            continue
        offsets = [0] * 256
        running = 0
        for value in range(256):
            machine.read(counts_region.base + value * 4, 4)
            machine.write(counts_region.base + value * 4, 4)
            offsets[value] = running
            running += counts[value]
        # Scatter into aux, then copy the range back.
        for position in range(begin, end):
            value = layout.read_byte(position, byte_index)
            machine.read(counts_region.base + value * 4, 4)
            machine.write(counts_region.base + value * 4, 4)
            target = begin + offsets[value]
            offsets[value] += 1
            machine.read(layout.key_address(position), width)
            machine.write(layout.aux_address(target), width)
            layout.aux[target] = layout.keys[position]
            machine.swap()
        for position in range(begin, end):
            layout.copy_key_between(False, position, True, position)
        # Recurse into buckets larger than one row.
        bucket_start = begin
        for value in range(256):
            bucket_count = counts[value]
            if bucket_count > 1:
                stack.append(
                    (bucket_start, bucket_start + bucket_count, byte_index + 1)
                )
            bucket_start += bucket_count
    return None


def duckdb_radix_sort(
    layout: NormalizedKeyLayout, lsd_threshold_bytes: int = 4
) -> None:
    """DuckDB's choice: LSD for keys of <= 4 bytes, MSD otherwise."""
    if layout.num_columns * 4 <= lsd_threshold_bytes:
        lsd_radix_sort(layout)
    else:
        msd_radix_sort(layout)


def verify_sorted(seq_or_layout, key_tuple=None) -> bool:
    """Uncharged check that a layout's final order is non-decreasing."""
    layout = seq_or_layout
    get = key_tuple or layout.key_tuple
    previous = None
    for position in range(layout.num_rows):
        current = get(position)
        if previous is not None and current < previous:
            return False
        previous = current
    return True
