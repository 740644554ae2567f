"""Adaptive tie-break re-encoding for exact string sorting.

Normalized keys carry at most :data:`~repro.keys.normalizer.MAX_STRING_PREFIX`
bytes per VARCHAR segment, so two long strings sharing a prefix compare equal
on the key matrix even when the full values differ.  Historically that
demoted the whole pipeline to per-row Python compares (or a hard error in the
external sort).  This module makes the vector path exact instead:

* :func:`refine_key_order` repairs a prefix-sorted permutation.  Rows tied
  on the key bytes up to the first inexact VARCHAR segment are grouped by
  one adjacent-row compare of their key words (no key byte is made);
  each inexact segment is then resolved in key order -- its tie
  groups are re-encoded at progressively wider string offsets (chunks of
  :data:`CHUNK_WIDTH` bytes past the key window, which starts after the
  segment's ``skipped`` bytes unless the row's indicator byte says it is
  escaped) and re-sorted with a stable ``np.lexsort``, subdividing groups
  until every group is a singleton or the strings are exhausted.
  Between segments the groups are extended with the key words separating
  them, so a full string always outranks every later ORDER BY column.  Work
  per round is proportional to the rows still tied: unique-prefix inputs pay
  nothing, pathological shared-prefix inputs pay ``O(ties * extra_bytes)``.
  :func:`refine_table_order` is the same repair for the common caller
  shape: a table, its key words and a stable prefix-sorted permutation.

String order here is zero-padded UTF-8 byte order, then length: identical
to Python's ``str`` ordering (UTF-8 preserves codepoint order, the zero pad
byte sorts before every real byte, and strings the pad ties differ only by
trailing NULs, where the shorter is the smaller).  A VARCHAR segment holding
a value that ends in NUL is therefore inexact whatever its width.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.keys.compression import _field
from repro.keys.encoding import CHUNK_WIDTH, gather_windows

__all__ = [
    "CHUNK_WIDTH",
    "inexact_prefix_end",
    "prefix_words",
    "refine_key_order",
    "refine_table_order",
]


def inexact_prefix_end(layout) -> int | None:
    """End byte of the first truncated VARCHAR segment, or ``None``.

    Rows equal on the key bytes up to this offset may still need full-string
    comparison; rows that differ within it are already ordered exactly.
    Callers batching refinement (the external merge's carry buffer) use it
    as the tie-group criterion.
    """
    for segment in layout.segments:
        if not segment.prefix_exact:
            return segment.offset + segment.total_width
    return None


def prefix_words(words, end: int) -> list[np.ndarray]:
    """The key word columns holding key bytes ``[0, end)``, the last one
    AND-ed down to them: later key bytes sharing that word must not split
    a group the full string decides."""
    full, part = divmod(end, 8)
    if not part:
        return list(words[:full])
    return [*words[:full], words[full] & np.uint64(2**64 - 2 ** (64 - 8 * part))]


def _tie_groups(prefix: list) -> tuple[np.ndarray, np.ndarray] | None:
    """Positions and group ids of rows tied with a neighbour on ``prefix``
    (sorted rows' :func:`prefix_words`, so equal rows are adjacent):
    ``(tied, group_ids)`` -- the ascending positions of every row in a
    group of two or more equal rows, and the 0-based non-decreasing group
    ordinal of each -- or ``None`` when every row is unique."""
    same = np.logical_and.reduce([word[1:] == word[:-1] for word in prefix])
    if not same.any():
        return None
    boundary = np.concatenate(([True], ~same))
    ids = np.cumsum(boundary) - 1
    counts = np.bincount(ids)
    tied = np.flatnonzero(counts[ids] > 1)
    return tied, ids[tied]


def _refine_segment(
    order: np.ndarray,
    groups: np.ndarray,
    buffer: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    descending: bool,
    start_byte,
    stats,
) -> tuple[np.ndarray, np.ndarray]:
    """One segment's chunked re-encode loop over the current tie groups.

    ``order`` maps sorted slot -> tied-row index; ``groups`` is the
    non-decreasing group id per slot.  Tied row ``i``'s UTF-8 bytes are
    ``buffer[starts[i]:][:lengths[i]]`` (NULLs have length 0: the key
    prefix's NULL byte already separated them into their own groups, so
    they simply stay tied and keep stable order); its key window ended at
    byte ``start_byte`` (an int, or one per tied row: a group's rows share
    their indicator byte, so they agree on it).  The sort is stable, so
    rows whose string tails are fully equal keep their current relative
    order -- which is their order on the remaining key bytes (later ORDER
    BY columns, then the row id).  Returns the refined ``(order, groups)``
    pair, with groups subdivided down to string equality classes.
    """
    starts, lengths, pos = starts + start_byte, lengths - start_byte, 0
    while True:
        multi = np.bincount(groups)[groups] > 1
        if not (multi & (lengths[order] > pos)).any():
            break
        # Every row of a still-multi group participates: rows whose string
        # is exhausted compare as all-pad (sort first ascending, last
        # descending), exactly the zero-padded semantics of the key prefix.
        rows = np.flatnonzero(multi)
        idx = order[rows]
        take = np.clip(lengths[idx] - pos, 0, CHUNK_WIDTH)
        chunk = gather_windows(buffer, starts[idx] + pos, take, CHUNK_WIDTH)
        if descending:
            np.subtract(255, chunk, out=chunk)
        groups = _sort_in_groups(order, groups, rows, chunk)
        pos += CHUNK_WIDTH
        if stats is not None:
            stats.reencode_rounds += 1
            stats.reencoded_rows += len(rows)
    # Bytes exhausted: rows still tied hold one string extended by differing
    # counts of trailing NULs, which the zero pad hides; the shorter is the
    # smaller.
    rows = np.flatnonzero(multi)
    if len(rows):
        length = lengths[order[rows], None]
        groups = _sort_in_groups(
            order, groups, rows, -length if descending else length
        )
    return order, groups


def _sort_in_groups(
    order: np.ndarray, groups: np.ndarray, rows: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """Stable-sort the slots ``rows`` of ``order`` (in place) by ``columns``
    inside their groups; returns ``groups`` subdivided where a column changed.
    """
    # Group id is the primary key (ids are non-decreasing in slot order, so
    # equal ids are contiguous), the columns the secondary keys, and the
    # slot ordinal the explicit final tiebreak.
    sub = np.lexsort(
        (np.arange(len(rows)),) + tuple(columns.T[::-1]) + (groups[rows],)
    )
    order[rows] = order[rows][sub]
    columns, g_sorted = columns[sub], groups[rows][sub]
    changed = np.concatenate(([True], groups[1:] != groups[:-1]))
    if len(rows) > 1:
        changed[rows[1:]] |= (g_sorted[1:] != g_sorted[:-1]) | np.any(
            columns[1:] != columns[:-1], axis=1
        )
    return np.cumsum(changed) - 1


def refine_key_order(
    words,
    layout,
    fetch_tied: Callable[[np.ndarray], Callable[[str], tuple[np.ndarray, ...]]],
    stats=None,
) -> np.ndarray | None:
    """Turn a prefix-sorted permutation into an exact one.

    Args:
        words: the sorted rows' key word columns.
        layout: the :class:`~repro.keys.normalizer.KeyLayout` that produced
            them; only segments with ``prefix_exact=False`` are refined.
        fetch_tied: called once with the tied row positions; returns a
            getter ``get(column_name) -> (buffer, starts, lengths)``: tied
            row ``i``'s UTF-8 bytes are ``buffer[starts[i]:][:lengths[i]]``
            (length 0 for NULL).  The merger answers from its runs'
            ``EncodedStrings``, :func:`refine_table_order` from the
            table's column's.
        stats: optional ``SortStats``; ``full_key_compares`` counts the tied
            rows whose full strings were consulted, ``reencode_rounds`` /
            ``reencoded_rows`` the re-encode work.

    Tie groups start as runs of rows equal on the key bytes up to the first
    inexact segment (:func:`prefix_words`: later bytes must not
    pre-partition them, the full string outranks every later ORDER BY
    column).  Each inexact segment is refined in key order; before the
    next one, groups are extended with the exact key bytes separating the
    two segments -- within a group the rows are stable-sorted by those
    bytes already, so adjacent comparison suffices.

    Returns a full-length permutation to apply on top of the prefix order,
    or ``None`` when the prefix order is already exact.
    """
    inexact = [s for s in layout.segments if not s.prefix_exact]
    if not inexact:
        return None
    covered = inexact[0].offset + inexact[0].total_width
    found = _tie_groups(prefix_words(words, covered))
    if found is None:
        return None
    tied, groups = found
    groups = groups.astype(np.int64)
    tied_words = [word[tied] for word in words]
    get = fetch_tied(tied)
    if stats is not None:
        stats.full_key_compares += len(tied)
    order = np.arange(len(tied), dtype=np.int64)
    for segment in inexact:
        end = segment.offset + segment.total_width
        if end > covered:
            # Extend group equality with the exact bytes between the
            # previous inexact segment and this one, in current slot
            # order (stable refinement kept equal-tail rows sorted by
            # their remaining key bytes, so runs stay adjacent).  A
            # group's rows agree on bytes [0, covered): the words from
            # the one holding byte ``covered`` on compare the new ones.
            new = prefix_words(tied_words, end)[covered // 8 :]
            prefix = [word[order] for word in new]
            changed = np.concatenate(([True], groups[1:] != groups[:-1]))
            changed[1:] |= np.logical_or.reduce(
                [word[1:] != word[:-1] for word in prefix]
            )
            groups = np.cumsum(changed) - 1
            covered = end
        if np.bincount(groups).max() <= 1:
            break
        start_byte = segment.value_width
        if segment.skipped:
            indicator = _field(tied_words, segment.offset, 1)
            shares = indicator == segment.null_byte_for_valid
            start_byte = start_byte + len(segment.skipped) * shares
        order, groups = _refine_segment(
            order,
            groups,
            *get(segment.key.column),
            segment.key.descending,
            start_byte,
            stats,
        )
    perm = np.arange(len(words[0]), dtype=np.int64)
    perm[tied] = tied[order]
    return perm


def refine_table_order(
    table, words, layout, order: np.ndarray, stats=None
) -> np.ndarray:
    """Exact-string repair of a prefix-sorted permutation of ``table``.

    ``words`` holds ``table``'s key word columns under ``layout``, in
    table order, and ``order`` is a stable sort of its rows, so every
    prefix tie group arrives ordered by its remaining key bytes and then
    arrival -- the precondition of :func:`refine_key_order`, whose
    permutation is folded into the returned one.
    """
    order = np.asarray(order, dtype=np.int64)

    def fetch_tied(tied: np.ndarray):
        source = order[tied]

        def get(name: str):
            strings = table.column(name).strings(name)
            starts, lengths = strings.starts[source], strings.lengths[source]
            return strings.buffer, starts, lengths

        return get

    words = [word[order] for word in words]
    perm = refine_key_order(words, layout, fetch_tied, stats)
    return order if perm is None else order[perm]
