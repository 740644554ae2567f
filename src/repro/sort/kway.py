"""K-way merging of sorted runs.

ClickHouse, HyPer, and Umbra merge their thread-local sorted runs with a
k-way merge (paper, Section VII); DuckDB instead cascades 2-way merges
(modelled in :mod:`repro.engine.parallel` and :mod:`repro.simsort`).
This module drives the vectorized k-way kernel
(:func:`repro.sort.kernels.kway_merge_blocks`).

Stability: runs are merged with run index as the tiebreaker, so the merge
is stable across runs if each run is internally stable and runs are given
in input order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.sort.kernels import KWayBlockStats, kway_merge_blocks

__all__ = ["kway_merge_stream"]


def kway_merge_stream(
    sources: Sequence[Iterable[np.ndarray]],
    block_stats: KWayBlockStats | None = None,
    on_round: Callable[[], None] | None = None,
    *,
    use_ovc: bool = True,
    emit_keys: bool = False,
    prefetcher=None,
):
    """Drive the block-streaming k-way kernel with per-round checkpoints.

    Yields the kernel's rounds unchanged -- ``(order, spans)`` tuples,
    or ``(order, spans, merged_words)`` when ``emit_keys`` is set -- but
    invokes ``on_round`` before emitting each one.  The
    callback is the cooperative-cancellation (and progress) hook of
    long-running merges: the external sort raises
    :class:`repro.errors.SortCancelledError` from it, unwinding the
    merge between rounds -- never mid-read -- so cleanup always sees a
    consistent set of spill files.  ``use_ovc`` and ``emit_keys`` are
    forwarded to :func:`repro.sort.kernels.kway_merge_blocks`.

    ``prefetcher``, when given, is the read-ahead layer feeding
    ``sources`` (:class:`repro.sort.prefetch.BlockPrefetcher`); its
    ``close()`` is invoked -- idempotently -- when the stream ends for
    any reason (exhaustion, an error raised by a source or the
    consumer, or an early ``close()`` of this generator), so no fetch
    thread outlives the merge it was reading ahead for.
    """
    stats = block_stats or KWayBlockStats()
    try:
        rounds = kway_merge_blocks(
            sources, stats, use_ovc=use_ovc, emit_keys=emit_keys
        )
        for item in rounds:
            if on_round is not None:
                on_round()
            yield item
    finally:
        if prefetcher is not None:
            prefetcher.close()
